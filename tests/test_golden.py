"""Byte-for-byte regression of CLI output on fixed documents.

The germs under ``tests/data/`` and their expected outputs under
``tests/data/expected/`` were written by the CLI and are compared here
byte for byte: a change to the arithmetic of the pipeline, the operator
or the verification shows up as a failure, even at the last ulp.

To regenerate one expected file after an intended change, run for example
``PYTHONPATH=src python -m srnf normal-form tests/data/hopf.json
> tests/data/expected/hopf.normal-form.json`` from the repository root.
The group inputs ``group_g1.json``, ``group_g2.json`` (elements) and
``group_map.json`` (a sub-resonant map) share one spectrum.  ``near_resonant.json``
is a coupled 3-d germ whose results carry strings: small-divisor warnings,
and with ``--res-tol 1e-5`` an ``{"error": ...}`` document.
"""

from pathlib import Path

import pytest

from srnf.cli import main

DATA = Path(__file__).parent / "data"

# (expected file, CLI arguments, exit code)
CASES = [
    ("hopf.normal-form", ["normal-form", "hopf.json"], 0),
    ("hopf.verify-seed3", ["verify", "hopf.json", "--seed", "3"], 0),
    ("coupled_n3.normal-form", ["normal-form", "coupled_n3.json"], 0),
    ("resonant_n8_c2.normal-form", ["normal-form", "resonant_n8_c2.json"], 0),
    ("hopf.m-matrix-q2", ["m-matrix", "hopf.json", "--degree", "2"], 0),
    ("coupled_n3.m-matrix-q3", ["m-matrix", "coupled_n3.json", "--degree", "3"], 0),
    # n = 3: the straightening sequences converge at different p
    ("coupled_n3.verify-seed1", ["verify", "coupled_n3.json", "--seed", "1"], 0),
    # converged and null samples in one report (16 of 20 null), exit 3
    ("hopf.verify-seed3-pmax12",
     ["verify", "hopf.json", "--seed", "3", "--p-max", "12"], 3),
    # n = 3, degree bound 4, both elements with a nonzero translation
    ("group.mul", ["group", "mul", "group_g1.json", "group_g2.json"], 0),
    ("group.inv", ["group", "inv", "group_g1.json"], 0),
    ("group.conjugate-translation",
     ["group", "conjugate-translation", "group_map.json",
      "--tau", "[[0.07, -0.02], [-0.05, 0.04], [0.03, 0.09]]"], 0),
    # l_1 = 0.2500002 sits 2e-7 off l_2^2 = l_2 l_3 = l_3^2: three small-divisor warnings
    ("near_resonant.normal-form", ["normal-form", "near_resonant.json"], 0),
    # the same divisors taken as resonances but not sub-resonant: an error document, exit 3
    ("near_resonant.normal-form-restol1e-5",
     ["normal-form", "near_resonant.json", "--res-tol", "1e-5"], 3),
    # 45 sub-resonant positions of degree 2 among n = 8 exact resonances
    ("resonant_n8_c2.enumerate-sr-q2",
     ["enumerate-sr", "resonant_n8_c2.json", "--degree", "2"], 0),
    ("coupled_n3.enumerate-sr-q3", ["enumerate-sr", "coupled_n3.json", "--degree", "3"], 0),
    # germs, not sub-resonant maps: 9 and 89 offenders, listed in canonical order
    ("near_resonant.check-sr", ["check-sr", "near_resonant.json"], 0),
    ("coupled_n3.check-sr", ["check-sr", "coupled_n3.json"], 0),
]


@pytest.mark.parametrize("name, argv, exit_code", CASES, ids=[name for name, _, _ in CASES])
def test_cli_output_is_byte_identical(name, argv, exit_code, capsys):
    code = main([str(DATA / arg) if arg.endswith(".json") else arg for arg in argv])
    out = capsys.readouterr().out
    assert code == exit_code
    assert out == (DATA / "expected" / f"{name}.json").read_text(encoding="utf-8")
