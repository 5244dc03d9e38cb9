import dataclasses
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_jet
from srnf import cli, errors, germio
from srnf.cli import main
from srnf.config import RunConfig
from srnf.errors import ValidationError
from srnf.linalg import analyze_spectrum
from srnf.normal_form import phi_numeric
from srnf.polymap import PolyJet, basis_dimension
from srnf.subresonance import enumerate_subresonant_basis

DATA = Path(__file__).parent / "data"

HOPF_DOC = {
    "dimension": 2,
    "degree": 3,
    "coordinates": "adapted",
    "terms": [
        {"exponents": [1, 0], "component": 1, "coeff": [0.25, 0.0]},
        {"exponents": [1, 1], "component": 1, "coeff": [1.0, 0.0]},
        {"exponents": [0, 2], "component": 1, "coeff": [1.0, 0.0]},
        {"exponents": [0, 1], "component": 2, "coeff": [0.5, 0.0]},
        {"exponents": [2, 0], "component": 2, "coeff": [1.0, 0.0]},
    ],
}


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 4), st.integers(1, 5))
    def test_jet_documents_round_trip_exactly(self, seed, n, degree):
        rng = np.random.default_rng(seed)
        jet = random_jet(rng, n, degree, invertible_linear=bool(rng.integers(2)))
        doc = germio.jet_document(jet)
        text = germio.dump_json(doc)
        parsed = germio.parse_germ_document(json.loads(text))
        assert parsed.jet == jet

    def test_serialization_is_canonical(self):
        jet = PolyJet(2, 2, {((0, 1), 1): 0.5 + 0.25j, ((1, 0), 0): 1 / 3})
        a = germio.dump_json(germio.jet_document(jet))
        b = germio.dump_json(germio.jet_document(PolyJet(2, 2, dict(jet.terms))))
        assert a == b

    def test_linear_matrix_overrides_degree_one_terms(self):
        doc = dict(HOPF_DOC)
        doc["linear_matrix"] = [[[0.125, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        germ = germio.parse_germ_document(doc)
        assert germ.jet.coefficient((1, 0), 0) == 0.125
        assert germ.jet.coefficient((1, 1), 0) == 1.0

    def test_duplicate_keys_rejected(self):
        doc = dict(HOPF_DOC)
        doc = json.loads(json.dumps(doc))
        doc["terms"] = doc["terms"] + [doc["terms"][0]]
        with pytest.raises(ValidationError):
            germio.parse_germ_document(doc)

    def test_bad_component_rejected(self):
        doc = json.loads(json.dumps(HOPF_DOC))
        doc["terms"][0]["component"] = 3
        with pytest.raises(ValidationError):
            germio.parse_germ_document(doc)

    def test_dimension_cap(self):
        with pytest.raises(ValidationError):
            germio.parse_germ_document({"dimension": 40, "degree": 1, "terms": []})


def reference_dump(doc):
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def dump_or_error(dump, doc):
    try:
        return dump(doc)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    except RecursionError:  # where the stack runs out differs by a frame or two
        return RecursionError


scalars = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
           | st.floats(allow_nan=True, allow_infinity=True) | st.text())
documents = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=40)


class TestDumpJson:
    """``dump_json`` writes json's indented text, byte for byte, and raises what json raises."""

    @settings(max_examples=300, deadline=None)
    @given(documents)
    def test_matches_json(self, doc):
        assert dump_or_error(germio.dump_json, doc) == dump_or_error(reference_dump, doc)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.none() | st.booleans() | st.integers() | st.floats(),
                           scalars, max_size=4))
    def test_non_string_keys(self, doc):
        assert dump_or_error(germio.dump_json, doc) == dump_or_error(reference_dump, doc)

    @pytest.mark.parametrize("doc", [
        "quote \" backslash \\ controls \n\t\x00\x1f del \x7f",
        {"é": ["ü", "\u2028", "\U0001f600", "\ud800"]},
        [[], {}, (), [[]], {"a": {}}],
        [np.float64(0.1), np.float64(-0.0), True, False, 1, 1.0, None],
        {"inf": float("inf")}, [float("nan")], {float("-inf"): 1}, [np.float64("-inf")],
        [np.int64(1)], {"a": object()}, {(1, 2): 3}, {"a": 1, 2: 3},
        [1e-320, -0.0, 5e-324, 1.7976931348623157e308, 2**64],
    ])
    def test_edge_cases(self, doc):
        assert dump_or_error(germio.dump_json, doc) == dump_or_error(reference_dump, doc)

    # 400 levels fit json's generators but not plain recursion, which hands over to json
    @pytest.mark.parametrize("depth", [50, 400, 2000])
    def test_deep_nesting(self, depth):
        doc = leaf = {}
        for _ in range(depth):
            leaf["k"] = [{}]
            leaf = leaf["k"][0]
        assert dump_or_error(germio.dump_json, doc) == dump_or_error(reference_dump, doc)

    def test_self_containing_document(self):
        doc = {"a": []}
        doc["a"].append(doc)
        assert dump_or_error(germio.dump_json, doc) == dump_or_error(reference_dump, doc)

    def test_result_document(self):
        doc = json.loads((DATA / "expected" / "near_resonant.normal-form.json").read_text())
        assert germio.dump_json(doc) == reference_dump(doc)


class TestCliNormalForm:
    def test_resonant_example(self, tmp_path, capsys):
        germ = write_doc(tmp_path, "germ.json", HOPF_DOC)
        code, out, err = run_cli(["normal-form", germ], capsys)
        assert code == 0
        doc = json.loads(out)
        terms = doc["normal_form"]["terms"]
        assert len(terms) == 3
        quad = [t for t in terms if t["exponents"] == [0, 2]]
        assert quad and quad[0]["coeff"] == [1.0, 0.0]
        assert doc["residuals"]["coefficient_max"] < 1e-10

    def test_linear_germ(self, tmp_path, capsys):
        doc = {"dimension": 1, "degree": 1, "coordinates": "adapted",
               "terms": [{"exponents": [1], "component": 1, "coeff": [0.5, 0.0]}]}
        germ = write_doc(tmp_path, "lin.json", doc)
        code, out, _ = run_cli(["normal-form", germ], capsys)
        assert code == 0
        result = json.loads(out)
        assert result["residuals"]["coefficient_max"] == 0.0
        assert result["normal_form"]["terms"] == [
            {"exponents": [1], "component": 1, "coeff": [0.5, 0.0]}]

    def test_not_contracting_is_exit_2(self, tmp_path, capsys):
        doc = {"dimension": 1, "degree": 1, "coordinates": "adapted",
               "terms": [{"exponents": [1], "component": 1, "coeff": [1.5, 0.0]}]}
        germ = write_doc(tmp_path, "bad.json", doc)
        code, out, err = run_cli(["normal-form", germ], capsys)
        assert code == 2
        assert "NotContracting" in err

    def test_parse_error_is_exit_2_with_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"dimension\": 2,\n  oops\n}")
        code, out, err = run_cli(["normal-form", str(path)], capsys)
        assert code == 2
        assert "line 3" in err

    def test_determinism_across_runs(self, tmp_path, capsys):
        germ = write_doc(tmp_path, "germ.json", HOPF_DOC)
        _, out1, _ = run_cli(["normal-form", germ, "--seed", "5"], capsys)
        _, out2, _ = run_cli(["normal-form", germ, "--seed", "5"], capsys)
        assert out1 == out2

    def test_numerical_condition_is_exit_3_with_diagnostics(self, tmp_path, capsys):
        germ = write_doc(tmp_path, "germ.json", HOPF_DOC)
        code, out, err = run_cli(["normal-form", germ, "--res-tol", "0.9"], capsys)
        assert code == 3
        doc = json.loads(out)  # document still written, carrying the error
        assert doc["error"]["type"] == "IllConditionedResonance"
        assert "IllConditionedResonance" in err

    def test_output_file(self, tmp_path, capsys):
        germ = write_doc(tmp_path, "germ.json", HOPF_DOC)
        target = tmp_path / "out.json"
        code, out, _ = run_cli(["normal-form", germ, "--output", str(target)], capsys)
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["trunc_degree"] == 3


class TestCliOversizedNumbers:
    """An integer beyond the float range, or beyond Python's digit limit, is
    invalid input (exit 2), wherever a number pair is read."""

    HUGE = 10 ** 400

    def test_germ_coefficient(self, tmp_path, capsys):
        doc = dict(HOPF_DOC, terms=HOPF_DOC["terms"][:-1] + [
            {"exponents": [2, 0], "component": 2, "coeff": [self.HUGE, 0]}])
        code, out, err = run_cli(["normal-form", write_doc(tmp_path, "germ.json", doc)], capsys)
        assert code == 2 and out == ""
        assert "ValidationError" in err and "too large" in err

    def test_linear_matrix_entry(self, tmp_path, capsys):
        doc = dict(HOPF_DOC, linear_matrix=[[[0.25, 0.0], [0.0, self.HUGE]],
                                            [[0.0, 0.0], [0.5, 0.0]]])
        code, out, err = run_cli(["normal-form", write_doc(tmp_path, "germ.json", doc)], capsys)
        assert code == 2 and out == "" and "ValidationError" in err

    def test_translation(self, tmp_path, capsys):
        code, out, err = run_cli(["group", "conjugate-translation", str(DATA / "group_map.json"),
                                  "--tau", f"[[{self.HUGE}, 0], [0, 0], [0, 0]]"], capsys)
        assert code == 2 and out == ""
        assert "ValidationError: --tau[1]" in err

    def test_orbit_point(self, tmp_path, capsys):
        code, out, err = run_cli(["orbit", str(DATA / "group_g1.json"),
                                  "--point", f"[[0, 0], [0, {-self.HUGE}], [0, 0]]"], capsys)
        assert code == 2 and out == "" and "ValidationError: --point[2]" in err

    def test_integer_beyond_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "germ.json"
        path.write_text(json.dumps(HOPF_DOC).replace("0.25", "1" + "0" * 5000))
        code, out, err = run_cli(["normal-form", str(path)], capsys)
        assert code == 2 and out == "" and "ValidationError" in err


class TestCliDegreeRange:
    """A declared degree beyond int64 is invalid input (exit 2), not a traceback:
    exponents are held in int64 arrays."""

    BIG = 2**63

    @pytest.mark.parametrize("command", ["normal-form", "verify", "check-sr", "holonomy"])
    def test_germ_degree(self, tmp_path, capsys, command):
        doc = dict(HOPF_DOC, degree=self.BIG, terms=HOPF_DOC["terms"] + [
            {"exponents": [self.BIG, 0], "component": 2, "coeff": [1e-3, 0.0]}])
        code, out, err = run_cli([command, write_doc(tmp_path, "germ.json", doc)], capsys)
        assert code == 2 and out == ""
        assert "DegreeOutOfRange" in err and str(self.BIG) in err

    def test_group_map_degree(self, tmp_path, capsys):
        doc = json.loads((DATA / "group_g1.json").read_text())
        doc["map"]["degree"] = self.BIG
        path = write_doc(tmp_path, "g.json", doc)
        code, out, err = run_cli(["group", "mul", path, str(DATA / "group_g2.json")], capsys)
        assert code == 2 and out == ""
        assert "DegreeOutOfRange" in err


QUARTER_HALF_DOC = {"dimension": 2, "degree": 1, "coordinates": "adapted",
                    "terms": [{"exponents": [1, 0], "component": 1, "coeff": [0.25, 0.0]},
                              {"exponents": [0, 1], "component": 2, "coeff": [0.5, 0.0]}]}


def refuse(*args):
    raise AssertionError("a refused request must allocate nothing")


def spectrum_doc(moduli):
    n = len(moduli)
    return {"dimension": n, "degree": 1, "coordinates": "adapted",
            "terms": [{"exponents": [int(i == k) for i in range(n)], "component": k + 1,
                       "coeff": [modulus, 0.0]} for k, modulus in enumerate(moduli)]}


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCliSizeLimits:
    @pytest.mark.parametrize("n, q", [(3, 400), (4, 40), (8, 10), (16, 5)])
    def test_enumeration_peak_within_estimate(self, n, q):
        # equal moduli leave nothing sub-resonant above degree 1: only the arrays count
        spectrum = analyze_spectrum(np.diag([0.5] * n).astype(complex))
        basis, peak = traced_peak(lambda: enumerate_subresonant_basis(spectrum, q))
        assert basis == ()
        assert peak <= cli.ENUMERATION_BYTES_PER_POSITION * basis_dimension(n, q)

    @pytest.mark.parametrize("moduli, degree", [([0.25, 0.5], 5_000), ([0.5], 2**62)])
    def test_enumerate_sr_high_degree_low_dimension(self, tmp_path, capsys, moduli, degree):
        # At n <= 2 a large degree passes the size check: the run must stay within it,
        # give or take a MiB of fixed overhead.  A basis built from degree-long rows
        # takes 400 MB at n=2, degree 5000: enough to fail, not to exhaust memory.
        path = write_doc(tmp_path, "spec.json", spectrum_doc(moduli))
        (code, out, err), peak = traced_peak(
            lambda: run_cli(["enumerate-sr", path, "--degree", str(degree)], capsys))
        assert code == 0 and json.loads(out)["count"] == 0
        estimate = cli.ENUMERATION_BYTES_PER_POSITION * basis_dimension(len(moduli), degree)
        assert peak <= estimate + 2**20

    def test_enumerate_sr_degree_past_int64(self, tmp_path, capsys):
        path = write_doc(tmp_path, "spec.json", spectrum_doc([0.5]))
        code, out, err = run_cli(["enumerate-sr", path, "--degree", str(2**63)], capsys)
        assert code == 2 and out == "" and "DegreeOutOfRange" in err and "overflows int64" in err

    @pytest.mark.parametrize("slack, exit_code", [(0, 0), (-1, 2)])
    def test_enumerate_sr_at_the_limit(self, tmp_path, capsys, monkeypatch, slack, exit_code):
        # n=2, degree 3: 8 positions of 24 bytes
        monkeypatch.setattr(cli, "MAX_REQUEST_BYTES",
                            cli.ENUMERATION_BYTES_PER_POSITION * basis_dimension(2, 3) + slack)
        if exit_code:
            monkeypatch.setattr(cli, "enumerate_subresonant_basis", refuse)
        path = write_doc(tmp_path, "spec.json", QUARTER_HALF_DOC)
        code, out, err = run_cli(["enumerate-sr", path, "--degree", "3"], capsys)
        assert code == exit_code
        if exit_code:
            assert out == "" and "ValidationError: the degree-3 basis for n=2 needs 192" in err
        else:
            assert json.loads(out)["count"] == 0

    def test_enumerate_sr_size_limit(self, tmp_path, capsys, monkeypatch):
        # n=16, degree 12: 278 M positions, whose int64 exponents alone take 2.2 GB
        monkeypatch.setattr(cli, "enumerate_subresonant_basis", refuse)
        path = write_doc(tmp_path, "spec.json", spectrum_doc([0.5 + 0.02 * k for k in range(16)]))
        code, out, err = run_cli(["enumerate-sr", path, "--degree", "12"], capsys)
        assert code == 2 and out == ""
        assert "ValidationError" in err and "6.68e+09 bytes" in err

    @pytest.mark.parametrize("command", ["enumerate-sr", "m-matrix"])
    def test_negative_degree(self, tmp_path, capsys, command):
        path = write_doc(tmp_path, "spec.json", QUARTER_HALF_DOC)
        code, out, err = run_cli([command, path, "--degree", "-5"], capsys)
        assert code == 2 and out == "" and "DegreeOutOfRange" in err


class TestCliSubcommands:
    def test_check_sr(self, tmp_path, capsys):
        doc = {"dimension": 2, "degree": 2, "coordinates": "adapted",
               "terms": [{"exponents": [1, 0], "component": 1, "coeff": [0.25, 0.0]},
                         {"exponents": [0, 2], "component": 1, "coeff": [1.0, 0.0]},
                         {"exponents": [0, 1], "component": 2, "coeff": [0.5, 0.0]}]}
        path = write_doc(tmp_path, "map.json", doc)
        code, out, _ = run_cli(["check-sr", path], capsys)
        assert code == 0 and json.loads(out)["certified"] is True

        bad = json.loads(json.dumps(doc))
        bad["terms"].append({"exponents": [2, 0], "component": 2, "coeff": [1.0, 0.0]})
        path = write_doc(tmp_path, "bad_map.json", bad)
        code, out, _ = run_cli(["check-sr", path], capsys)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["certified"] is False
        assert parsed["offenders"] == [{"exponents": [2, 0], "component": 2}]

    def test_enumerate_sr(self, tmp_path, capsys):
        doc = {"dimension": 2, "degree": 1, "coordinates": "adapted",
               "terms": [{"exponents": [1, 0], "component": 1, "coeff": [0.25, 0.0]},
                         {"exponents": [0, 1], "component": 2, "coeff": [0.5, 0.0]}]}
        path = write_doc(tmp_path, "spec.json", doc)
        code, out, _ = run_cli(["enumerate-sr", path, "--degree", "2"], capsys)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["count"] == 1
        assert parsed["basis"] == [{"exponents": [0, 2], "component": 1}]
        code, out, _ = run_cli(["enumerate-sr", path, "--degree", "3"], capsys)
        assert json.loads(out)["count"] == 0

    def test_sr_invert_and_compose(self, tmp_path, capsys):
        doc = {"dimension": 2, "degree": 2, "coordinates": "adapted",
               "terms": [{"exponents": [1, 0], "component": 1, "coeff": [0.25, 0.0]},
                         {"exponents": [0, 2], "component": 1, "coeff": [1.0, 0.0]},
                         {"exponents": [0, 1], "component": 2, "coeff": [0.5, 0.0]}]}
        path = write_doc(tmp_path, "map.json", doc)
        code, out, _ = run_cli(["sr-invert", path], capsys)
        assert code == 0
        inverse = json.loads(out)
        inv_path = write_doc(tmp_path, "inv.json", inverse)
        code, out, _ = run_cli(["sr-compose", path, inv_path], capsys)
        assert code == 0
        composed = json.loads(out)
        assert composed["terms"] == [
            {"exponents": [0, 1], "component": 2, "coeff": [1.0, 0.0]},
            {"exponents": [1, 0], "component": 1, "coeff": [1.0, 0.0]},
        ]

    def test_m_matrix(self, tmp_path, capsys):
        doc = {"dimension": 2, "degree": 1, "coordinates": "adapted",
               "terms": [{"exponents": [1, 0], "component": 1, "coeff": [0.25, 0.0]},
                         {"exponents": [0, 1], "component": 2, "coeff": [0.5, 0.0]}]}
        path = write_doc(tmp_path, "spec.json", doc)
        code, out, _ = run_cli(["m-matrix", path, "--degree", "2"], capsys)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["basis"][0] == {"exponents": [0, 2], "component": 1}
        assert parsed["diagonal"][0] == [0.0, 0.0]  # the resonant position
        dim = len(parsed["basis"])
        assert len(parsed["matrix"]) == dim

    def test_m_matrix_size_limit(self, tmp_path, capsys, monkeypatch):
        # n=16, degree 4: the dense operator would take 61.5 GB
        doc = {"dimension": 16, "degree": 1, "coordinates": "adapted",
               "terms": [{"exponents": [int(i == k) for i in range(16)], "component": k + 1,
                          "coeff": [0.5 + 0.02 * k, 0.0]} for k in range(16)]}
        path = write_doc(tmp_path, "spec.json", doc)

        monkeypatch.setattr(cli, "build_matrix", refuse)
        code, out, err = run_cli(["m-matrix", path, "--degree", "4"], capsys)
        assert code == 2
        assert out == ""
        assert "ValidationError" in err and "6.15e+10 bytes" in err

    def test_group_mul_inv(self, tmp_path, capsys):
        spectrum_matrix = [[[0.25, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        g_doc = {
            "dimension": 2,
            "tau": [[0.1, 0.0], [0.0, -0.2]],
            "map": {"degree": 2, "terms": [
                {"exponents": [1, 0], "component": 1, "coeff": [0.25, 0.0]},
                {"exponents": [0, 2], "component": 1, "coeff": [1.0, 0.0]},
                {"exponents": [0, 1], "component": 2, "coeff": [0.5, 0.0]}]},
            "spectrum_matrix": spectrum_matrix,
        }
        g_path = write_doc(tmp_path, "g.json", g_doc)
        code, out, _ = run_cli(["group", "inv", g_path], capsys)
        assert code == 0
        inv_path = write_doc(tmp_path, "ginv.json", json.loads(out))
        code, out, _ = run_cli(["group", "mul", g_path, inv_path], capsys)
        assert code == 0
        product = json.loads(out)
        assert max(abs(x) for pair in product["tau"] for x in pair) < 1e-10
        nonlinear = [t for t in product["map"]["terms"]
                     if sum(t["exponents"]) > 1 or abs(t["coeff"][0] - 1) > 1e-10]
        assert all(abs(complex(*t["coeff"])) < 1e-10 or
                   (sum(t["exponents"]) == 1 and abs(complex(*t["coeff"]) - 1) < 1e-10)
                   for t in product["map"]["terms"])

    def test_group_conjugate_translation(self, tmp_path, capsys):
        doc = {"dimension": 2, "degree": 2, "coordinates": "adapted",
               "terms": [{"exponents": [1, 0], "component": 1, "coeff": [0.25, 0.0]},
                         {"exponents": [0, 2], "component": 1, "coeff": [1.0, 0.0]},
                         {"exponents": [0, 1], "component": 2, "coeff": [0.5, 0.0]}]}
        path = write_doc(tmp_path, "map.json", doc)
        code, out, _ = run_cli(["group", "conjugate-translation", path,
                                "--tau", "[[0.0, 0.0], [0.3, 0.0]]"], capsys)
        assert code == 0
        parsed = json.loads(out)
        linear_new = [t for t in parsed["terms"] if t["exponents"] == [0, 1]
                      and t["component"] == 1]
        assert linear_new and abs(linear_new[0]["coeff"][0] - 0.6) < 1e-14

    def test_holonomy_and_orbit(self, tmp_path, capsys):
        germ = write_doc(tmp_path, "germ.json", HOPF_DOC)
        code, out, _ = run_cli(["holonomy", germ], capsys)
        assert code == 0
        holonomy = json.loads(out)
        generator = holonomy["generator"]
        assert all(pair == [0.0, 0.0] for pair in generator["tau"])
        gen_path = write_doc(tmp_path, "gen.json", generator)
        code, out, _ = run_cli(["orbit", gen_path, "--point", "[[0.0, 0.0], [1.0, 0.0]]",
                                "--iterations", "3"], capsys)
        assert code == 0
        orbit_doc = json.loads(out)
        assert orbit_doc["points"][1] == [[1.0, 0.0], [0.5, 0.0]]
        assert orbit_doc["points"][2] == [[0.5, 0.0], [0.25, 0.0]]

    def test_verify(self, tmp_path, capsys):
        germ = write_doc(tmp_path, "germ.json", HOPF_DOC)
        code, out, _ = run_cli(["verify", germ, "--sample-count", "5"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["coefficient_max"] < 1e-10
        assert report["straightened_max"] < 1e-8

    def test_verify_unconverged_samples_are_exit_3_with_report(self, tmp_path, capsys):
        germ = write_doc(tmp_path, "germ.json", HOPF_DOC)
        code, out, err = run_cli(["verify", germ, "--p-max", "1"], capsys)
        assert code == 3
        report = json.loads(out)
        assert report["straightened_pointwise"] == [None] * 20
        assert report["straightened_max"] is None
        assert report["coefficient_max"] < 1e-10
        assert "NoConvergence" in err


# (z1 + 0.3 z2^2, z2): sub-resonant for the Hopf spectrum (1/4, 1/2), whose
# degree bound is 2, but its own linear part is not contracting.
UNIPOTENT_DOC = {
    "dimension": 2, "degree": 2, "coordinates": "adapted",
    "terms": [{"exponents": [1, 0], "component": 1, "coeff": [1.0, 0.0]},
              {"exponents": [0, 2], "component": 1, "coeff": [0.3, 0.0]},
              {"exponents": [0, 1], "component": 2, "coeff": [1.0, 0.0]}],
}

SPECTRUM_COMMANDS = {
    "check-sr": ["check-sr", "{map}"],
    "sr-invert": ["sr-invert", "{map}"],
    "sr-compose": ["sr-compose", "{map}", "{map}"],
    "conjugate-translation": ["group", "conjugate-translation", "{map}",
                              "--tau", "[[0.0, 0.0], [0.5, 0.0]]"],
}


def jet_terms(doc):
    return {(tuple(t["exponents"]), t["component"]): complex(*t["coeff"]) for t in doc["terms"]}


class TestCliSpectrumOption:
    """Operands against ``--spectrum`` are taken as given, in adapted coordinates."""

    def run(self, tmp_path, capsys, command, doc):
        path = write_doc(tmp_path, "map.json", doc)
        args = [a.format(map=path) for a in SPECTRUM_COMMANDS[command]]
        return run_cli(args + ["--spectrum", str(DATA / "hopf.json")], capsys)

    @pytest.mark.parametrize("command, expected", [
        ("sr-invert", {((1, 0), 1): 1.0, ((0, 2), 1): -0.3, ((0, 1), 2): 1.0}),
        ("sr-compose", {((1, 0), 1): 1.0, ((0, 2), 1): 0.6, ((0, 1), 2): 1.0}),
        ("conjugate-translation",
         {((1, 0), 1): 1.0, ((0, 2), 1): 0.3, ((0, 1), 1): 0.3, ((0, 1), 2): 1.0}),
    ])
    def test_adapted_operand(self, tmp_path, capsys, command, expected):
        code, out, err = self.run(tmp_path, capsys, command, UNIPOTENT_DOC)
        assert code == 0, err
        terms = jet_terms(json.loads(out))
        assert terms.keys() == expected.keys()
        assert all(abs(terms[k] - v) < 1e-15 for k, v in expected.items())

    def test_check_sr_takes_the_operand_as_given(self, tmp_path, capsys):
        code, out, err = self.run(tmp_path, capsys, "check-sr", UNIPOTENT_DOC)
        assert code == 0, err
        assert json.loads(out) == {
            "certified": True, "offenders": [],
            "basis_change": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
        bad = json.loads(json.dumps(UNIPOTENT_DOC))
        bad["terms"].append({"exponents": [2, 0], "component": 2, "coeff": [1.0, 0.0]})
        code, out, _ = self.run(tmp_path, capsys, "check-sr", bad)
        assert code == 0
        assert json.loads(out)["certified"] is False
        assert json.loads(out)["offenders"] == [{"exponents": [2, 0], "component": 2}]

    @pytest.mark.parametrize("command", sorted(SPECTRUM_COMMANDS))
    def test_original_operand_is_exit_2(self, tmp_path, capsys, command):
        doc = dict(HOPF_DOC, degree=2, coordinates="original")
        doc["terms"] = [t for t in HOPF_DOC["terms"] if sum(t["exponents"]) <= 2]
        code, out, err = self.run(tmp_path, capsys, command, doc)
        assert code == 2 and out == ""
        assert "ValidationError" in err and "adapted coordinates" in err


class TestExitCodes:
    def test_every_error_class_has_one_exit_code(self):
        expected = {
            errors.ValidationError: 2, errors.NotContracting: 2, errors.NotTriangular: 2,
            errors.SingularLinearPart: 2, errors.SpectrumMismatch: 2,
            errors.DimensionMismatch: 2, errors.DegreeOutOfRange: 2,
            errors.IllConditionedResonance: 3, errors.NoConvergence: 3,
            errors.CertificationFailure: 3,
        }
        classes = {c for c in vars(errors).values() if isinstance(c, type)
                   and issubclass(c, errors.SrnfError) and c is not errors.SrnfError}
        assert classes == set(expected)
        for cls, code in expected.items():
            assert (cls in cli._INPUT_ERRORS) != (cls in cli._NUMERICAL_ERRORS)
            assert (cls in cli._INPUT_ERRORS) == (code == 2)


class TestConsoleEntry:
    def test_module_invocation_byte_identical(self, tmp_path):
        germ = tmp_path / "germ.json"
        germ.write_text(json.dumps(HOPF_DOC))
        cmd = [sys.executable, "-m", "srnf", "normal-form", str(germ), "--seed", "3"]
        # the package from this checkout, installed or not
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        first = subprocess.run(cmd, capture_output=True, env=env)
        second = subprocess.run(cmd, capture_output=True, env=env)
        assert first.returncode == 0
        assert first.stdout == second.stdout


def test_defaults_come_from_run_config():
    args = cli._config_parser().parse_args([])
    for field in dataclasses.fields(RunConfig):
        assert getattr(args, field.name) == field.default, field.name
    for function, names in ((germio.parse_group_element, ("block_tol", "sr_tol")),
                            (phi_numeric, ("p_max", "cauchy_tol"))):
        parameters = inspect.signature(function).parameters
        assert all(parameters[name].default == getattr(RunConfig, name) for name in names)
