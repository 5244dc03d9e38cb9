"""The benchmark's traced runs keep working.

``perfbench/tracing.py`` wraps the package's functions by name, so renaming
or removing one of them breaks ``perfbench/run.py --trace 1``.  The names are
pinned here, and each workload's traced round must pass its checks.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TRACED = {
    "linalg": ("triangularize", "analyze_spectrum"),
    "polymap": ("compose_truncated", "jet_inverse", "linear_conjugate",
                "PolyJet.evaluate", "PolyJet.__init__"),
    "homological": ("build_matrix", "split_homogeneous"),
    "subresonance": ("certify_subresonant", "sr_compose", "sr_inverse"),
    "normal_form": ("ingest", "conjugate_step", "poincare_dulac",
                    "conjugacy_coefficient_residual", "verify_conjugacy"),
    "gx_group": ("group_mul", "group_inv", "translate_conjugate", "orbit"),
    "germio": ("parse_germ_document", "result_document", "report_document", "dump_json"),
}


@pytest.mark.parametrize("layer", sorted(TRACED))
def test_traced_names_exist(layer):
    module = importlib.import_module(f"srnf.{layer}")
    for name in TRACED[layer]:
        owner, _, attr = name.rpartition(".")
        assert callable(vars(getattr(module, owner)).get(attr) if owner
                        else getattr(module, attr, None)), f"srnf.{layer}.{name}"


@pytest.mark.parametrize("workload", ["wide-operator", "verify", "group"])
def test_traced_round_passes(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
    traced = {f"{layer}.{name}.calls" for layer, names in TRACED.items() for name in names}
    assert traced <= result["metrics"].keys()
