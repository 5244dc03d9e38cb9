import dataclasses
import inspect
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    coefficient,
    element_document,
    jet_document,
    linear_matrix_json,
    random_jet,
    translation_document,
)
from srnf import (
    cli,
    config,
    errors,
    germio,
    gx_group,
    homological,
    linalg,
    normal_form,
    polymap,
    subresonance,
)
from srnf.cli import main
from srnf.config import RunConfig
from srnf.errors import ValidationError
from srnf.gx_group import GroupElement
from srnf.homological import split_homogeneous
from srnf.linalg import analyze_spectrum
from srnf.polymap import PolyJet, basis_dimension
from srnf.subresonance import certify_subresonant, enumerate_subresonant_basis

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
        doc = jet_document(jet)
        text = germio.dump_json(doc)
        parsed = germio.parse_germ_document(json.loads(text))
        assert parsed.jet == jet

    def test_serialization_is_canonical(self):
        jet = PolyJet(2, 2, {((0, 1), 1): 0.5 + 0.25j, ((1, 0), 0): 1 / 3})
        a = germio.dump_json(jet_document(jet))
        b = germio.dump_json(jet_document(PolyJet(2, 2, dict(jet.terms))))
        assert a == b

    def test_linear_matrix_overrides_degree_one_terms(self):
        doc = dict(HOPF_DOC)
        doc["linear_matrix"] = [[[0.125, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        germ = germio.parse_germ_document(doc)
        assert coefficient(germ.jet, (1, 0), 0) == 0.125
        assert coefficient(germ.jet, (1, 1), 0) == 1.0

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
        _, out1, _ = run_cli(["normal-form", germ], capsys)
        _, out2, _ = run_cli(["normal-form", germ], capsys)
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
        doc = json.loads((DATA / "group_g1.json").read_text())
        doc["tau"][0] = [self.HUGE, 0]
        path = write_doc(tmp_path, "g.json", doc)
        code, out, err = run_cli(["group", "inv", path], capsys)
        assert code == 2 and out == ""
        assert f"ValidationError: {path}: tau[1]" in err

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


class TestCliOverflow:
    """Finite input whose arithmetic leaves the float range ends in an exit
    code and a message, not a traceback."""

    POINT = "[[0.01, 0], [0.01, 0], [0.01, 0]]"
    SHIFT_OVERFLOW = "shifted composition would overflow: |shift| = 1e+200 at degree 4"
    POINTWISE_OVERFLOW = "the pointwise residual check at radius 0.05 left the float range"

    def test_orbit_leaving_the_float_range_is_exit_3(self, capsys):
        # the z3 coefficient of group_g1's map has modulus 1.2
        code, out, err = run_cli(["orbit", str(DATA / "group_g1.json"), "--point", self.POINT,
                                  "--iterations", "1000"], capsys)
        message = "the orbit left the float range at step 986 of 1000"
        assert code == 3
        assert json.loads(out) == {"error": {"type": "NoConvergence", "message": message}}
        assert err == f"NoConvergence: {message}\n"

    @pytest.mark.parametrize("command", ["mul", "inv", "conjugate-translation"])
    def test_shifted_composition_past_the_float_range_is_exit_2(self, tmp_path, capsys,
                                                                command):
        big = [[1e200, 0.0]] * 3
        doc = json.loads((DATA / ("group_g2.json" if command == "inv" else
                                  "group_g1.json")).read_text())
        path = write_doc(tmp_path, "g.json", dict(doc, tau=big))
        paths = self.overflow_documents(tmp_path)
        argv = {"mul": ["mul", str(DATA / "group_g1.json"), path],
                "inv": ["inv", path],
                # (0, h) (tau, id), whose map part conjugates h by the translation
                "conjugate-translation": ["mul", paths["h"], paths["translation"]]}[command]
        code, out, err = run_cli(["group", *argv], capsys)
        assert code == 2 and out == ""
        assert err == ("ValidationError: shifted composition would overflow: "
                       "|shift| = 1e+200 at degree 4\n")

    @staticmethod
    def overflow_documents(tmp_path):
        """Finite documents whose arithmetic overflows: germs whose nonlinear
        coefficients are scaled up (the Hopf germ's to 1e160 or 3e153, which
        overflow in the degree-3 error or its split, and ``resonant_n2_c7``'s by
        1e52, which overflows only in the residual check), the germ with linear
        part diag(1e-8, 0.5) (c0 = 27), whose Phi reaches 2.6e202 and overflows
        at the pointwise samples, the same germ with diag(2e-9, 0.5), whose
        amplification estimate |l_1|^-p_used overflows once the straightening
        takes 36 steps, ``group_g2`` at the origin with 1e200
        coefficients of degree 3 and 4 (its points stay finite, their norms do
        not), ``group_g1`` translated by 1e200, and the elements ``(0, h)`` of
        ``group_map``'s map ``h`` and ``(tau, id)`` with ``tau`` at 1e200."""
        def scaled(name, factor):
            doc = json.loads((DATA / name).read_text())
            doc["terms"] = [dict(t, coeff=[factor * c for c in t["coeff"]])
                            if sum(t["exponents"]) > 1 else t for t in doc["terms"]]
            return write_doc(tmp_path, f"{factor}-{name}", doc)

        def coupled(l1, name):
            doc = spectrum_doc([l1, 0.5])
            doc["degree"] = 2
            doc["terms"] += [{"exponents": [1, 1], "component": 1, "coeff": [0.3, 0.0]},
                             {"exponents": [0, 2], "component": 2, "coeff": [0.2, 0.0]}]
            return write_doc(tmp_path, name, doc)

        g2 = json.loads((DATA / "group_g2.json").read_text())
        g2["tau"] = [[0.0, 0.0]] * 3
        g2["map"]["terms"] = [dict(t, coeff=[1e200, 0.0]) if sum(t["exponents"]) > 2 else t
                              for t in g2["map"]["terms"]]
        g1 = json.loads((DATA / "group_g1.json").read_text())
        h = json.loads((DATA / "group_map.json").read_text())
        return {"germ": scaled("hopf.json", 1e160), "split": scaled("hopf.json", 3e153),
                "residual": scaled("resonant_n2_c7.json", 1e52),
                "tiny": coupled(1e-8, "tiny.json"),
                "amplification": coupled(2e-9, "amplification.json"),
                "norms": write_doc(tmp_path, "norms.json", g2),
                "shift": write_doc(tmp_path, "shift.json", dict(g1, tau=[[1e200, 0.0]] * 3)),
                "g1": str(DATA / "group_g1.json"),
                "h": write_doc(tmp_path, "h.json", element_document(h)),
                "translation": write_doc(tmp_path, "translation.json", translation_document(
                    [[1e200, 0.0]] * 3, linear_matrix_json(h)))}

    @pytest.mark.parametrize("argv, exit_code, message", [
        (["normal-form", "{germ}"], 3, "the normal form left the float range at degree 3 of 3"),
        (["verify", "{germ}"], 3, "the normal form left the float range at degree 3 of 3"),
        (["holonomy", "{germ}"], 3, "the normal form left the float range at degree 3 of 3"),
        (["normal-form", "{split}"], 3, "the normal form left the float range at degree 3 of 3"),
        (["verify", "{residual}"], 3, "the residual check through degree 8 left the float range"),
        (["orbit", "{norms}", "--point", "[[0.1, 0], [0.1, 0], [0.1, 0]]", "--iterations", "1"],
         3, "the orbit left the float range at step 1 of 1"),
        # nothing is sampled beyond the orbit: zero steps of that element stay in range
        (["orbit", "{norms}", "--point", POINT, "--iterations", "0"], 0, None),
        (["orbit", "{g1}", "--point", POINT, "--iterations", "1000"],
         3, "the orbit left the float range at step 986 of 1000"),
        (["orbit", "{shift}", "--point", POINT, "--iterations", "1"],
         3, "the orbit left the float range at step 1 of 1"),
        (["group", "mul", "{g1}", "{shift}"], 2, SHIFT_OVERFLOW),
        (["group", "inv", "{shift}"], 2, SHIFT_OVERFLOW),
        (["group", "mul", "{h}", "{translation}"], 2, SHIFT_OVERFLOW),
        # the normal form draws no samples: only verify's overflow at them
        (["normal-form", "{tiny}"], 0, None),
        (["holonomy", "{tiny}"], 0, None),
        (["verify", "{tiny}"], 3, POINTWISE_OVERFLOW),
        (["verify", "{amplification}", "--sample-radius", "1e-6", "--p-max", "100",
          "--cauchy-tol", "1e-300"],
         3, "the amplification estimate |l_1|^-p_used left the float range at p_used = 39"),
    ])
    @pytest.mark.filterwarnings("error")   # an overflow is refused, not warned about
    def test_overflow_is_an_exit_code_not_a_traceback(self, tmp_path, capsys, argv, exit_code,
                                                      message):
        paths = self.overflow_documents(tmp_path)
        code, out, err = run_cli([arg.format(**paths) for arg in argv], capsys)
        if exit_code == 0:
            assert code == 0 and err == "" and "error" not in json.loads(out)
            return
        kind = "NoConvergence" if exit_code == 3 else "ValidationError"
        assert code == exit_code and err == f"{kind}: {message}\n"
        if code == 3:
            assert json.loads(out) == {"error": {"type": kind, "message": message}}
        else:
            assert out == ""

    @pytest.mark.parametrize("command", ["normal-form", "holonomy", "verify"])
    def test_pointwise_check_inside_the_float_range(self, tmp_path, capsys, command):
        # verify: the samples of the overflowing germ above, taken closer to the
        # origin; normal-form and holonomy take no samples and write the Phi
        # whose 2.6e202 coefficient makes verify's samples overflow at radius 0.05
        tiny = self.overflow_documents(tmp_path)["tiny"]
        radius = ["--sample-radius", "1e-6"] if command == "verify" else []
        code, out, err = run_cli([command, tiny, *radius], capsys)
        assert code == 0 and err == ""
        if command != "verify":
            doc = json.loads(out)
            phi = doc.get("result", doc)["phi"]["terms"]
            assert 2.5e202 < max(abs(complex(*t["coeff"])) for t in phi) < 2.7e202

    @pytest.mark.parametrize("argv, key", [
        (["group", "inv", "{h}"], "((0, 0, 3), 0)"),
        (["group", "mul", "{h}", "{h}"], "((0, 0, 3), 0)"),
        (["group", "inv", "{g2}"], "((0, 0, 3), 0)"),
        (["group", "mul", "{g2}", "{g2}"], "((0, 0, 2), 0)"),
    ])
    def test_group_arithmetic_past_the_float_range_is_exit_3(self, tmp_path, capsys, argv,
                                                             key):
        """``(0, h)`` for ``group_map``'s map ``h``, and ``group_g2``, with their
        maps' nonlinear coefficients scaled by 1e157: the inverse or product makes
        an infinite coefficient."""
        g2 = json.loads((DATA / "group_g2.json").read_text())
        doc = json.loads((DATA / "group_map.json").read_text())
        for terms in (g2["map"]["terms"], doc["terms"]):
            terms[:] = [dict(t, coeff=[1e157 * c for c in t["coeff"]])
                        if sum(t["exponents"]) > 1 else t for t in terms]
        paths = {"h": write_doc(tmp_path, "h.json", element_document(doc)),
                 "g2": write_doc(tmp_path, "g2.json", g2)}
        code, out, err = run_cli([arg.format(**paths) for arg in argv], capsys)
        message = f"non-finite coefficient at {key}"
        assert code == 3 and err == f"NonFiniteCoefficient: {message}\n"
        assert json.loads(out) == {"error": {"type": "NonFiniteCoefficient", "message": message}}


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

    def test_enumerate_sr_size_past_float_range(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "enumerate_subresonant_basis", refuse)
        path = write_doc(tmp_path, "spec.json", spectrum_doc([0.5 + 0.02 * k for k in range(16)]))
        code, out, err = run_cli(["enumerate-sr", path, "--degree", str(10**30)], capsys)
        assert code == 2 and out == "" and "needs more than 1e+300 bytes" in err

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

    @pytest.mark.parametrize("degree, message", [
        ("100000", "ValidationError: the split through degree 100000 for n=2 needs 1e+10 "
                   "positions, above the normal form limit of 33554432 positions"),
        (str(2**63), "DegreeOutOfRange: truncation degree must be in 1..2**63 - 1")])
    def test_normal_form_degree_past_the_limit(self, tmp_path, capsys, monkeypatch, degree,
                                               message):
        # the working degree c0 + 1 = 100000 of l_1 = 1/2, |l_2| = 2^(-1/99998.5), and
        # the declared degree of a germ document
        degree = int(degree)
        doc = (spectrum_doc([0.5, 0.5 ** (1 / (degree - 1.5))]) if degree < 2**63
               else dict(HOPF_DOC, degree=degree))
        path = write_doc(tmp_path, "germ.json", doc)
        monkeypatch.setattr(normal_form, "_PowerTable", refuse)
        start = time.perf_counter()
        code, out, err = run_cli(["normal-form", path], capsys)
        kind, reason = message.split(": ", 1)
        assert code == 2 and out == "" and err.startswith(f"{kind}: ") and reason in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("command", ["normal-form", "verify", "check-sr"])
    def test_conjugation_past_the_limit(self, tmp_path, capsys, monkeypatch, command):
        # n = 16 in original coordinates, c0 = 9, one degree-10 term: its conjugation
        # would fill 52.3 M positions, and it is refused before it starts
        doc = spectrum_doc([0.6 ** 9] + [0.6] * 15)
        doc.update(coordinates="original", degree=10)
        doc["terms"].append({"exponents": [10] + [0] * 15, "component": 1, "coeff": [1.0, 0.0]})
        path = write_doc(tmp_path, "germ.json", doc)
        monkeypatch.setattr(normal_form, "linear_conjugate", refuse)
        start = time.perf_counter()
        code, out, err = run_cli([command, path], capsys)
        assert code == 2 and out == "" and err == (
            f"ValidationError: {path}: the conjugation through degree 10 for n=16 needs "
            f"8.5e+07 positions, above the ingest limit of 4194304 positions\n")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n, iterations", [(2, 1000), (16, 200)])
    def test_orbit_peak_within_estimate(self, tmp_path, capsys, n, iterations):
        diag = [0.3 + 0.02 * k for k in range(n)]
        doc = {"dimension": n, "tau": [[0.1, -0.05]] * n,
               "spectrum_matrix": [[[diag[i] if i == j else 0.0, 0.0] for j in range(n)]
                                   for i in range(n)],
               "map": {"degree": 1, "terms": spectrum_doc(diag)["terms"]}}
        path = write_doc(tmp_path, "g.json", doc)
        point = json.dumps([[0.3, 0.2]] * n)

        def peak(k):
            (code, _, _), peak = traced_peak(lambda: run_cli(
                ["orbit", path, "--point", point, "--iterations", str(k),
                 "--output", str(tmp_path / "orbit.json")], capsys))
            assert code == 0
            return peak

        # the peak grows by at most the estimate per point, over a fixed MiB
        small, large = peak(iterations), peak(5 * iterations)
        assert large - small <= cli.ORBIT_BYTES_PER_COORDINATE * 4 * iterations * n
        assert large <= cli.ORBIT_BYTES_PER_COORDINATE * (5 * iterations + 1) * n + 2**20

    @pytest.mark.parametrize("slack, exit_code", [(0, 0), (-1, 2)])
    def test_orbit_at_the_limit(self, capsys, monkeypatch, slack, exit_code):
        # n=3, 10 iterations: 11 points of 3 coordinates
        monkeypatch.setattr(cli, "MAX_REQUEST_BYTES",
                            cli.ORBIT_BYTES_PER_COORDINATE * 11 * 3 + slack)
        if exit_code:
            monkeypatch.setattr(GroupElement, "evaluate", refuse)
        code, out, err = run_cli(["orbit", str(DATA / "group_g1.json"), "--point",
                                  "[[0.01, 0], [0.01, 0], [0.01, 0]]", "--iterations", "10"],
                                 capsys)
        assert code == exit_code
        if exit_code:
            assert out == "" and err.startswith(
                "ValidationError: an orbit of 10 iterations for n=3 needs 1.58e+04 bytes, "
                "above the orbit limit of 15839 bytes")
        else:
            assert len(json.loads(out)["points"]) == 11

    @pytest.mark.parametrize("slack, exit_code", [(0, 0), (-1, 2)])
    @pytest.mark.parametrize("command", ["verify"])
    def test_sample_count_at_the_limit(self, capsys, monkeypatch, command, slack, exit_code):
        # the Hopf germ, n=2, with its default 20 samples; only verify draws samples
        monkeypatch.setattr(normal_form, "MAX_REQUEST_BYTES",
                            normal_form.SAMPLE_BYTES_PER_COORDINATE * 20 * 2 + slack)
        if exit_code:   # refused before the normal form
            monkeypatch.setattr(cli, "_poincare_dulac", refuse)
            monkeypatch.setattr(normal_form, "_sample_points", refuse)
        code, out, err = run_cli([command, str(DATA / "hopf.json")], capsys)
        assert code == exit_code
        if exit_code:
            assert out == "" and err == (
                "ValidationError: a sample count of 20 for n=2 needs 5.6e+04 bytes, "
                "above the verify limit of 55999 bytes\n")

    def test_sample_count_past_the_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_poincare_dulac", refuse)
        monkeypatch.setattr(normal_form, "_sample_points", refuse)
        code, out, err = run_cli(["verify", str(DATA / "hopf.json"), "--sample-count",
                                  "200000"], capsys)
        assert code == 2 and out == "" and "a sample count of 200000 for n=2" in err

    @pytest.mark.parametrize("n, samples", [(2, 400), (16, 60)])
    def test_verification_peak_within_estimate(self, tmp_path, capsys, n, samples):
        diag = [0.5 + 0.005 * k for k in range(n)]
        doc = spectrum_doc(diag)
        doc["degree"] = 2
        doc["terms"] += [{"exponents": [int(i in (k, (k + 1) % n)) for i in range(n)],
                          "component": k + 1, "coeff": [0.3, 0.1]} for k in range(n)]
        path = write_doc(tmp_path, "germ.json", doc)

        def peak(m):
            (code, _, _), peak = traced_peak(lambda: run_cli(
                ["verify", path, "--sample-count", str(m), "--output",
                 str(tmp_path / "report.json")], capsys))
            assert code == 0
            return peak

        # the peak grows by at most the estimate per sample coordinate, over a fixed MiB
        small, large = peak(samples), peak(5 * samples)
        assert large - small <= normal_form.SAMPLE_BYTES_PER_COORDINATE * 4 * samples * n
        assert large <= normal_form.SAMPLE_BYTES_PER_COORDINATE * 5 * samples * n + 2**20

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

    # (z1/4 + z2^2, z2/2), the Hopf normal form
    HOPF_MAP_DOC = {
        "dimension": 2, "degree": 2, "coordinates": "adapted",
        "terms": [{"exponents": [1, 0], "component": 1, "coeff": [0.25, 0.0]},
                  {"exponents": [0, 2], "component": 1, "coeff": [1.0, 0.0]},
                  {"exponents": [0, 1], "component": 2, "coeff": [0.5, 0.0]}],
    }

    def test_sr_invert_and_compose(self, tmp_path, capsys):
        path = write_doc(tmp_path, "h.json", element_document(self.HOPF_MAP_DOC))
        code, out, _ = run_cli(["group", "inv", path], capsys)
        assert code == 0
        inv_path = write_doc(tmp_path, "inv.json", json.loads(out))
        code, out, _ = run_cli(["group", "mul", path, inv_path], capsys)
        assert code == 0
        composed = json.loads(out)
        assert composed["tau"] == [[0.0, 0.0], [0.0, 0.0]]
        assert composed["map"]["terms"] == [
            {"exponents": [0, 1], "component": 2, "coeff": [1.0, 0.0]},
            {"exponents": [1, 0], "component": 1, "coeff": [1.0, 0.0]},
        ]

    def test_sr_compose_original_second_operand_is_exit_2(self, tmp_path, capsys):
        # a group element's map is taken as given against its spectrum_matrix
        first = write_doc(tmp_path, "first.json", element_document(self.HOPF_MAP_DOC))
        second = write_doc(tmp_path, "second.json", dict(element_document(self.HOPF_MAP_DOC),
                                                         coordinates="original"))
        code, out, err = run_cli(["group", "mul", first, second], capsys)
        assert code == 2 and out == ""
        assert err == (f"ValidationError: {second}: a group element's map must be in "
                       "adapted coordinates\n")

    @staticmethod
    def not_subresonant_element(tmp_path):
        """``group_g1.json`` with the term ``z1^2 e3``, which fails certification."""
        g_doc = json.loads((DATA / "group_g1.json").read_text())
        g_doc["map"]["terms"].append(
            {"exponents": [2, 0, 0], "component": 3, "coeff": [1.0, 0.0]})
        return write_doc(tmp_path, "bad.json", g_doc)

    def test_group_element_not_subresonant_is_exit_2(self, tmp_path, capsys, monkeypatch):
        path = self.not_subresonant_element(tmp_path)
        calls = []

        def spy(*args):
            calls.append(args[-1])
            return certify_map(*args)

        certify_map = germio.certify_map
        monkeypatch.setattr(germio, "certify_map", spy)
        code, out, err = run_cli(["group", "inv", path], capsys)
        assert code == 2 and out == "" and calls == ["'map'"]
        assert err == (f"ValidationError: {path}: 'map': map is not sub-resonant for the "
                       "reference spectrum; offenders: [((2, 0, 0), 2)]\n")

    @pytest.mark.parametrize("bad_first", [True, False])
    def test_group_mul_refusal_names_the_operand(self, tmp_path, capsys, bad_first):
        bad, good = self.not_subresonant_element(tmp_path), str(DATA / "group_g1.json")
        code, out, err = run_cli(["group", "mul", *((bad, good) if bad_first else (good, bad))],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"ValidationError: {bad}: 'map': map is not sub-resonant")
        assert good not in err

    def test_orbit_refusal_names_the_element(self, tmp_path, capsys):
        bad = self.not_subresonant_element(tmp_path)
        code, out, err = run_cli(["orbit", bad, "--point", "[[0.1, 0], [0.1, 0], [0.1, 0]]"],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"ValidationError: {bad}: 'map': map is not sub-resonant")

    @staticmethod
    def with_degree_9_term(tmp_path):
        """``group_map.json`` with a term above its declared degree 4."""
        doc = json.loads((DATA / "group_map.json").read_text())
        doc["terms"].append({"exponents": [9, 0, 0], "component": 1, "coeff": [1.0, 0.0]})
        return write_doc(tmp_path, "bad.json", doc)

    # the second and the first factor of a product (0, h) (0, h), and check-sr's map
    @pytest.mark.parametrize("command", ["sr-compose-second", "sr-compose-first", "check-sr"])
    def test_map_refusal_names_the_document(self, tmp_path, capsys, command):
        bad = self.with_degree_9_term(tmp_path)
        if command == "check-sr":
            argv, where = ["check-sr", bad], "germ"
        else:
            good = write_doc(tmp_path, "good.json", element_document(
                json.loads((DATA / "group_map.json").read_text())))
            bad = write_doc(tmp_path, "bad-element.json",
                            element_document(json.loads(Path(bad).read_text())))
            argv, where = ["group", "mul", *((good, bad) if command == "sr-compose-second"
                                             else (bad, good))], "map"
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err == (f"ValidationError: {bad}: {where}: term 12: degree 9 exceeds "
                       "declared degree 4\n")

    @pytest.mark.parametrize("defect, error", [
        ("not contracting", "NotContracting"), ("singular map part", "SingularLinearPart")])
    def test_group_element_refusal_names_the_document(self, tmp_path, capsys, defect, error):
        doc = json.loads((DATA / "group_g1.json").read_text())
        if defect == "not contracting":
            doc["spectrum_matrix"][2][2] = [1.5, 0.0]
        else:   # without its z3 e3 term the map part is singular
            doc["map"]["terms"] = [t for t in doc["map"]["terms"]
                                   if (t["exponents"], t["component"]) != ([0, 0, 1], 3)]
        path = write_doc(tmp_path, "bad.json", doc)
        code, out, err = run_cli(["group", "inv", path], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"{error}: {path}: ")

    def test_unknown_coordinates_is_exit_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, "germ.json", dict(HOPF_DOC, coordinates="sideways"))
        code, out, err = run_cli(["normal-form", path], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"ValidationError: {path}: coordinates must be one of")

    @pytest.mark.parametrize("argv, where, rename", [
        (["group", "inv"], "group element document", ("tau", "translation")),
        (["group", "inv"], "'map'", ("terms", "term")),
        (["normal-form"], "germ document", ("coordinates", "coordinate")),
        (["check-sr"], "germ document", ("linear_matrix", "linear")),
    ])
    def test_unknown_key_is_exit_2(self, tmp_path, capsys, argv, where, rename):
        # a misspelled optional key is refused, not read as absent
        old, new = rename
        if argv[0] == "group":
            doc = json.loads((DATA / "group_g1.json").read_text())
            target = doc["map"] if where == "'map'" else doc
        else:
            doc = target = json.loads((DATA / "coupled_n3_original.json").read_text())
        target[new] = target.pop(old)
        path = write_doc(tmp_path, "bad.json", doc)
        code, out, err = run_cli([*argv, path], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"ValidationError: {path}: {where}: unknown key {new!r}; "
                              "expected keys are ")

    def test_check_sr_dimension_mismatch_names_both_documents(self, capsys):
        hopf, coupled = str(DATA / "hopf.json"), str(DATA / "coupled_n3.json")
        code, out, err = run_cli(["check-sr", hopf, "--spectrum", coupled], capsys)
        assert code == 2 and out == ""
        assert err == (f"DimensionMismatch: {hopf}: dimension 2 does not match n=3 of the "
                       f"spectrum of {coupled}\n")

    @pytest.mark.parametrize("command", ["normal-form", "verify", "holonomy"])
    def test_germ_refusal_names_the_document(self, tmp_path, capsys, command):
        doc = json.loads((DATA / "hopf.json").read_text())
        doc["terms"].append({"exponents": [9, 0], "component": 1, "coeff": [1.0, 0.0]})
        path = write_doc(tmp_path, "bad.json", doc)
        code, out, err = run_cli([command, path], capsys)
        assert code == 2 and out == ""
        assert err == (f"ValidationError: {path}: germ: term 6: degree 9 exceeds "
                       "declared degree 3\n")

    @pytest.mark.parametrize("command", ["normal-form", "verify", "holonomy"])
    def test_germ_not_contracting_names_the_document(self, tmp_path, capsys, command):
        doc = json.loads((DATA / "hopf.json").read_text())
        for term in doc["terms"]:
            if term["exponents"] == [0, 1] and term["component"] == 2:
                term["coeff"] = [1.5, 0.0]
        path = write_doc(tmp_path, "bad.json", doc)
        code, out, err = run_cli([command, path], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"NotContracting: {path}: ")

    @pytest.mark.parametrize("command", ["normal-form", "verify", "holonomy"])
    def test_adapted_moduli_out_of_order_are_refused(self, tmp_path, capsys, command):
        # diag(0.6, 0.5) breaks the modulus order that c0 and the degree bound
        # are read from; in original coordinates it is sorted to diag(0.5, 0.6)
        doc = spectrum_doc([0.6, 0.5])
        path = write_doc(tmp_path, "adapted.json", doc)
        code, out, err = run_cli([command, path], capsys)
        assert code == 2 and out == ""
        assert err == (f"ValidationError: {path}: diagonal moduli must be nondecreasing; "
                       "re-run triangularize first\n")
        path = write_doc(tmp_path, "original.json", dict(doc, coordinates="original"))
        code, out, _ = run_cli(["normal-form", path], capsys)
        spectrum = json.loads(out)["spectrum"]
        assert code == 0 and (spectrum["c0"], spectrum["degree_bound"]) == (2, 1)
        assert spectrum["blocks"] == [[1], [2]]

    @pytest.mark.parametrize("argv", [
        ["enumerate-sr", "{original}", "--degree", "3"],
        ["m-matrix", "{original}", "--degree", "2"],
        ["check-sr", "{adapted}", "--spectrum", "{original}"],
    ], ids=["enumerate-sr", "m-matrix", "check-sr"])
    def test_spectrum_commands_do_not_conjugate_the_germ(self, capsys, monkeypatch, argv):
        # the bytes are those of the fully ingested germ's spectrum, with no
        # nonlinear term moved to adapted coordinates
        paths = {"original": str(DATA / "coupled_n3_original.json"),
                 "adapted": str(DATA / "coupled_n3.json")}
        argv = [arg.format(**paths) for arg in argv]

        def ingested_frame(germ):
            spectrum, _, Q = normal_form.ingest(germ)
            return spectrum, Q

        def forbidden(*args, **kwargs):
            raise AssertionError("linear_conjugate was called")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "germ_frame", ingested_frame)
            expected = run_cli(argv, capsys)
        assert expected[0] == 0
        monkeypatch.setattr(normal_form, "linear_conjugate", forbidden)
        assert run_cli(argv, capsys) == expected

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
        # (0, h) (tau, id) has the map part z -> h(z + tau) - h(tau)
        doc = TestCliSubcommands.HOPF_MAP_DOC
        h = write_doc(tmp_path, "h.json", element_document(doc))
        translation = write_doc(tmp_path, "tau.json", translation_document(
            [[0.0, 0.0], [0.3, 0.0]], linear_matrix_json(doc)))
        code, out, _ = run_cli(["group", "mul", h, translation], capsys)
        assert code == 0
        parsed = json.loads(out)
        linear_new = [t for t in parsed["map"]["terms"] if t["exponents"] == [0, 1]
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

    @pytest.mark.parametrize("germ, flags", [
        ("hopf.json", []), ("hopf.json", ["--no-prune"]),
        ("near_resonant.json", ["--res-tol", "1e-8"])])
    def test_holonomy_result_is_the_normal_form_document(self, capsys, germ, flags):
        path = str(DATA / germ)
        code, out, _ = run_cli(["normal-form", path, *flags], capsys)
        assert code == 0
        code, holonomy, _ = run_cli(["holonomy", path, *flags], capsys)
        assert code == 0
        holonomy = json.loads(holonomy)
        assert holonomy["result"] == json.loads(out)
        assert holonomy["generator"]["map"]["terms"] == holonomy["result"]["normal_form"]["terms"]

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

# Each command on a map h against the Hopf spectrum: check-sr with --spectrum,
# and on the element (0, h) its inverse, its square and its product with the
# translation (tau, id), tau = (0, 0.5).
SPECTRUM_COMMANDS = {
    "check-sr": ["check-sr", "{map}", "--spectrum", str(DATA / "hopf.json")],
    "sr-invert": ["group", "inv", "{h}"],
    "sr-compose": ["group", "mul", "{h}", "{h}"],
    "conjugate-translation": ["group", "mul", "{h}", "{tau}"],
}


def jet_terms(doc):
    return {(tuple(t["exponents"]), t["component"]): complex(*t["coeff"]) for t in doc["terms"]}


class TestCliSpectrumOption:
    """A map against a spectrum it does not fix, ``check-sr``'s ``--spectrum``
    or a group element's ``spectrum_matrix``, is taken as given, in adapted
    coordinates."""

    def run(self, tmp_path, capsys, command, doc):
        hopf = linear_matrix_json(json.loads((DATA / "hopf.json").read_text()))
        paths = {"map": write_doc(tmp_path, "map.json", doc),
                 "h": write_doc(tmp_path, "h.json", dict(element_document(doc, hopf),
                                                          coordinates=doc["coordinates"])),
                 "tau": write_doc(tmp_path, "tau.json",
                                  translation_document([[0.0, 0.0], [0.5, 0.0]], hopf))}
        return run_cli([a.format(**paths) for a in SPECTRUM_COMMANDS[command]], capsys)

    @pytest.mark.parametrize("command, expected", [
        ("sr-invert", {((1, 0), 1): 1.0, ((0, 2), 1): -0.3, ((0, 1), 2): 1.0}),
        ("sr-compose", {((1, 0), 1): 1.0, ((0, 2), 1): 0.6, ((0, 1), 2): 1.0}),
        ("conjugate-translation",
         {((1, 0), 1): 1.0, ((0, 2), 1): 0.3, ((0, 1), 1): 0.3, ((0, 1), 2): 1.0}),
    ])
    def test_adapted_operand(self, tmp_path, capsys, command, expected):
        code, out, err = self.run(tmp_path, capsys, command, UNIPOTENT_DOC)
        assert code == 0, err
        terms = jet_terms(json.loads(out)["map"])
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


# A placeholder command line of each subcommand, and a setting of each flag:
# parsing reads no file.
COMMAND_LINES = {
    "normal-form": ["normal-form", "g.json"],
    "holonomy": ["holonomy", "g.json"],
    "verify": ["verify", "g.json"],
    "check-sr": ["check-sr", "m.json"],
    "enumerate-sr": ["enumerate-sr", "s.json", "--degree", "2"],
    "group mul": ["group", "mul", "a.json", "b.json"],
    "group inv": ["group", "inv", "a.json"],
    "m-matrix": ["m-matrix", "s.json", "--degree", "2"],
    "orbit": ["orbit", "e.json", "--point", "[]"],
}
FLAG_SETTINGS = {
    "res_tol": ["--res-tol", "0.5"], "sr_tol": ["--sr-tol", "0.5"],
    "block_tol": ["--block-tol", "0.5"], "cauchy_tol": ["--cauchy-tol", "0.5"],
    "trunc_degree": ["--trunc-degree", "4"], "p_max": ["--p-max", "5"],
    "prune": ["--no-prune"], "sample_count": ["--sample-count", "3"],
    "sample_radius": ["--sample-radius", "0.5"], "seed": ["--seed", "1"],
    "output": ["--output", "out.json"],
}
NORMAL_FORM_FLAGS = {"res_tol", "prune", "output"}


def accepted_settings() -> dict[str, set[str]]:
    """The settings of ``FLAG_SETTINGS`` that each command's parser accepts."""
    parser = cli.build_parser()
    accepted = {}
    for command, argv in COMMAND_LINES.items():
        accepted[command] = set()
        for name, setting in FLAG_SETTINGS.items():
            try:
                parser.parse_args(argv + setting)
            except SystemExit:
                continue
            accepted[command].add(name)
    return accepted


class TestCliFlags:
    """Each command accepts only the settings it reads; ``--block-tol``,
    ``--sr-tol`` and ``--trunc-degree``, retired settings, and orbit's retired
    ``--ball-radius``, ``--annulus-inner``, ``--annulus-outer`` and ``--seed``
    stay among the probes and no command accepts them."""

    def test_each_command_accepts_only_the_settings_it_reads(self, capsys):
        accepted = accepted_settings()
        assert accepted == {
            "normal-form": NORMAL_FORM_FLAGS, "holonomy": NORMAL_FORM_FLAGS,
            "verify": NORMAL_FORM_FLAGS | {"sample_count", "sample_radius", "seed", "cauchy_tol",
                                           "p_max"},
            **{command: {"output"} for command in ("check-sr", "enumerate-sr", "group mul",
                                                   "group inv", "m-matrix")},
            "orbit": {"output"}}
        assert len(accepted) == 9
        assert sum(map(len, accepted.values())) == 20

    @pytest.mark.parametrize("argv", [
        ["normal-form", str(DATA / "hopf.json"), "--cauchy-tol", "1e-9"],
        ["group", "inv", str(DATA / "group_g1.json"), "--p-max", "5", "--no-prune"],
        ["m-matrix", str(DATA / "hopf.json"), "--degree", "2", "--res-tol", "0.5"],
        ["orbit", str(DATA / "group_g1.json"), "--point", "[[0.1, 0], [0.1, 0], [0.1, 0]]",
         "--sample-count", "3"],
        ["normal-form", str(DATA / "hopf.json"), "--block-tol", "1e-9"],
        ["normal-form", str(DATA / "near_resonant.json"), "--res-tol", "1e-5",
         "--sr-tol", "1e-5"],
        # the normal form draws no samples, so it takes no sampling flag
        ["normal-form", str(DATA / "hopf.json"), "--seed", "1"],
        ["holonomy", str(DATA / "hopf.json"), "--sample-count", "3"],
        ["holonomy", str(DATA / "hopf.json"), "--sample-radius", "0.01"],
        # the working degree is c0 + 1, not a setting
        ["normal-form", str(DATA / "hopf.json"), "--trunc-degree", "5"],
        ["holonomy", str(DATA / "hopf.json"), "--trunc-degree", "5"],
        ["verify", str(DATA / "hopf.json"), "--trunc-degree", "5"],
        # orbit returns its points and norms only: no ball, ratio or annulus check
        *(["orbit", str(DATA / "group_g1.json"), "--point", "[[0.1, 0], [0.1, 0], [0.1, 0]]",
           flag, value] for flag, value in [("--ball-radius", "1"), ("--annulus-inner", "0.1"),
                                            ("--annulus-outer", "0.2"), ("--seed", "1")]),
    ])
    def test_an_unread_flag_is_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    # retired: group inv, group mul (0, h1) (0, h2) and group mul (0, h) (tau, id) do their work
    @pytest.mark.parametrize("argv", [
        ["sr-invert", "m.json"], ["sr-compose", "a.json", "b.json"],
        ["group", "conjugate-translation", "m.json", "--tau", "[]"]])
    def test_a_retired_command_is_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_check_sr_refuses_near_resonant_terms(tmp_path, capsys):
    """The degree-2 terms in e1 that ``--sr-tol 1e-5`` let into the normal form
    of ``near_resonant``: each misses ``ln|l_1| <= sum_k i_k ln|l_k|`` by 8.0e-7,
    far beyond the fixed slack ``SR_TOL``."""
    germ = json.loads((DATA / "near_resonant.json").read_text())
    positions = [[0, 0, 2], [0, 1, 1], [0, 2, 0]]
    terms = [t for t in germ["terms"] if sum(t["exponents"]) == 1]
    terms += [{"exponents": e, "component": 1, "coeff": c}
              for e, c in zip(positions, [[-0.25, 0.75], [0.5, 0.25], [1.0, -0.5]])]
    path = write_doc(tmp_path, "p.json", dict(germ, degree=2, terms=terms))
    code, out, err = run_cli(["check-sr", path], capsys)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["certified"] is False
    assert report["offenders"] == [{"exponents": e, "component": 1} for e in positions]
    logs = normal_form.ingest(germio.parse_germ_document(germ))[0].log_moduli
    margins = logs[0] - np.array(positions) @ logs
    assert np.all((7.9e-7 < margins) & (margins < 8.1e-7))


class TestUnwritableOutput:
    """An ``--output`` that cannot be written is invalid input: exit 2 with a
    message naming the path, the exit-3 error document included."""

    def test_missing_directory(self, tmp_path, capsys):
        path = str(tmp_path / "missing" / "x.json")
        code, out, err = run_cli(["normal-form", str(DATA / "hopf.json"), "--output", path],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"ValidationError: cannot write {path}: ")
        assert not (tmp_path / "missing").exists()

    def test_a_directory(self, tmp_path, capsys):
        code, out, err = run_cli(["group", "inv", str(DATA / "group_g1.json"),
                                  "--output", str(tmp_path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"ValidationError: cannot write {tmp_path}: ")

    def test_the_error_document(self, tmp_path, capsys):
        # the orbit of TestCliOverflow leaves the float range: exit 3 where writable
        argv = ["orbit", str(DATA / "group_g1.json"), "--point", TestCliOverflow.POINT,
                "--iterations", "1000", "--output"]
        code, out, err = run_cli(argv + [str(tmp_path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"ValidationError: cannot write {tmp_path}: ")
        code, _, err = run_cli(argv + [str(tmp_path / "error.json")], capsys)
        assert code == 3 and err.startswith("NoConvergence: ")
        assert set(json.loads((tmp_path / "error.json").read_text())) == {"error"}


class TestExitCodes:
    def test_every_error_class_has_one_exit_code(self):
        expected = {
            errors.ValidationError: 2, errors.NotContracting: 2, errors.NotTriangular: 2,
            errors.SingularLinearPart: 2, errors.SpectrumMismatch: 2,
            errors.DimensionMismatch: 2, errors.DegreeOutOfRange: 2,
            errors.IllConditionedResonance: 3, errors.NoConvergence: 3,
            errors.CertificationFailure: 3,
        }
        bases = (errors.SrnfError, errors.InputError, errors.NumericalCondition)
        classes = {c for c in vars(errors).values() if isinstance(c, type)
                   and issubclass(c, errors.SrnfError) and c not in bases}
        assert classes == set(expected)
        for cls, code in expected.items():
            assert issubclass(cls, errors.InputError) != issubclass(cls, errors.NumericalCondition)
            assert issubclass(cls, errors.InputError) == (code == 2)


    @pytest.mark.parametrize("argv, field", [
        (["verify", str(DATA / "hopf.json"), "--sample-radius", "nan"], "sample_radius"),
        (["normal-form", str(DATA / "hopf.json"), "--res-tol", "nan"], "res_tol"),
        (["verify", str(DATA / "hopf.json"), "--sample-count", "-1"], "sample_count"),
        (["verify", str(DATA / "hopf.json"), "--p-max", "0"], "p_max"),
        (["verify", str(DATA / "hopf.json"), "--cauchy-tol", "inf"], "cauchy_tol"),
        (["verify", str(DATA / "hopf.json"), "--sample-radius", "-0.1"], "sample_radius"),
        (["verify", str(DATA / "hopf.json"), "--seed", "-1"], "seed"),
    ])
    def test_a_setting_out_of_range_is_exit_2(self, capsys, argv, field):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"ValidationError: {field} must be ")


class TestConsoleEntry:
    def test_module_invocation_byte_identical(self, tmp_path):
        germ = tmp_path / "germ.json"
        germ.write_text(json.dumps(HOPF_DOC))
        cmd = [sys.executable, "-m", "srnf", "normal-form", str(germ)]
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


def test_library_tolerances_default_to_run_config():
    default = inspect.signature(split_homogeneous).parameters["res_tol"].default
    assert default == RunConfig().res_tol
    # equal moduli are grouped and ordered within one fixed tolerance, not a setting
    assert "block_tol" not in inspect.signature(analyze_spectrum).parameters
    # sub-resonance has one fixed slack, linalg.SR_TOL, not a setting: the
    # only tolerances a function or method of the package takes are these two
    modules = (cli, config, errors, germio, gx_group, homological, linalg, normal_form,
               polymap, subresonance)
    functions = [f for module in modules for owner in vars(module).values()
                 if getattr(owner, "__module__", None) == module.__name__
                 for f in (vars(owner).values() if inspect.isclass(owner) else [owner])
                 if inspect.isfunction(f)]
    assert certify_subresonant in functions and germio.parse_group_element in functions
    assert {name for function in functions for name in inspect.signature(function).parameters
            if "tol" in name} == {"res_tol", "cauchy_tol"}
