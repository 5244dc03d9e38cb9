"""Germ interchange documents: bit-exact JSON parsing and serialization.

Complex scalars travel as ``[re, im]`` pairs; floats serialize through
Python's shortest round-trip repr, so ``parse(serialize(x)) == x`` exactly
and equal inputs produce byte-identical documents.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .config import RunConfig
from .errors import ValidationError
from .gx_group import GroupElement, OrbitDiagnostics
from .linalg import MAX_DIMENSION, SpectrumData, analyze_spectrum
from .normal_form import COORDINATE_FRAMES, ConjugacyReport, GermInput, NormalFormResult
from .polymap import PolyJet, TermKey
from .subresonance import SubResonantMap, certify_subresonant

# -- low-level scalar helpers -------------------------------------------


def complex_to_pair(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def pair_to_complex(pair, where: str) -> complex:
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)):
        raise ValidationError(f"{where}: expected a [re, im] number pair, got {pair!r}")
    try:
        value = complex(float(pair[0]), float(pair[1]))
    except OverflowError:  # an integer beyond the float range
        raise ValidationError(f"{where}: number too large for a float") from None
    if not np.isfinite(value.real) or not np.isfinite(value.imag):
        raise ValidationError(f"{where}: non-finite coefficient")
    return value


def matrix_to_json(matrix: np.ndarray) -> list[list[list[float]]]:
    return [[complex_to_pair(complex(entry)) for entry in row] for row in np.asarray(matrix)]


def json_to_matrix(data, n: int, where: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != n:
        raise ValidationError(f"{where}: expected {n} rows")
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError(f"{where}: row {i + 1} must have {n} entries")
        for j, pair in enumerate(row):
            out[i, j] = pair_to_complex(pair, f"{where}[{i + 1}][{j + 1}]")
    return out


def point_to_json(z: np.ndarray) -> list[list[float]]:
    return [complex_to_pair(complex(v)) for v in np.asarray(z)]


def json_to_point(data, n: int, where: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != n:
        raise ValidationError(f"{where}: expected a list of {n} [re, im] pairs")
    return np.array([pair_to_complex(p, f"{where}[{k + 1}]") for k, p in enumerate(data)],
                    dtype=complex)


# -- jets ---------------------------------------------------------------


def terms_to_json(jet: PolyJet) -> list[dict]:
    return [
        {"exponents": list(index), "component": comp + 1, "coeff": complex_to_pair(coeff)}
        for index, comp, coeff in jet.sorted_terms()
    ]


def json_to_terms(data, n: int, degree: int, where: str) -> dict[TermKey, complex]:
    if not isinstance(data, list):
        raise ValidationError(f"{where}: 'terms' must be a list")
    terms: dict[TermKey, complex] = {}
    for t, record in enumerate(data):
        label = f"{where}: term {t + 1}"
        if not isinstance(record, dict):
            raise ValidationError(f"{label}: expected an object")
        try:
            exponents = record["exponents"]
            component = record["component"]
            coeff = record["coeff"]
        except KeyError as exc:
            raise ValidationError(f"{label}: missing key {exc}") from None
        if (not isinstance(exponents, list) or len(exponents) != n
                or not all(isinstance(e, int) and not isinstance(e, bool) and e >= 0
                           for e in exponents)):
            raise ValidationError(
                f"{label}: exponents must be {n} nonnegative integers")
        if sum(exponents) < 1:
            raise ValidationError(f"{label}: total degree must be >= 1")
        if sum(exponents) > degree:
            raise ValidationError(
                f"{label}: degree {sum(exponents)} exceeds declared degree {degree}")
        if not isinstance(component, int) or isinstance(component, bool) \
                or not 1 <= component <= n:
            raise ValidationError(f"{label}: component must be in 1..{n}")
        key = (tuple(exponents), component - 1)
        if key in terms:
            raise ValidationError(f"{label}: duplicate (exponents, component) key")
        terms[key] = pair_to_complex(coeff, f"{label}: coeff")
    return terms


def jet_document(jet: PolyJet, coordinates: str = "adapted") -> dict:
    return {
        "dimension": jet.n,
        "degree": jet.degree,
        "coordinates": coordinates,
        "terms": terms_to_json(jet),
    }


def parse_germ_document(doc: Any) -> GermInput:
    if not isinstance(doc, dict):
        raise ValidationError("germ document must be a JSON object")
    n = doc.get("dimension")
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_DIMENSION:
        raise ValidationError(f"'dimension' must be an integer in 1..{MAX_DIMENSION}")
    degree = doc.get("degree")
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise ValidationError("'degree' must be a positive integer")
    coordinates = doc.get("coordinates", "adapted")
    if coordinates not in COORDINATE_FRAMES:
        raise ValidationError(f"'coordinates' must be one of {COORDINATE_FRAMES}")
    terms = json_to_terms(doc.get("terms", []), n, degree, "germ")
    if "linear_matrix" in doc:
        matrix = json_to_matrix(doc["linear_matrix"], n, "linear_matrix")
        terms = {key: coeff for key, coeff in terms.items() if sum(key[0]) != 1}
        for j in range(n):
            for k in range(n):
                if matrix[j, k] != 0:
                    index = tuple(1 if i == k else 0 for i in range(n))
                    terms[(index, j)] = complex(matrix[j, k])
    jet = PolyJet(n, degree, terms)
    return GermInput(jet=jet, coordinates=coordinates)


# -- spectra and results --------------------------------------------------


def spectrum_document(spectrum: SpectrumData) -> dict:
    return {
        "dimension": spectrum.n,
        "matrix": matrix_to_json(spectrum.T),
        "eigenvalues": [complex_to_pair(complex(v)) for v in spectrum.diag],
        "moduli": [float(m) for m in spectrum.moduli],
        "blocks": [[k + 1 for k in block] for block in spectrum.blocks],
        "c0": spectrum.c0,
        "degree_bound": spectrum.degree_bound,
    }


def result_document(result: NormalFormResult) -> dict:
    steps = []
    for record in result.steps:
        steps.append({
            "degree": record.q,
            "resonant_terms": terms_to_json(record.resonant),
            "eliminated_terms": terms_to_json(record.eliminated),
            "divisor_min": record.divisor_min if np.isfinite(record.divisor_min) else None,
            "warnings": list(record.warnings),
        })
    return {
        "spectrum": spectrum_document(result.spectrum),
        "basis_change": matrix_to_json(result.basis_change),
        "normal_form": {
            "degree": result.normal_form.jet.degree,
            "terms": terms_to_json(result.normal_form.jet),
        },
        "phi": {
            "degree": result.phi.degree,
            "terms": terms_to_json(result.phi),
        },
        "steps": steps,
        "residuals": {
            "coefficient_max": result.residuals.coefficient_max,
            "pointwise_max": result.residuals.pointwise_max,
            "pointwise_mean": result.residuals.pointwise_mean,
            "sample_radius": result.residuals.sample_radius,
            "sample_count": result.residuals.sample_count,
        },
        "contraction_ball": {
            "radius": result.contraction_radius,
            "ratio": result.contraction_ratio,
        },
        "trunc_degree": result.trunc_degree,
        "warnings": list(result.warnings),
    }


def report_document(report: ConjugacyReport) -> dict:
    return {
        "coefficient_max": report.coefficient_max,
        "polynomial_pointwise": list(report.polynomial_pointwise),
        "polynomial_max": report.polynomial_max,
        "straightened_pointwise": list(report.straightened_pointwise),
        "straightened_max": report.straightened_max,
        "amplification_estimate": report.amplification_estimate,
        "sample_points": [point_to_json(np.array(z)) for z in report.sample_points],
    }


# -- group elements -------------------------------------------------------


def group_element_document(g: GroupElement) -> dict:
    return {
        "dimension": g.n,
        "tau": point_to_json(g.tau),
        "map": {
            "degree": g.h.jet.degree,
            "terms": terms_to_json(g.h.jet),
        },
        "spectrum_matrix": matrix_to_json(g.h.spectrum.T),
    }


def parse_group_element(doc: Any, block_tol: float = RunConfig.block_tol,
                        sr_tol: float = RunConfig.sr_tol) -> GroupElement:
    if not isinstance(doc, dict):
        raise ValidationError("group element document must be a JSON object")
    n = doc.get("dimension")
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_DIMENSION:
        raise ValidationError(f"'dimension' must be an integer in 1..{MAX_DIMENSION}")
    if "spectrum_matrix" not in doc:
        raise ValidationError("group element document requires 'spectrum_matrix'")
    spectrum = analyze_spectrum(json_to_matrix(doc["spectrum_matrix"], n, "spectrum_matrix"),
                                block_tol)
    tau = json_to_point(doc.get("tau", [[0.0, 0.0]] * n), n, "tau")
    map_doc = doc.get("map")
    if not isinstance(map_doc, dict):
        raise ValidationError("'map' must be an object with 'degree' and 'terms'")
    degree = map_doc.get("degree", max(1, spectrum.degree_bound))
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise ValidationError("'map.degree' must be a positive integer")
    terms = json_to_terms(map_doc.get("terms", []), n, degree, "map")
    jet = PolyJet(n, degree, terms)
    certified = certify_subresonant(jet, spectrum, sr_tol)
    if not isinstance(certified, SubResonantMap):
        raise ValidationError(
            f"map is not sub-resonant for the given spectrum; offenders: {certified[:4]}")
    return GroupElement(tau=tau, h=certified)


def orbit_document(points: np.ndarray, diagnostics: OrbitDiagnostics) -> dict:
    doc = {
        "points": [point_to_json(p) for p in points],
        "norms": list(diagnostics.norms),
        "entered_ball_at": diagnostics.entered_ball_at,
        "ratio_bound": diagnostics.ratio_bound,
        "ratios_after_entry": list(diagnostics.ratios_after_entry),
        "ratio_certified": diagnostics.ratio_certified,
    }
    if diagnostics.annulus is not None:
        doc["annulus"] = {
            "inner": diagnostics.annulus.inner,
            "outer": diagnostics.annulus.outer,
            "max_image_norm": diagnostics.annulus.max_image_norm,
            "separated": diagnostics.annulus.separated,
            "certified": diagnostics.annulus.certified,
        }
    return doc


# -- file handling --------------------------------------------------------


def load_json(source: str) -> Any:
    """Load a JSON document from a path, or stdin when ``source`` is '-'."""
    import sys

    try:
        if source == "-":
            text = sys.stdin.read()
            name = "<stdin>"
        else:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
            name = source
    except OSError as exc:
        raise ValidationError(f"cannot read {source}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{name}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise ValidationError(f"{name}: {exc}") from exc


def dump_json(doc: Any) -> str:
    """Canonical serialization: sorted keys, two-space indent, round-trip floats.

    The text is ``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)``
    plus a newline, byte for byte.  json writes indented documents through
    nested generators; :func:`_encode` builds the same text by plain
    recursion for the types documents are made of.  A document with any
    other key or value, a non-finite float, a nesting too deep for
    :func:`_encode` (it takes about twice json's stack per level) or a
    reference to itself is handed to json, which writes it or raises its
    own ``ValueError`` or ``TypeError``.
    """
    try:
        return _encode(doc, "\n") + "\n"
    except (TypeError, RecursionError):
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _encode(value, newline: str) -> str:
    """``value`` as json's indented encoder writes it at the depth ``newline`` indents to.

    Only exact types are taken, and float subclasses such as ``np.float64``
    (which json also writes as floats), so ``bool`` never reaches ``int``;
    anything else raises ``TypeError``, as does a key that is not a string.
    """
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = newline + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        body = [_encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(body) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        body = [encode_basestring_ascii(key) + ": " + _encode(item, inner)
                for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(body) + newline + "}"
    raise TypeError(f"{kind.__name__} is left to json")
