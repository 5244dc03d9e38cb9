"""Command-line interface: JSON documents in, JSON documents out.

Exit codes: 0 success, 2 invalid input, 3 numerical condition (the output
document is still written and carries the diagnostics).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import germio
from .config import RunConfig
from .errors import (
    CertificationFailure,
    DegreeOutOfRange,
    DimensionMismatch,
    IllConditionedResonance,
    NoConvergence,
    NotContracting,
    NotTriangular,
    SingularLinearPart,
    SpectrumMismatch,
    ValidationError,
    check_size,
)
from .gx_group import group_inv, group_mul, hopf_holonomy, orbit, translate_conjugate
from .homological import build_matrix
from .normal_form import ingest, poincare_dulac, verify_conjugacy
from .polymap import PolyJet, basis_dimension
from .subresonance import (
    SubResonantMap,
    certify_subresonant,
    enumerate_subresonant_basis,
    sr_compose,
    sr_inverse,
)

_INPUT_ERRORS = (ValidationError, NotContracting, NotTriangular, SingularLinearPart,
                 SpectrumMismatch, DimensionMismatch, DegreeOutOfRange)
_NUMERICAL_ERRORS = (IllConditionedResonance, NoConvergence, CertificationFailure)

# Largest allocation, in bytes, of one ``m-matrix`` or ``enumerate-sr`` request.
MAX_REQUEST_BYTES = 64 * 2**20

# Peak of the enumeration's arrays per basis position: the int64 exponents plus
# their stars-and-bars source or their float copy (three words at n = 2).
ENUMERATION_BYTES_PER_POSITION = 24


class _UnconvergedReport(Exception):
    """Straightening did not stabilize at some samples; the report is still written."""

    def __init__(self, message: str, document: dict):
        super().__init__(message)
        self.document = document


def _config_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--res-tol", type=float, default=RunConfig.res_tol,
                        help="relative resonance-detection tolerance")
    parser.add_argument("--sr-tol", type=float, default=RunConfig.sr_tol,
                        help="log-space sub-resonance tolerance")
    parser.add_argument("--block-tol", type=float, default=RunConfig.block_tol,
                        help="relative tolerance grouping equal-modulus eigenvalues")
    parser.add_argument("--cauchy-tol", type=float, default=RunConfig.cauchy_tol,
                        help="stabilization tolerance of the straightening iteration")
    parser.add_argument("--trunc-degree", type=int, default=RunConfig.trunc_degree,
                        help="working truncation degree (default c0+1)")
    parser.add_argument("--p-max", type=int, default=RunConfig.p_max,
                        help="iteration cap of the straightening limit")
    parser.add_argument("--prune", dest="prune", action="store_true", default=RunConfig.prune,
                        help="drop relative round-off noise after compositions (default)")
    parser.add_argument("--no-prune", dest="prune", action="store_false")
    parser.add_argument("--sample-count", type=int, default=RunConfig.sample_count,
                        help="number of verification sample points")
    parser.add_argument("--sample-radius", type=float, default=RunConfig.sample_radius,
                        help="radius of verification sample points")
    parser.add_argument("--seed", type=int, default=RunConfig.seed,
                        help="seed for reproducible sampling")
    parser.add_argument("--output", default="-",
                        help="output path (default '-' for stdout)")
    return parser


def _run_config(args) -> RunConfig:
    return RunConfig(
        res_tol=args.res_tol,
        sr_tol=args.sr_tol,
        block_tol=args.block_tol,
        cauchy_tol=args.cauchy_tol,
        trunc_degree=args.trunc_degree,
        p_max=args.p_max,
        prune=args.prune,
        sample_count=args.sample_count,
        sample_radius=args.sample_radius,
        seed=args.seed,
    )


def _emit(args, doc) -> None:
    text = germio.dump_json(doc)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_germ(path: str):
    return germio.parse_germ_document(germio.load_json(path))


def _adapted_operand(path: str) -> PolyJet:
    """The jet of an operand taken against a spectrum fixed elsewhere, as given."""
    germ = _load_germ(path)
    if germ.coordinates != "adapted":
        raise ValidationError(
            f"{path}: operand must be in adapted coordinates when the spectrum "
            "is fixed elsewhere")
    return germ.jet


def _map_operand(args, cfg: RunConfig):
    """``(spectrum, adapted jet, Q)`` of ``args.map``: against ``--spectrum`` the
    operand is taken as given (``Q`` the identity), else against its own spectrum."""
    if args.spectrum:
        spectrum, _, _ = ingest(_load_germ(args.spectrum), cfg)
        return spectrum, _adapted_operand(args.map), np.eye(spectrum.n, dtype=complex)
    return ingest(_load_germ(args.map), cfg)


def _certified(jet: PolyJet, spectrum, cfg: RunConfig, path: str) -> SubResonantMap:
    certified = certify_subresonant(jet, spectrum, cfg.sr_tol)
    if isinstance(certified, SubResonantMap):
        return certified
    raise ValidationError(
        f"{path}: map is not sub-resonant for the reference spectrum; "
        f"offenders: {certified[:4]}")


def _certified_map(args, cfg: RunConfig):
    """``args.map`` certified as :func:`_map_operand` takes it; returns
    ``(spectrum, certified map)``."""
    spectrum, jet, _ = _map_operand(args, cfg)
    return spectrum, _certified(jet, spectrum, cfg, args.map)


# -- handlers -------------------------------------------------------------


def _cmd_normal_form(args) -> dict:
    cfg = _run_config(args)
    result = poincare_dulac(_load_germ(args.germ), cfg)
    return germio.result_document(result)


def _cmd_check_sr(args) -> dict:
    cfg = _run_config(args)
    spectrum, adapted, Q = _map_operand(args, cfg)
    outcome = certify_subresonant(adapted, spectrum, cfg.sr_tol)
    if isinstance(outcome, SubResonantMap):
        return {"certified": True, "offenders": [],
                "basis_change": germio.matrix_to_json(Q)}
    return {
        "certified": False,
        "offenders": [{"exponents": list(index), "component": comp + 1}
                      for index, comp in outcome],
        "basis_change": germio.matrix_to_json(Q),
    }


def _cmd_enumerate_sr(args) -> dict:
    cfg = _run_config(args)
    spectrum, _, _ = ingest(_load_germ(args.spectrum_doc), cfg)
    check_size(ENUMERATION_BYTES_PER_POSITION * basis_dimension(spectrum.n, args.degree),
               MAX_REQUEST_BYTES, f"the degree-{args.degree} basis for n={spectrum.n}",
               "enumerate-sr")
    basis = enumerate_subresonant_basis(spectrum, args.degree, cfg.sr_tol)
    return {
        "degree": args.degree,
        "count": len(basis),
        "basis": [{"exponents": list(index), "component": comp + 1}
                  for index, comp in basis],
    }


def _cmd_sr_invert(args) -> dict:
    cfg = _run_config(args)
    _, certified = _certified_map(args, cfg)
    inverse = sr_inverse(certified, cfg.sr_tol)
    return germio.jet_document(inverse.jet)


def _cmd_sr_compose(args) -> dict:
    cfg = _run_config(args)
    spectrum, _, _ = ingest(_load_germ(args.spectrum or args.first), cfg)
    F, G = (_certified(_adapted_operand(path), spectrum, cfg, path)
            for path in (args.first, args.second))
    return germio.jet_document(sr_compose(F, G, cfg.sr_tol).jet)


def _cmd_m_matrix(args) -> dict:
    cfg = _run_config(args)
    spectrum, _, _ = ingest(_load_germ(args.spectrum_doc), cfg)
    check_size(basis_dimension(spectrum.n, args.degree) ** 2 * 16, MAX_REQUEST_BYTES,
               f"the dense degree-{args.degree} operator for n={spectrum.n}", "m-matrix")
    matrix = build_matrix(spectrum, args.degree)
    return {
        "degree": args.degree,
        "basis": [{"exponents": list(index), "component": comp + 1}
                  for index, comp in matrix.ordering.pairs],
        "diagonal": [germio.complex_to_pair(complex(v)) for v in np.diagonal(matrix.entries)],
        "matrix": germio.matrix_to_json(matrix.entries),
    }


def _cmd_group_mul(args) -> dict:
    cfg = _run_config(args)
    g1 = germio.parse_group_element(germio.load_json(args.first), cfg.block_tol, cfg.sr_tol)
    g2 = germio.parse_group_element(germio.load_json(args.second), cfg.block_tol, cfg.sr_tol)
    return germio.group_element_document(group_mul(g1, g2, cfg.sr_tol))


def _cmd_group_inv(args) -> dict:
    cfg = _run_config(args)
    g = germio.parse_group_element(germio.load_json(args.element), cfg.block_tol, cfg.sr_tol)
    return germio.group_element_document(group_inv(g, cfg.sr_tol))


def _cmd_group_conjugate_translation(args) -> dict:
    cfg = _run_config(args)
    spectrum, certified = _certified_map(args, cfg)
    try:
        tau_doc = json.loads(args.tau)
    except ValueError as exc:
        raise ValidationError(f"--tau: {exc}") from exc
    tau = germio.json_to_point(tau_doc, spectrum.n, "--tau")
    return germio.jet_document(translate_conjugate(certified, tau, cfg.sr_tol).jet)


def _cmd_holonomy(args) -> dict:
    cfg = _run_config(args)
    generator, result = hopf_holonomy(_load_germ(args.germ), cfg)
    return {
        "generator": germio.group_element_document(generator),
        "result": germio.result_document(result),
    }


def _cmd_orbit(args) -> dict:
    cfg = _run_config(args)
    element = germio.parse_group_element(germio.load_json(args.element),
                                         cfg.block_tol, cfg.sr_tol)
    try:
        point_doc = json.loads(args.point)
    except ValueError as exc:
        raise ValidationError(f"--point: {exc}") from exc
    z = germio.json_to_point(point_doc, element.n, "--point")
    annulus = None
    if args.annulus_inner is not None or args.annulus_outer is not None:
        if args.annulus_inner is None or args.annulus_outer is None:
            raise ValidationError("--annulus-inner and --annulus-outer go together")
        annulus = (args.annulus_inner, args.annulus_outer)
    points, diagnostics = orbit(element, z, args.iterations,
                                ball_radius=args.ball_radius, annulus=annulus,
                                seed=cfg.seed)
    return germio.orbit_document(points, diagnostics)


def _cmd_verify(args) -> dict:
    cfg = _run_config(args)
    germ = _load_germ(args.germ)
    result = poincare_dulac(germ, cfg)
    report = verify_conjugacy(germ, result, cfg=cfg)
    if report.unconverged:
        raise _UnconvergedReport(
            f"straightening did not stabilize in {cfg.p_max} iterations at "
            f"{report.unconverged} of {len(report.straightened_pointwise)} samples",
            germio.report_document(report))
    return germio.report_document(report)


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srnf",
        description="Polynomial normal forms of contracting germs and the "
                    "sub-resonant automorphism group.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _config_parser()

    p = sub.add_parser("normal-form", parents=[common],
                       help="compute the polynomial normal form of a germ")
    p.add_argument("germ", help="germ document (path or '-')")
    p.set_defaults(handler=_cmd_normal_form)

    p = sub.add_parser("check-sr", parents=[common],
                       help="certify a map as sub-resonant")
    p.add_argument("map", help="map document (path or '-')")
    p.add_argument("--spectrum", help="document whose linear part fixes the spectrum")
    p.set_defaults(handler=_cmd_check_sr)

    p = sub.add_parser("enumerate-sr", parents=[common],
                       help="enumerate the sub-resonant basis of one degree")
    p.add_argument("spectrum_doc", help="document whose linear part fixes the spectrum")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(handler=_cmd_enumerate_sr)

    p = sub.add_parser("sr-invert", parents=[common],
                       help="exact polynomial inverse of a sub-resonant map")
    p.add_argument("map")
    p.add_argument("--spectrum")
    p.set_defaults(handler=_cmd_sr_invert)

    p = sub.add_parser("sr-compose", parents=[common],
                       help="compose two sub-resonant maps")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--spectrum")
    p.set_defaults(handler=_cmd_sr_compose)

    p = sub.add_parser("m-matrix", parents=[common],
                       help="dump the homological operator matrix of one degree")
    p.add_argument("spectrum_doc")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(handler=_cmd_m_matrix)

    group = sub.add_parser("group", help="operations in the affine sub-resonant group")
    group_sub = group.add_subparsers(dest="group_command", required=True)

    p = group_sub.add_parser("mul", parents=[common], help="compose two group elements")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=_cmd_group_mul)

    p = group_sub.add_parser("inv", parents=[common], help="invert a group element")
    p.add_argument("element")
    p.set_defaults(handler=_cmd_group_inv)

    p = group_sub.add_parser("conjugate-translation", parents=[common],
                             help="conjugate a sub-resonant map by a translation")
    p.add_argument("map")
    p.add_argument("--tau", required=True,
                   help="translation vector as JSON [[re, im], ...]")
    p.add_argument("--spectrum")
    p.set_defaults(handler=_cmd_group_conjugate_translation)

    p = sub.add_parser("holonomy", parents=[common],
                       help="holonomy generator of the quotient defined by a germ")
    p.add_argument("germ")
    p.set_defaults(handler=_cmd_holonomy)

    p = sub.add_parser("orbit", parents=[common],
                       help="iterate a group element with contraction diagnostics")
    p.add_argument("element")
    p.add_argument("--point", required=True, help="start point as JSON [[re, im], ...]")
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--ball-radius", type=float, default=None)
    p.add_argument("--annulus-inner", type=float, default=None)
    p.add_argument("--annulus-outer", type=float, default=None)
    p.set_defaults(handler=_cmd_orbit)

    p = sub.add_parser("verify", parents=[common],
                       help="recompute a germ's normal form and verify the conjugacy")
    p.add_argument("germ")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.handler(args)
    except _INPUT_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        _emit(args, {"error": {"type": type(exc).__name__, "message": str(exc)}})
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except _UnconvergedReport as exc:
        _emit(args, exc.document)
        print(f"NoConvergence: {exc}", file=sys.stderr)
        return 3
    _emit(args, doc)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
