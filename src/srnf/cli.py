"""Command-line interface: JSON documents in, JSON documents out.

Exit codes: 0 success, 2 an ``InputError`` (nothing is written), 3 a
``NumericalCondition`` (its document, or an error document, is written).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import germio
from .config import RunConfig
from .errors import (
    MAX_REQUEST_BYTES,
    InputError,
    NoConvergence,
    NumericalCondition,
    ValidationError,
    check_size,
)
from .gx_group import GroupElement, group_inv, group_mul, orbit, translate_conjugate
from .homological import build_matrix
from .normal_form import _poincare_dulac, ingest, verify_conjugacy
from .polymap import basis_dimension
from .subresonance import (
    enumerate_subresonant_basis,
    sr_compose,
    sr_inverse,
    subresonant_offenders,
)

# Peak of the enumeration's arrays per basis position: the int64 exponents plus
# their stars-and-bars source or their float copy (three words at n = 2).
ENUMERATION_BYTES_PER_POSITION = 24

# Peak of an orbit per point coordinate: the points, their norms, the document
# and its text (tracemalloc, 1,000-20,000 iterations: 466 bytes at n = 2,
# 366 at n = 16).
ORBIT_BYTES_PER_COORDINATE = 480


# The flag of each RunConfig field, default from RunConfig; a command takes those it reads.
_CONFIG_FLAGS = {
    "res_tol": dict(type=float, help="relative resonance-detection tolerance"),
    "cauchy_tol": dict(type=float, help="stabilization tolerance of the straightening iteration"),
    "trunc_degree": dict(type=int, help="working truncation degree (default c0+1)"),
    "p_max": dict(type=int, help="iteration cap of the straightening limit"),
    "prune": dict(action=argparse.BooleanOptionalAction,
                  help="drop relative round-off noise after compositions (default)"),
    "sample_count": dict(type=int, help="number of verification sample points"),
    "sample_radius": dict(type=float, help="radius of verification sample points"),
    "seed": dict(type=int, help="seed for reproducible sampling"),
}


def _config_parser(names=tuple(_CONFIG_FLAGS)) -> argparse.ArgumentParser:
    """A parent parser with ``--output`` and the flags of the fields ``names``."""
    parser = argparse.ArgumentParser(add_help=False)
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), default=getattr(RunConfig, name),
                            **_CONFIG_FLAGS[name])
    parser.add_argument("--output", default="-", help="output path (default '-' for stdout)")
    return parser


def _emit(args, doc) -> None:
    text = germio.dump_json(doc)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _read(path: str, read, *args):
    """``read(document, *args)`` for the document at ``path``.  Every document
    is read here: an input refusal raised while parsing or ingesting it names
    ``path``, as ``load_json``'s refusals do."""
    doc = germio.load_json(path)
    try:
        return read(doc, *args)
    except InputError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _ingested(doc):
    """The germ of ``doc`` and its :func:`ingest` triple ``(spectrum, adapted jet, Q)``."""
    germ = germio.parse_germ_document(doc)
    return germ, ingest(germ)


def _map_operand(path: str, spectrum_path: str | None):
    """``(spectrum, adapted jet, Q)`` of the map at ``path``: against the spectrum
    of ``spectrum_path`` it is taken as given (``Q`` the identity), else it is
    moved to adapted coordinates against its own spectrum."""
    if not spectrum_path:
        return _read(path, _ingested)[1]
    _, (spectrum, _, _) = _read(spectrum_path, _ingested)
    germ = _read(path, germio.parse_germ_document)
    if germ.coordinates != "adapted":
        raise ValidationError(
            f"{path}: operand must be in adapted coordinates, since it is taken as "
            f"given against the spectrum of {spectrum_path}")
    return spectrum, germ.jet, np.eye(spectrum.n, dtype=complex)


def _certified_map(path: str, spectrum_path: str | None):
    """``(spectrum, certified map)`` of the map at ``path``, taken as by
    :func:`_map_operand`."""
    spectrum, jet, _ = _map_operand(path, spectrum_path)
    return spectrum, germio.certify_map(jet, spectrum, path)


def _group_element(path: str):
    return _read(path, germio.parse_group_element)


def _point(text: str, n: int, flag: str) -> np.ndarray:
    """The point that the JSON ``text`` of ``flag`` gives in dimension ``n``."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ValidationError(f"{flag}: {exc}") from exc
    return germio.json_to_point(doc, n, flag)


def _positions(keys) -> list[dict]:
    return [{"exponents": list(index), "component": comp + 1} for index, comp in keys]


# -- handlers -------------------------------------------------------------


def _cmd_normal_form(args, cfg: RunConfig) -> dict:
    return germio.result_document(_poincare_dulac(*_read(args.germ, _ingested)[1], cfg))


def _cmd_check_sr(args, cfg: RunConfig) -> dict:
    spectrum, adapted, Q = _map_operand(args.map, args.spectrum)
    offenders = subresonant_offenders(adapted, spectrum)
    return {
        "certified": not offenders,
        "offenders": _positions(offenders),
        "basis_change": germio.matrix_to_json(Q),
    }


def _cmd_enumerate_sr(args, cfg: RunConfig) -> dict:
    _, (spectrum, _, _) = _read(args.spectrum_doc, _ingested)
    check_size(ENUMERATION_BYTES_PER_POSITION * basis_dimension(spectrum.n, args.degree),
               MAX_REQUEST_BYTES, f"the degree-{args.degree} basis for n={spectrum.n}",
               "enumerate-sr")
    basis = enumerate_subresonant_basis(spectrum, args.degree)
    return {
        "degree": args.degree,
        "count": len(basis),
        "basis": _positions(basis),
    }


def _cmd_sr_invert(args, cfg: RunConfig) -> dict:
    _, certified = _certified_map(args.map, args.spectrum)
    return germio.jet_document(sr_inverse(certified).jet)


def _cmd_sr_compose(args, cfg: RunConfig) -> dict:
    # the second operand is taken against the first's spectrum or --spectrum
    _, F = _certified_map(args.first, args.spectrum)
    _, G = _certified_map(args.second, args.spectrum or args.first)
    return germio.jet_document(sr_compose(F, G).jet)


def _cmd_m_matrix(args, cfg: RunConfig) -> dict:
    _, (spectrum, _, _) = _read(args.spectrum_doc, _ingested)
    check_size(basis_dimension(spectrum.n, args.degree) ** 2 * 16, MAX_REQUEST_BYTES,
               f"the dense degree-{args.degree} operator for n={spectrum.n}", "m-matrix")
    matrix = build_matrix(spectrum, args.degree)
    return {
        "degree": args.degree,
        "basis": _positions(matrix.ordering.pairs),
        "diagonal": [germio.complex_to_pair(complex(v)) for v in np.diagonal(matrix.entries)],
        "matrix": germio.matrix_to_json(matrix.entries),
    }


def _cmd_group_mul(args, cfg: RunConfig) -> dict:
    g1, g2 = _group_element(args.first), _group_element(args.second)
    return germio.group_element_document(group_mul(g1, g2))


def _cmd_group_inv(args, cfg: RunConfig) -> dict:
    return germio.group_element_document(group_inv(_group_element(args.element)))


def _cmd_group_conjugate_translation(args, cfg: RunConfig) -> dict:
    spectrum, certified = _certified_map(args.map, args.spectrum)
    tau = _point(args.tau, spectrum.n, "--tau")
    return germio.jet_document(translate_conjugate(certified, tau).jet)


def _cmd_holonomy(args, cfg: RunConfig) -> dict:
    result = _poincare_dulac(*_read(args.germ, _ingested)[1], cfg)
    generator = GroupElement(np.zeros(result.spectrum.n, dtype=complex), result.normal_form)
    return {
        "generator": germio.group_element_document(generator),
        "result": germio.result_document(result),
    }


def _cmd_orbit(args, cfg: RunConfig) -> dict:
    element = _group_element(args.element)
    check_size(ORBIT_BYTES_PER_COORDINATE * (args.iterations + 1) * element.n,
               MAX_REQUEST_BYTES, f"an orbit of {args.iterations} iterations for "
               f"n={element.n}", "orbit")
    z = _point(args.point, element.n, "--point")
    annulus = None
    if args.annulus_inner is not None or args.annulus_outer is not None:
        if args.annulus_inner is None or args.annulus_outer is None:
            raise ValidationError("--annulus-inner and --annulus-outer go together")
        annulus = (args.annulus_inner, args.annulus_outer)
    points, diagnostics = orbit(element, z, args.iterations,
                                ball_radius=args.ball_radius, annulus=annulus,
                                seed=cfg.seed)
    return germio.orbit_document(points, diagnostics)


def _cmd_verify(args, cfg: RunConfig) -> dict:
    germ, ingested = _read(args.germ, _ingested)
    report = verify_conjugacy(germ, _poincare_dulac(*ingested, cfg), cfg=cfg)
    document = germio.report_document(report)
    if report.unconverged:
        raise NoConvergence(
            f"straightening did not stabilize in {cfg.p_max} iterations at "
            f"{report.unconverged} of {len(report.straightened_pointwise)} samples", document)
    return document


# -- parser ---------------------------------------------------------------


def _command(subparsers, name: str, handler, parent, help: str, *documents: str,
             spectrum: bool = False):
    """A subcommand reading ``documents``, with ``parent``'s flags and maybe ``--spectrum``."""
    p = subparsers.add_parser(name, parents=[parent], help=help)
    for document in documents:
        p.add_argument(document, help="document path (or '-')")
    if spectrum:
        p.add_argument("--spectrum", help="document whose linear part fixes the spectrum")
    p.set_defaults(handler=handler)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srnf",
        description="Polynomial normal forms of contracting germs and the "
                    "sub-resonant automorphism group.")
    sub = parser.add_subparsers(dest="command", required=True)
    germ_fields = ("res_tol", "trunc_degree", "prune", "sample_count", "sample_radius", "seed")
    normal_form, output = _config_parser(germ_fields), _config_parser(())

    _command(sub, "normal-form", _cmd_normal_form, normal_form,
             "compute the polynomial normal form of a germ", "germ")
    _command(sub, "check-sr", _cmd_check_sr, output, "certify a map as sub-resonant", "map",
             spectrum=True)
    p = _command(sub, "enumerate-sr", _cmd_enumerate_sr, output,
                 "enumerate the sub-resonant basis of one degree", "spectrum_doc")
    p.add_argument("--degree", type=int, required=True)
    _command(sub, "sr-invert", _cmd_sr_invert, output,
             "exact polynomial inverse of a sub-resonant map", "map", spectrum=True)
    _command(sub, "sr-compose", _cmd_sr_compose, output,
             "compose two sub-resonant maps", "first", "second", spectrum=True)
    p = _command(sub, "m-matrix", _cmd_m_matrix, output,
                 "dump the homological operator matrix of one degree", "spectrum_doc")
    p.add_argument("--degree", type=int, required=True)

    group = sub.add_parser("group", help="operations in the affine sub-resonant group")
    group_sub = group.add_subparsers(dest="group_command", required=True)
    _command(group_sub, "mul", _cmd_group_mul, output, "compose two group elements",
             "first", "second")
    _command(group_sub, "inv", _cmd_group_inv, output, "invert a group element", "element")
    p = _command(group_sub, "conjugate-translation", _cmd_group_conjugate_translation, output,
                 "conjugate a sub-resonant map by a translation", "map", spectrum=True)
    p.add_argument("--tau", required=True, help="translation vector as JSON [[re, im], ...]")

    _command(sub, "holonomy", _cmd_holonomy, normal_form,
             "holonomy generator of the quotient defined by a germ", "germ")
    p = _command(sub, "orbit", _cmd_orbit, _config_parser(("seed",)),
                 "iterate a group element with contraction diagnostics", "element")
    p.add_argument("--point", required=True, help="start point as JSON [[re, im], ...]")
    p.add_argument("--iterations", type=int, default=10)
    for flag in ("--ball-radius", "--annulus-inner", "--annulus-outer"):
        p.add_argument(flag, type=float)
    _command(sub, "verify", _cmd_verify, _config_parser(germ_fields + ("cauchy_tol", "p_max")),
             "recompute a germ's normal form and verify the conjugacy", "germ")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(**{k: v for k, v in vars(args).items() if k in _CONFIG_FLAGS})
        doc = args.handler(args, cfg)
    except InputError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except NumericalCondition as exc:
        _emit(args, exc.document or {"error": {"type": type(exc).__name__, "message": str(exc)}})
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    _emit(args, doc)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
