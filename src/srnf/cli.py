"""Command-line interface: JSON documents in, JSON documents out.

Exit codes: 0 success, 2 an ``InputError`` or an unwritable ``--output`` (nothing
is written), 3 a ``NumericalCondition`` (its document, or an error document, is written).
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
    DimensionMismatch,
    InputError,
    NoConvergence,
    NumericalCondition,
    ValidationError,
    check_size,
)
from .gx_group import group_inv, group_mul, holonomy_generator, orbit
from .homological import build_matrix
from .normal_form import _poincare_dulac, check_sample_count, germ_frame, ingest, verify_conjugacy
from .polymap import basis_dimension
from .subresonance import enumerate_subresonant_basis, subresonant_offenders

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
        return
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {args.output}: {exc}") from exc


def _read(path: str, read, *args):
    """``read(document, *args)`` for the document at ``path``.  Every document
    is read here: an input refusal raised while parsing or ingesting it names
    ``path``, as ``load_json``'s refusals do."""
    doc = germio.load_json(path)
    try:
        return read(doc, *args)
    except InputError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _ingested(doc, read=ingest):
    """The germ of ``doc`` and ``read(germ)``: by default its :func:`ingest` triple
    ``(spectrum, adapted jet, Q)``, with :func:`germ_frame` its ``(spectrum, Q)``."""
    germ = germio.parse_germ_document(doc)
    return germ, read(germ)


def _group_element(path: str):
    return _read(path, germio.parse_group_element)


def _positions(keys) -> list[dict]:
    return [{"exponents": list(index), "component": comp + 1} for index, comp in keys]


# -- handlers -------------------------------------------------------------


def _cmd_normal_form(args, cfg: RunConfig) -> dict:
    return germio.result_document(_poincare_dulac(*_read(args.germ, _ingested), cfg))


def _cmd_check_sr(args, cfg: RunConfig) -> dict:
    # against --spectrum the map is taken as given, else moved to adapted
    # coordinates against its own spectrum
    if args.spectrum:
        _, (spectrum, _) = _read(args.spectrum, _ingested, germ_frame)
        germ = _read(args.map, germio.parse_germ_document)
        if germ.n != spectrum.n:
            raise DimensionMismatch(f"{args.map}: dimension {germ.n} does not match "
                                    f"n={spectrum.n} of the spectrum of {args.spectrum}")
        if germ.coordinates != "adapted":
            raise ValidationError(
                f"{args.map}: operand must be in adapted coordinates, since it is taken as "
                f"given against the spectrum of {args.spectrum}")
        adapted, Q = germ.jet, np.eye(spectrum.n, dtype=complex)
    else:
        _, (spectrum, adapted, Q) = _read(args.map, _ingested)
    offenders = subresonant_offenders(adapted, spectrum)
    return {
        "certified": not offenders,
        "offenders": _positions(offenders),
        "basis_change": germio.matrix_to_json(Q),
    }


def _cmd_enumerate_sr(args, cfg: RunConfig) -> dict:
    _, (spectrum, _) = _read(args.spectrum_doc, _ingested, germ_frame)
    check_size(ENUMERATION_BYTES_PER_POSITION * basis_dimension(spectrum.n, args.degree),
               MAX_REQUEST_BYTES, f"the degree-{args.degree} basis for n={spectrum.n}",
               "enumerate-sr")
    basis = enumerate_subresonant_basis(spectrum, args.degree)
    return {
        "degree": args.degree,
        "count": len(basis),
        "basis": _positions(basis),
    }


def _cmd_m_matrix(args, cfg: RunConfig) -> dict:
    _, (spectrum, _) = _read(args.spectrum_doc, _ingested, germ_frame)
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


def _cmd_holonomy(args, cfg: RunConfig) -> dict:
    result = _poincare_dulac(*_read(args.germ, _ingested), cfg)
    return {
        "generator": germio.group_element_document(holonomy_generator(result)),
        "result": germio.result_document(result),
    }


def _cmd_orbit(args, cfg: RunConfig) -> dict:
    element = _group_element(args.element)
    check_size(ORBIT_BYTES_PER_COORDINATE * (args.iterations + 1) * element.n,
               MAX_REQUEST_BYTES, f"an orbit of {args.iterations} iterations for "
               f"n={element.n}", "orbit")
    try:
        point = json.loads(args.point)
    except ValueError as exc:
        raise ValidationError(f"--point: {exc}") from exc
    z = germio.json_to_point(point, element.n, "--point")
    return germio.orbit_document(*orbit(element, z, args.iterations))


def _cmd_verify(args, cfg: RunConfig) -> dict:
    germ, ingested = _read(args.germ, _ingested)
    check_sample_count(germ.jet.n, cfg)   # before the normal form, not after it
    report = verify_conjugacy(germ, _poincare_dulac(germ, ingested, cfg), cfg=cfg)
    document = germio.report_document(report)
    if report.unconverged:
        raise NoConvergence(
            f"straightening did not stabilize in {cfg.p_max} iterations at "
            f"{report.unconverged} of {len(report.straightened_pointwise)} samples", document)
    return document


# -- parser ---------------------------------------------------------------


def _command(subparsers, name: str, handler, parent, help: str, *documents: str):
    """A subcommand reading ``documents``, with ``parent``'s flags."""
    p = subparsers.add_parser(name, parents=[parent], help=help)
    for document in documents:
        p.add_argument(document, help="document path (or '-')")
    p.set_defaults(handler=handler)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srnf",
        description="Polynomial normal forms of contracting germs and the "
                    "sub-resonant automorphism group.")
    sub = parser.add_subparsers(dest="command", required=True)
    germ_fields = ("res_tol", "prune")
    normal_form, output = _config_parser(germ_fields), _config_parser(())

    _command(sub, "normal-form", _cmd_normal_form, normal_form,
             "compute the polynomial normal form of a germ", "germ")
    p = _command(sub, "check-sr", _cmd_check_sr, output, "certify a map as sub-resonant", "map")
    p.add_argument("--spectrum", help="document whose linear part fixes the spectrum")
    p = _command(sub, "enumerate-sr", _cmd_enumerate_sr, output,
                 "enumerate the sub-resonant basis of one degree", "spectrum_doc")
    p.add_argument("--degree", type=int, required=True)
    p = _command(sub, "m-matrix", _cmd_m_matrix, output,
                 "dump the homological operator matrix of one degree", "spectrum_doc")
    p.add_argument("--degree", type=int, required=True)

    group = sub.add_parser("group", help="operations in the affine sub-resonant group")
    group_sub = group.add_subparsers(dest="group_command", required=True)
    _command(group_sub, "mul", _cmd_group_mul, output, "compose two group elements",
             "first", "second")
    _command(group_sub, "inv", _cmd_group_inv, output, "invert a group element", "element")

    _command(sub, "holonomy", _cmd_holonomy, normal_form,
             "holonomy generator of the quotient defined by a germ", "germ")
    p = _command(sub, "orbit", _cmd_orbit, output,
                 "iterate a group element: the orbit's points and norms", "element")
    p.add_argument("--point", required=True, help="start point as JSON [[re, im], ...]")
    p.add_argument("--iterations", type=int, default=10)
    _command(sub, "verify", _cmd_verify, _config_parser(),
             "recompute a germ's normal form and verify the conjugacy", "germ")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(**{k: v for k, v in vars(args).items() if k in _CONFIG_FLAGS})
        try:
            doc, condition = args.handler(args, cfg), None
        except NumericalCondition as exc:
            condition = exc
            doc = exc.document or {"error": {"type": type(exc).__name__, "message": str(exc)}}
        _emit(args, doc)   # an unwritable --output is refused like any input
    except InputError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if condition is not None:
        print(f"{type(condition).__name__}: {condition}", file=sys.stderr)
    return 0 if condition is None else 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
