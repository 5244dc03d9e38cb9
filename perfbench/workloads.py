"""The workloads: their inputs, their timed operations and the checks on each.

A workload is a list of cases.  One round runs every case once, in order;
a run repeats whole rounds.  Each case's inputs are fixed when the workload
is built, so every round does the same work.  srnf is reached only through
its public functions, looked up on the module that defines them at call
time, so a traced run sees every call.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks
import inputs
import oracles

NAMES = ("wide-operator", "verify", "group")


@dataclass
class Case:
    """One timed operation.

    ``check`` returns the problems of an output; ``key`` reduces an output
    to everything ``check`` reads, so an output equal to one already
    checked can reuse its verdict.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    key: Callable[[Any], Any] = lambda output: output


@dataclass
class CliRequest:
    """One ``python -m srnf`` invocation; ``expected`` gives the in-process bytes."""

    args: list
    documents: dict
    expected: Callable[[], str]


@dataclass
class Workload:
    cases: list
    warmup: int          # the first ``warmup`` cases, run once before timing
    largest: str         # the case whose time is reported as op_max_ms
    cli: CliRequest


def build(name: str, seed: int, srnf) -> Workload:
    """Generate the workload's inputs from ``seed``; ``srnf`` is the imported package."""
    rng = np.random.default_rng(seed)
    jets_for = functools.cache(oracles.Jets)
    if name == "wide-operator":
        # c0=3 only at n=8: at n=9 the q=4 operator takes 317 MB, at n=10 818 MB.
        specs = [(8, 2), (9, 2), (10, 2), (8, 3), (12, 2)]
        docs = [(f"n{n}-c{c0}", inputs.resonant_germ(rng, n, c0)) for n, c0 in specs]
        return _normal_form_workload(docs, jets_for, largest="n12-c2", cli_case="n8-c2")
    if name == "verify":
        return _verify_workload(srnf, rng, seed, jets_for)
    if name == "group":
        return _group_workload(rng, jets_for)
    raise ValueError(f"unknown workload {name!r}")


def _normal_form_workload(docs, jets_for, largest: str, cli_case: str) -> Workload:
    from srnf import germio, normal_form

    def run(doc):
        result = normal_form.poincare_dulac(germio.parse_germ_document(doc))
        return germio.dump_json(germio.result_document(result))

    def check(doc, text):
        claim = checks.Adapted.from_document(json.loads(text))
        return checks.check_normal_form(doc, claim, checks.Conjugacy(doc, claim, jets_for))

    cases = [Case(label, functools.partial(run, doc), functools.partial(check, doc))
             for label, doc in docs]
    doc = dict(docs)[cli_case]
    return Workload(cases, warmup=1, largest=largest, cli=CliRequest(
        ["normal-form", "{germ}"], {"germ": doc}, functools.partial(run, doc)))


def _verify_workload(srnf, rng, seed: int, jets_for) -> Workload:
    from srnf import germio, normal_form

    docs = [("hopf", inputs.hopf_germ())]
    for c0 in range(4, 8):
        # The resonant c0=7 germ is left out: on a few seeds in a hundred one
        # straightening sample diverges and the report cannot be written.
        if c0 < 7:
            docs.append((f"n2-c{c0}-resonant", inputs.two_dim_germ(rng, c0, True)))
        docs.append((f"n2-c{c0}", inputs.two_dim_germ(rng, c0, False)))
    docs += [(f"n3-c{c0}", inputs.dense_germ(rng, 3, c0, "adapted")) for c0 in (3, 4)]
    # in original coordinates, so Schur and linear_conjugate run too
    docs.append(("n3-c3-original", inputs.dense_germ(rng, 3, 3, "original")))
    cfg = srnf.RunConfig(seed=seed)

    def run(doc):
        germ = germio.parse_germ_document(doc)
        result = normal_form.poincare_dulac(germ, cfg)
        report = normal_form.verify_conjugacy(germ, result, cfg=cfg)
        return result, germio.dump_json(germio.report_document(report))

    def check(doc, output):
        result, text = output
        claim = checks.Adapted.from_result(result)
        conj = checks.Conjugacy(doc, claim, jets_for)
        return (checks.check_normal_form(doc, claim, conj)
                + checks.check_report(claim, conj, json.loads(text), cfg.sample_count))

    def key(output):
        result, text = output
        return (text, _terms(result.normal_form), _terms(result.phi), result.spectrum.T.tobytes(),
                result.basis_change.tobytes(), result.trunc_degree)

    cases = [Case(label, functools.partial(run, doc), functools.partial(check, doc), key)
             for label, doc in docs]
    hopf = docs[0][1]
    return Workload(cases, warmup=1, largest="n3-c4", cli=CliRequest(
        ["verify", "{germ}", "--seed", str(seed)], {"germ": hopf},
        lambda: run(hopf)[1]))


GROUP_FAMILIES = ((3, 6), (4, 5), (5, 4), (6, 3), (8, 3))   # (n, degree bound)
ORBIT_LENGTH = 24


def _group_workload(rng, jets_for) -> Workload:
    from srnf import germio, gx_group, subresonance

    cases = []
    cli = None
    for n, bound in GROUP_FAMILIES:
        family = inputs.group_family(rng, n, bound)
        g1, g2, g3 = (germio.parse_group_element(doc) for doc in family["generators"])
        a1, a2, a3 = (checks.Affine.from_document(doc) for doc in family["generators"])
        contracting = germio.parse_group_element(family["contracting"])
        lam = np.diag(contracting.h.spectrum.T)
        points = [0.3 * z / np.linalg.norm(z)
                  for z in rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))]
        # Inputs of the later operations are words computed here, once.
        w1 = gx_group.group_mul(g1, g2)
        w2 = gx_group.group_mul(w1, g3)
        w3 = gx_group.group_inv(w2)
        word, inverse = checks.Affine.from_element(w2), checks.Affine.from_element(w3)
        identity_size = [np.linalg.norm(word.size(inverse.size(np.abs(z)))) for z in points]
        shift, start = family["shift"], family["start"]
        h1, h2, h3 = (dict(g.h.jet.terms) for g in (g1, g2, g3))
        label = f"n{n}-b{bound}"
        common = {"lam": lam, "points": points}
        cases += [
            Case(f"{label}-mul", _call(gx_group, "group_mul", g1, g2),
                 functools.partial(checks.check_group_mul, factors=[a1, a2], **common),
                 _element_key),
            Case(f"{label}-mul-word", _call(gx_group, "group_mul", w1, g3),
                 functools.partial(checks.check_group_mul, factors=[a1, a2, a3], **common),
                 _element_key),
            Case(f"{label}-inv", _call(gx_group, "group_inv", w2),
                 functools.partial(checks.check_group_inv, g=word, **common), _element_key),
            Case(f"{label}-mul-inverse", _call(gx_group, "group_mul", w2, w3),
                 functools.partial(checks.check_identity, size=identity_size, **common),
                 _element_key),
            Case(f"{label}-translate", _call(gx_group, "translate_conjugate", g3.h, shift),
                 functools.partial(checks.check_translate, h=h3, tau=shift, **common), _terms),
            Case(f"{label}-sr-compose", _call(subresonance, "sr_compose", g1.h, g2.h),
                 functools.partial(checks.check_sr_compose, f=h1, g=h2, lam=lam,
                                   jets_for=jets_for), _terms),
            Case(f"{label}-sr-inverse", _call(subresonance, "sr_inverse", g2.h),
                 functools.partial(checks.check_sr_inverse, f=h2, lam=lam, jets_for=jets_for),
                 _terms),
            Case(f"{label}-orbit", _call(gx_group, "orbit", contracting, start, ORBIT_LENGTH),
                 functools.partial(checks.check_orbit,
                                   g=checks.Affine.from_document(family["contracting"]),
                                   start=start, k=ORBIT_LENGTH),
                 lambda output: output[0].tobytes()),
        ]
        if cli is None:
            first, second = family["generators"][:2]
            cli = CliRequest(
                ["group", "mul", "{first}", "{second}"], {"first": first, "second": second},
                lambda g1=g1, g2=g2: germio.dump_json(
                    germio.group_element_document(gx_group.group_mul(g1, g2))))
    return Workload(cases, warmup=8, largest="n8-b3-inv", cli=cli)


def _call(module, name: str, *args):
    """Call ``module.name(*args)``, looking the function up at call time."""
    return lambda: getattr(module, name)(*args)


def _terms(jet_or_map):
    """The terms of a jet (or of a sub-resonant map's jet), in stored order."""
    jet = getattr(jet_or_map, "jet", jet_or_map)
    return tuple(jet.terms.items())


def _element_key(element):
    return element.tau.tobytes(), _terms(element.h)
