#!/usr/bin/env python3
"""Survey sub-resonant structure over random contracting spectra.

For each drawn spectrum: the per-degree dimension of the sub-resonant
space, the count of exact resonances, the smallest homological divisor,
and a check that sub-resonant basis plus operator image spans every
degree.  Useful for eyeballing how quickly the polynomial algebra thins
out as the moduli spread.

Run:  python scripts/sr_survey.py [--trials 30] [--dim 3] [--seed 0]
"""

import argparse
import sys

import numpy as np

from srnf import (
    PolyJet,
    analyze_spectrum,
    build_matrix,
    enumerate_subresonant_basis,
    split_homogeneous,
)
from srnf.polymap import basis_dimension


def draw_spectrum(rng, n):
    lam_top = rng.uniform(0.45, 0.7)
    ratio = rng.uniform(1.1, 3.5)
    top_log = np.log(lam_top)
    interior = rng.uniform(ratio * top_log, top_log, size=max(0, n - 2))
    logs = np.sort(np.concatenate([[ratio * top_log], interior, [top_log]]))[:n]
    moduli = np.exp(logs)
    diag = moduli * np.exp(2j * np.pi * rng.uniform(size=n))
    T = np.diag(diag).astype(complex)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                T[i, j] = 0.2 * (rng.normal() + 1j * rng.normal())
    return analyze_spectrum(T)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=30)
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'moduli':<28} {'c0':>3} {'bound':>5} {'dim SR_q, q=2..':<16} "
          f"{'resonances':>10} {'min divisor':>12} {'span':>5}")
    for _ in range(args.trials):
        s = draw_spectrum(rng, args.dim)
        dims = [len(enumerate_subresonant_basis(s, q))
                for q in range(2, s.degree_bound + 1)]
        n_res = sum(len(split_homogeneous(s, PolyJet(s.n, q))
                            .resonant_positions)
                    for q in range(2, s.degree_bound + 1))
        min_div = np.inf
        span_ok = True
        for q in range(2, s.c0 + 2):
            m = build_matrix(s, q)
            divisors = np.abs(np.diagonal(m.entries))
            nonzero = divisors[divisors > 1e-9]
            if nonzero.size:
                min_div = min(min_div, float(nonzero.min()))
            dim = basis_dimension(s.n, q)
            rank = {pair: r for r, pair in enumerate(m.ordering.pairs)}
            cols = [m.entries]
            for key in enumerate_subresonant_basis(s, q):
                e = np.zeros((dim, 1), dtype=complex)
                e[rank[key], 0] = 1.0
                cols.append(e)
            if np.linalg.matrix_rank(np.hstack(cols), tol=1e-10) != dim:
                span_ok = False
        moduli = "(" + ", ".join(f"{m:.3f}" for m in s.moduli) + ")"
        print(f"{moduli:<28} {s.c0:>3} {s.degree_bound:>5} {str(dims):<16} "
              f"{n_res:>10} {min_div:>12.3e} {'ok' if span_ok else 'FAIL':>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
