#!/usr/bin/env python3
"""End-to-end demo on a resonant 2-d germ.

Computes the polynomial normal form of
F = (z1/4 + z1 z2 + z2^2,  z2/2 + z1^2), whose spectrum (1/4, 1/2)
carries the single resonance l1 = l2^2, prints the elimination trace and
the holonomy generator, and iterates the generator on a sample point.

Run:  python scripts/hopf_demo.py [--json]
"""

import argparse
import sys

import numpy as np

from srnf import (
    GermInput,
    PolyJet,
    holonomy_generator,
    orbit,
    poincare_dulac,
    verify_conjugacy,
)
from srnf.germio import dump_json, group_element_document, result_document


def build_germ() -> GermInput:
    jet = PolyJet(2, 3, {
        ((1, 0), 0): 0.25, ((1, 1), 0): 1.0, ((0, 2), 0): 1.0,
        ((0, 1), 1): 0.5, ((2, 0), 1): 1.0,
    })
    return GermInput(jet=jet, coordinates="adapted")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true",
                        help="dump the full result document instead of the summary")
    args = parser.parse_args()

    germ = build_germ()
    result = poincare_dulac(germ)
    generator = holonomy_generator(result)

    if args.json:
        sys.stdout.write(dump_json({
            "generator": group_element_document(generator),
            "result": result_document(result),
        }))
        return 0

    print("germ F:", germ.jet)
    print("spectrum:", result.spectrum)
    print("working degree:", result.trunc_degree)
    for step in result.steps:
        print(f"  degree {step.q}: kept {len(step.resonant.terms)} resonant "
              f"term(s), removed {len(step.eliminated.terms)}, "
              f"smallest divisor {step.divisor_min:.4g}")
    print("normal form P:", result.normal_form.jet)
    print("conjugator phi:", result.phi)
    print(f"coefficient residual: {result.coefficient_max:.3e}")

    report = verify_conjugacy(germ, result)
    print(f"pointwise residual (polynomial stage): {report.pointwise_max:.3e}")
    print(f"pointwise residual (straightened):     {report.straightened_max:.3e}")

    z = np.array([0.0, 1.0], dtype=complex)
    points, norms = orbit(generator, z, 8)
    print(f"\norbit of {z} under the holonomy generator:")
    for k, (point, norm) in enumerate(zip(points, norms)):
        print(f"  k={k}: ({point[0]:.6g}, {point[1]:.6g})  |.| = {norm:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
