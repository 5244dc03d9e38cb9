"""Run configuration shared by the library pipeline and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .homological import DEFAULT_RES_TOL


@dataclass(frozen=True)
class RunConfig:
    """Tolerances and sampling controls.

    ``poincare_dulac`` reads ``res_tol`` and ``prune``; ``verify_conjugacy``
    reads ``sample_count``, ``sample_radius``, ``seed``, ``p_max`` and
    ``cauchy_tol``.
    """

    res_tol: float = DEFAULT_RES_TOL
    cauchy_tol: float = 1e-12
    p_max: int = 60
    prune: bool = True
    sample_count: int = 20
    sample_radius: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("res_tol", "cauchy_tol", "sample_radius"):
            if not 0 < getattr(self, name) < math.inf:   # NaN fails both comparisons
                raise ValidationError(f"{name} must be finite and positive")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.p_max < 1:
            raise ValidationError("p_max must be at least 1")
        if self.sample_count < 0:
            raise ValidationError("sample_count must be nonnegative")
