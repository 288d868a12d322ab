"""Piecewise runtime-cost formulas for the decomposition-based simulation.

All hidden constants are taken as 1, so values are relative cost indicators
rather than wall-clock predictions. The additive k*D^2 term is kept separate
from the leading k-factor (an alternative reading folds D^2 inside it); the
instantiated formula text records this choice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidSpec, MissingGCost
from .groups import FiniteMatrixGroup, center_and_abelian
from .histogram import _is_int, _is_real

CASES = ("abelian", "symmetric", "general")


@dataclass(frozen=True)
class CostParams:
    case: str
    k: int
    m: int
    n: int
    order: int
    dmax: int
    g_cost: float | None = None

    def __post_init__(self):
        if self.case not in CASES:
            raise InvalidSpec(f"case must be one of {CASES}, got {self.case!r}")
        for name in ("k", "m", "n", "order", "dmax"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise InvalidSpec(f"{name} must be a positive integer, got {value!r}")
        if self.g_cost is not None and not (_is_real(self.g_cost) and self.g_cost > 0):
            raise InvalidSpec(f"g_cost must be finite and positive, got {self.g_cost!r}")


@dataclass(frozen=True)
class CostEstimate:
    value: float
    formula_text: str


def estimate_cost(p: CostParams) -> CostEstimate:
    """Evaluate the case formula with unit constants.

    abelian:   k(m + |G|(1 + k^2 + k^3)) + kD^2
    symmetric: k(mn^2 + |G|(n^2 + k^2 n^2 + k^3)) + kD^2
    general:   k(mg + |G|(g + k^2 g + k^3)) + kD^2, g supplied by the caller
    """
    k, m, n, order, d = p.k, p.m, p.n, p.order, p.dmax
    tail = k * d * d
    tail_text = f"{k}*{d}^2 (additive kD^2 term kept outside the k-factor)"
    if p.case == "abelian":
        value = k * (m + order * (1 + k ** 2 + k ** 3)) + tail
        text = f"{k}*({m} + {order}*(1 + {k}^2 + {k}^3)) + {tail_text}"
    elif p.case == "symmetric":
        value = k * (m * n ** 2 + order * (n ** 2 + k ** 2 * n ** 2 + k ** 3)) + tail
        text = (f"{k}*({m}*{n}^2 + {order}*({n}^2 + {k}^2*{n}^2 + {k}^3)) + {tail_text}")
    else:
        if p.g_cost is None:
            raise MissingGCost("general case requires g_cost")
        g = float(p.g_cost)
        value = k * (m * g + order * (g + k ** 2 * g + k ** 3)) + tail
        text = (f"{k}*({m}*{g:g} + {order}*({g:g} + {k}^2*{g:g} + {k}^3)) + {tail_text}")
    return CostEstimate(value=float(value), formula_text=f"{text} = {float(value):g}")


def classify_group(group: FiniteMatrixGroup) -> str:
    """abelian is detected from the center; symmetric cannot be detected
    reliably, so a caller that knows it passes the case to `CostParams`
    directly; everything else is general."""
    return "abelian" if center_and_abelian(group)[1] else "general"
