"""Closed-form cost and efficiency model for the mesh transform.

A transform of n = 2**m points costs 5*n*m FLOPs.  With ``a`` cycles to move
one datum between neighboring PEs and ``b`` cycles per FLOP, the predicted
fraction of cycles spent computing is

    eta = 5*b*m*n / (a_t*n + 5*b*m*n),   a_t = a (or 2a with doubled transfer)

which to first order is 1 - alpha/(5m) with alpha = a/b.  Everything is kept
as exact rationals so, e.g., a = 2, b = 3, m = 17 yields eta = 255/257.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .mesh import MeshConfig, _as_fraction
from .serial import log2_exact

MARGIN_THRESHOLD = Fraction(1, 20)


@dataclass(frozen=True)
class CostModel:
    """Per-datum transfer cost ``a`` and per-FLOP cost ``b``, both rational."""

    a: Fraction = Fraction(2)
    b: Fraction = MeshConfig.cycles_per_flop
    doubled_transfer: bool = False

    def __post_init__(self):
        object.__setattr__(self, "a", _as_fraction(self.a))
        object.__setattr__(self, "b", _as_fraction(self.b))
        if self.a < 0:
            raise ValueError("transfer cost a must be non-negative")
        if self.b <= 0:
            raise ValueError("compute cost b must be positive")

    @property
    def transfer_cost(self) -> Fraction:
        return 2 * self.a if self.doubled_transfer else self.a


def alpha(model: CostModel) -> Fraction:
    """Communication-to-computation cost ratio a/b."""
    return model.a / model.b


@dataclass(frozen=True)
class EfficiencyReport:
    """Efficiency eta in [0, 1], with the analytic fields populated for
    predictions and left None for ledger-measured values."""

    eta: Fraction
    eta_first_order: Fraction | None = None
    alpha: Fraction | None = None
    flops: int | None = None

    def __post_init__(self):
        if not 0 <= self.eta <= 1:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")


@dataclass(frozen=True)
class MarginCheck:
    margin: Fraction
    threshold: Fraction
    passed: bool


def flops_per_transform(n: int) -> int:
    """Exact FLOP count 5 * n * log2(n) of one n-point transform."""
    m = log2_exact(n)
    return 5 * n * m


def predict_efficiency(model: CostModel, n: int, m: int) -> EfficiencyReport:
    """Predicted efficiency of an n = 2**m point transform on the mesh."""
    first_order = 1 - check_margin(model, m).margin     # refuses m < 1 first
    if n != (1 << m):
        raise ValueError(f"n must equal 2**m; got n={n}, m={m}")
    compute = 5 * model.b * m * n
    eta = Fraction(compute, model.transfer_cost * n + compute)
    return EfficiencyReport(
        eta=eta,
        eta_first_order=first_order,
        alpha=alpha(model),
        flops=flops_per_transform(n),
    )


def check_margin(model: CostModel, m: int) -> MarginCheck:
    """Check the small-ratio condition alpha/(5m) << 1 behind the first-order
    efficiency expansion; passes when the margin stays below MARGIN_THRESHOLD."""
    if m < 1:
        raise ValueError("need at least one level (m >= 1)")
    margin = (model.transfer_cost / model.b) / (5 * m)
    return MarginCheck(margin=margin, threshold=MARGIN_THRESHOLD, passed=margin < MARGIN_THRESHOLD)


def reconcile(predicted, measured) -> Fraction:
    """Relative deviation |measured - predicted| / predicted of an observed
    efficiency from its prediction.  Both sides take an EfficiencyReport or
    a bare ratio."""
    predicted = (predicted.eta if isinstance(predicted, EfficiencyReport)
                 else _as_fraction(predicted))
    measured = measured.eta if isinstance(measured, EfficiencyReport) else _as_fraction(measured)
    if predicted == 0:
        raise ValueError("cannot reconcile against a zero prediction")
    return abs(measured - predicted) / predicted
