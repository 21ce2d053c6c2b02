"""Intra-industry trade indicators.

Two measurement families are covered. The trade-recovery family treats the
overlapped (balanced) part of an industry's exports and imports as
intra-industry: Balassa's net-trade index, its signed performance variant,
and the simple and synthetic Grubel-Lloyd indices. The type-of-trade family
labels an industry's entire trade as one-way or two-way from the
minority/majority flow ratio and aggregates the two-way share (Vona's
synthetic index, optionally with Abd-El-Rahman's 10% cutoff).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from iitkit.trade_data import IndustryFlow, IndustryGroup


class UndefinedIndexError(ValueError):
    """Raised for an industry with zero trade on both sides (X + M = 0)."""


def check_fraction(name: str, value: float) -> float:
    """Return `value` if 0 < value < 1; otherwise raise ValueError naming it."""
    if not 0 < value < 1:
        raise ValueError(f"{name} must be in (0, 1), got {value}")
    return value


class TradeType(Enum):
    ONE_WAY = "one_way"
    TWO_WAY = "two_way"


@dataclass(frozen=True)
class TradeTypeMethod:
    """Rule deciding whether an industry's trade is one-way or two-way.

    "vona" counts any bidirectional flow as two-way; "abd_el_rahman" further
    requires the minority flow to reach `threshold` (default 10%) of the
    majority flow, boundary inclusive.
    """

    kind: str
    threshold: float = 0.10

    def __post_init__(self) -> None:
        if self.kind not in ("vona", "abd_el_rahman"):
            raise ValueError(f"unknown trade-type method {self.kind!r}")
        if self.kind == "abd_el_rahman":
            check_fraction("threshold", self.threshold)

    @classmethod
    def vona(cls) -> "TradeTypeMethod":
        return cls("vona")

    @classmethod
    def abd_el_rahman(cls, threshold: float = 0.10) -> "TradeTypeMethod":
        return cls("abd_el_rahman", threshold)


def _nonzero_trade(flow: IndustryFlow) -> tuple[float, float]:
    """The X and M of `flow`, read once; raises UndefinedIndexError when X + M is 0."""
    x, m = flow.export_value, flow.import_value
    if x + m == 0:
        raise UndefinedIndexError(f"zero total trade for key {tuple(flow[:4])}")
    return x, m


def _nonzero_total(group: IndustryGroup) -> float:
    """`group.total_trade`, the left fold every report divides by; raises when it is 0."""
    total = group.total_trade
    if total == 0:
        raise UndefinedIndexError(f"zero total trade in group {group.group_id!r}")
    return total


def balassa_index(flow: IndustryFlow) -> float:
    """Net trade relative to total trade, |X - M| / (X + M), in [0, 1]."""
    x, m = _nonzero_trade(flow)
    return abs(x - m) / (x + m)


def balassa_performance(flow: IndustryFlow) -> float:
    """Signed trade balance ratio (X - M) / (X + M), in [-1, 1]."""
    x, m = _nonzero_trade(flow)
    return (x - m) / (x + m)


def grubel_lloyd_simple(flow: IndustryFlow) -> float:
    """Overlapped share of one industry's trade, 2*min(X, M) / (X + M)."""
    x, m = _nonzero_trade(flow)
    return 2.0 * min(x, m) / (x + m)


def grubel_lloyd_synthetic(group: IndustryGroup) -> float:
    """Overlapped share of a group's total trade, 2*sum(min) / sum(X + M)."""
    overlap = 0.0
    for _, _, _, _, x, m, _, _, _ in group.members:
        overlap += min(x, m)
    return 2.0 * overlap / _nonzero_total(group)


def classify_trade_type(flow: IndustryFlow, method: TradeTypeMethod) -> TradeType:
    """Label an industry one-way or two-way under the given rule."""
    return _trade_type(flow[4], flow[5], method, flow)


def _trade_type(x: float, m: float, method: TradeTypeMethod, flow: IndustryFlow) -> TradeType:
    """`classify_trade_type` of `flow`, whose X and M are `x` and `m`, read once by the caller.

    `flow` only names the key when its trade is zero.
    """
    if x + m == 0:
        raise UndefinedIndexError(f"zero total trade for key {tuple(flow[:4])}")
    minority = min(x, m)
    if minority == 0:
        return TradeType.ONE_WAY
    if method.kind == "vona":
        return TradeType.TWO_WAY
    if minority / max(x, m) >= method.threshold:  # boundary inclusive
        return TradeType.TWO_WAY
    return TradeType.ONE_WAY


def vona_synthetic(group: IndustryGroup, method: TradeTypeMethod) -> float:
    """Share of the group's trade carried by two-way industries, in [0, 1]."""
    two_way = 0.0
    for flow in group.members:
        _, _, _, _, x, m, _, _, _ = flow
        if _trade_type(x, m, method, flow) is TradeType.TWO_WAY:
            two_way += x + m
    return two_way / _nonzero_total(group)
