"""Toolkit for measuring intra-industry trade and its horizontal/vertical split.

The package covers the full pipeline: ingesting bilateral trade flow tables,
computing overlap-based (Balassa, Grubel-Lloyd) and type-of-trade (Vona,
Abd-El-Rahman) indicators, classifying trade into horizontal vs. vertical
(high/low quality) differentiation from unit-value ratios, and probing how
sensitive those classifications are to the arbitrary threshold they rest on.
"""

from iitkit.trade_data import (
    FlowKey,
    IndustryFlow,
    IndustryGroup,
    apply_grouping,
    read_flows,
)
from iitkit.indices import (
    TradeType,
    TradeTypeMethod,
    balassa_index,
    balassa_performance,
    classify_trade_type,
    grubel_lloyd_simple,
    grubel_lloyd_synthetic,
    vona_synthetic,
)
from iitkit.differentiation import (
    Differentiation,
    DifferentiationMethod,
    SharesReport,
    UnclassifiableReason,
    UnitValueRatio,
    classify_ff,
    classify_ghm,
    decompose_shares,
    unit_value_ratio,
)
from iitkit.sensitivity import (
    SweepResult,
    TransitionReport,
    alpha_sweep,
    nature_transitions,
)

__all__ = [
    "FlowKey",
    "IndustryFlow",
    "IndustryGroup",
    "apply_grouping",
    "read_flows",
    "TradeType",
    "TradeTypeMethod",
    "balassa_index",
    "balassa_performance",
    "classify_trade_type",
    "grubel_lloyd_simple",
    "grubel_lloyd_synthetic",
    "vona_synthetic",
    "Differentiation",
    "DifferentiationMethod",
    "SharesReport",
    "UnclassifiableReason",
    "UnitValueRatio",
    "classify_ff",
    "classify_ghm",
    "decompose_shares",
    "unit_value_ratio",
    "SweepResult",
    "TransitionReport",
    "alpha_sweep",
    "nature_transitions",
]

__version__ = "0.1.0"
