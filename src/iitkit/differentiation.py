"""Unit-value ratios and the horizontal/vertical split of intra-industry trade.

Each industry's export/import unit-value ratio is compared to a band around 1.
The GHM rule uses the additive band [1-a, 1+a]; the FF rule uses the
ratio-symmetric band [1/(1+a), 1+a]. Ratios above the band mark
higher-quality exports (vertical-high), below it lower-quality exports
(vertical-low). `decompose_shares` turns a group of industries into the
IIT / HIIT / VIIT / HQVIIT / LQVIIT share table under either accounting
family: GHM attributes each industry's overlapped trade, FF attributes the
full trade of each two-way industry.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from iitkit.indices import TradeType, TradeTypeMethod, check_fraction, classify_trade_type
from iitkit.trade_data import IndustryFlow, IndustryGroup

FAMILIES = ("ghm", "ff")

ALPHA_DEFAULT = 0.15


class Differentiation(Enum):
    HORIZONTAL = "horizontal"
    VERTICAL_HIGH = "vertical_high"
    VERTICAL_LOW = "vertical_low"


class UnclassifiableReason(Enum):
    """Why an industry's unit-value ratio cannot be formed."""

    MISSING_VOLUME = "missing-volume"
    ZERO_VOLUME = "zero-volume"
    ZERO_VALUE = "zero-value"


@dataclass(frozen=True)
class UnitValueRatio:
    """Export and import unit values and their ratio (export over import)."""

    export_unit_value: float
    import_unit_value: float
    ratio: float


def _band_edges(family: str, alpha: float) -> tuple[float, float]:
    """Inclusive horizontal band [lower, upper] of a rule family at alpha."""
    lower = 1 - alpha if family == "ghm" else 1 / (1 + alpha)
    return lower, 1 + alpha


def _band(ratio: float, lower: float, upper: float) -> Differentiation:
    """Horizontal iff lower <= ratio <= upper (inclusive); vertical outside."""
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    if ratio > upper:
        return Differentiation.VERTICAL_HIGH
    if ratio < lower:
        return Differentiation.VERTICAL_LOW
    return Differentiation.HORIZONTAL


def classify_ghm(ratio: float, alpha: float) -> Differentiation:
    """Horizontal iff 1-alpha <= r <= 1+alpha (inclusive); vertical otherwise."""
    return _band(ratio, *_band_edges("ghm", alpha))


def classify_ff(ratio: float, alpha: float) -> Differentiation:
    """Horizontal iff 1/(1+alpha) <= r <= 1+alpha (inclusive); vertical otherwise."""
    return _band(ratio, *_band_edges("ff", alpha))


@dataclass(frozen=True)
class DifferentiationMethod:
    """Differentiation rule family ("ghm" or "ff") with its threshold alpha."""

    family: str
    alpha: float = ALPHA_DEFAULT
    # The inclusive band edges, derived from family and alpha.
    lower: float = field(init=False, repr=False, compare=False)
    upper: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown differentiation family {self.family!r}")
        check_fraction("alpha", self.alpha)
        lower, upper = _band_edges(self.family, self.alpha)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def classify(self, ratio: float) -> Differentiation:
        return _band(ratio, self.lower, self.upper)


def unit_value_ratio(flow: IndustryFlow) -> UnitValueRatio | UnclassifiableReason:
    """Compute X/x, M/m and their ratio, or say why that is impossible.

    Raises OverflowError when the ratio of finite positive inputs is not a
    positive finite float, because a unit value over- or underflowed.
    """
    values = _unit_values(flow)
    return values if isinstance(values, UnclassifiableReason) else UnitValueRatio(*values)


def _unit_values(flow: IndustryFlow) -> tuple[float, float, float] | UnclassifiableReason:
    """`unit_value_ratio` as a plain (X/x, M/m, ratio) tuple, for the per-flow loops."""
    if flow.export_volume is None or flow.import_volume is None:
        return UnclassifiableReason.MISSING_VOLUME
    if flow.export_volume == 0 or flow.import_volume == 0:
        return UnclassifiableReason.ZERO_VOLUME
    if flow.export_value == 0 or flow.import_value == 0:
        return UnclassifiableReason.ZERO_VALUE
    vux = flow.export_value / flow.export_volume
    vum = flow.import_value / flow.import_volume
    ratio = vux / vum if vum > 0 else math.inf  # M/m can underflow to 0
    if not 0 < ratio < math.inf:  # also false for NaN
        raise OverflowError(
            f"unit-value ratio of key {tuple(flow.key)} is {ratio}: "
            "a unit value over- or underflows the float range"
        )
    return vux, vum, ratio


class Rows(NamedTuple):
    """Flat records as value tuples under one field-name tuple: in JSON, a list of objects."""

    fields: tuple[str, ...]
    values: Iterable[tuple]


def _plain(value):
    """The JSON form of `value`: each report record a dict, each Rows or sequence a list.

    A report record is anything with `items()`, the (key, value) pairs of its
    JSON object in order.
    """
    if hasattr(value, "items"):
        return {key: _plain(member) for key, member in value.items()}
    if isinstance(value, Rows):
        return [dict(zip(value.fields, row)) for row in value.values]
    if isinstance(value, (list, tuple)):
        return [_plain(member) for member in value]
    return value


class IndustryLine(NamedTuple):
    """One industry of a SharesReport under its method; the fields are the JSON keys."""

    period: str
    reporter: str
    partner: str
    industry_code: str
    trade_type: str  # a TradeType value
    ratio: float | None
    label: str | None  # a Differentiation value; None without IIT or ratio
    unclassifiable: str | None  # an UnclassifiableReason value; None unless IIT lacks a ratio
    contribution: float  # this industry's IIT amount as a share of group trade


@dataclass(frozen=True)
class SharesReport:
    """IIT share decomposition of one industry group under one method pair.

    All share fields are fractions of the group's total trade. hiit + viit
    equals iit minus unclassified_share; hqviit + lqviit equals viit.
    """

    group_id: str
    snapshot: tuple[str, str, str]
    family: str
    alpha: float
    type_method: TradeTypeMethod
    total_trade: float
    iit: float
    hiit: float
    viit: float
    hqviit: float
    lqviit: float
    unclassified_share: float
    industries: tuple[IndustryLine, ...]

    # Names of values(), in order: the JSON keys before "industries" and the CSV header.
    FIELDS = (
        "period", "reporter", "partner", "group_id", "family", "alpha",
        "type_method", "aer_threshold", "total_trade", "iit", "hiit", "viit",
        "hqviit", "lqviit", "unclassified_share",
    )

    def values(self) -> tuple:
        return (
            *self.snapshot, self.group_id, self.family, self.alpha,
            self.type_method.kind, self.type_method.threshold, self.total_trade,
            self.iit, self.hiit, self.viit, self.hqviit, self.lqviit,
            self.unclassified_share,
        )

    def items(self) -> tuple[tuple[str, object], ...]:
        """The members of the JSON form: FIELDS, then "industries", one object per line."""
        return (
            *zip(self.FIELDS, self.values()),
            ("industries", Rows(IndustryLine._fields, self.industries)),
        )

    def to_dict(self) -> dict:
        return _plain(self)


# A CSV report before it is written: its header and its rows.
_CsvTable = tuple[tuple[str, ...], Iterator[tuple]]


def _write_csv(fh: IO[str], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the header, then each row, one `fh.write` per line, each ended by a bare newline."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The text `_write_csv` writes."""
    buf = io.StringIO()
    _write_csv(buf, header, rows)
    return buf.getvalue()


def reports_to_csv(reports: list[SharesReport]) -> str:
    """Flat CSV with one row per (group, method combination)."""
    return _csv_text(SharesReport.FIELDS, (r.values() for r in reports))


def decompose_shares(
    group: IndustryGroup,
    diff_method: DifferentiationMethod,
    type_method: TradeTypeMethod,
) -> SharesReport:
    """Decompose a group's trade into IIT and its horizontal/vertical parts.

    GHM accounting counts each industry's overlap 2*min(X, M) as IIT and
    attributes it wholly by classify_ghm on the industry's ratio. FF
    accounting counts the full trade X+M of each two-way industry (per
    `type_method`) and attributes it by classify_ff. Industries whose ratio
    cannot be formed move their IIT amount into unclassified_share. Raises
    OverflowError when the group's total trade exceeds the float range.
    """
    members: list[tuple] = []
    (values,) = _shares_values(group, (diff_method,), type_method, members)
    return SharesReport(
        group.group_id, group.snapshot, diff_method.family, diff_method.alpha, type_method,
        *values[8:], _industry_lines(members, values[8], 0),
    )


def _shares_values(
    group: IndustryGroup,
    methods: Sequence[DifferentiationMethod],
    type_method: TradeTypeMethod,
    members: list[tuple] | None = None,
) -> list[tuple]:
    """`decompose_shares(group, method, type_method).values()` for each of `methods`.

    `methods` are as `_members` takes them. One `_members` pass, listed, feeds
    every sum, each a left fold in member order; at or past its first
    horizontal index a member is horizontal, before it it keeps its label
    under `methods[0]`. Given `members`, extends it with the pass's members.
    Raises what `decompose_shares` raises: first on the group's total, then
    on the first member whose ratio cannot be formed.
    """
    total = _group_total(group)
    if members is None:
        members = []
    members.extend(_members(group, methods, type_method))
    iit = unclassified = 0.0
    for _, _, amount, _, reason, _, _ in members:
        iit += amount
        if reason is not None:
            unclassified += amount
    vertical_high, tables = Differentiation.VERTICAL_HIGH, []
    for k, method in enumerate(methods):
        hiit = hq = lq = 0.0
        for _, _, amount, _, _, label, first in members:
            if first <= k:
                hiit += amount
            elif label is vertical_high:
                hq += amount
            elif label is not None:
                lq += amount
        tables.append((
            *group.snapshot, group.group_id, method.family, method.alpha,
            type_method.kind, type_method.threshold, total, iit / total, hiit / total,
            (hq + lq) / total, hq / total, lq / total, unclassified / total,
        ))
    return tables


def _industry_lines(members: Iterable[tuple], total: float, k: int) -> tuple[IndustryLine, ...]:
    """The industry lines of `_members` members under the k-th method, of group trade `total`."""
    horizontal = Differentiation.HORIZONTAL
    lines = []
    for flow, trade_type, amount, ratio, reason, label, first in members:
        if first <= k:
            label = horizontal
        lines.append(IndustryLine(  # _value_ is .value, without the descriptor's Python call
            *flow.key, trade_type._value_, ratio, label._value_ if label else None,
            reason._value_ if reason else None, amount / total,
        ))
    return tuple(lines)


def _group_total(group: IndustryGroup) -> float:
    """The group's total trade; raises OverflowError when it exceeds the float range."""
    total = group.total_trade
    if total == math.inf:
        raise OverflowError(
            f"total trade of group {group.group_id!r} in {group.snapshot} exceeds the float range"
        )
    return total


def _check_group(group: IndustryGroup) -> None:
    """Raise the error `_shares_values` would raise on `group`, if any.

    `_shares_values` checks the total first, then forms each member's ratio
    in member order; nothing else it does can fail on a group `read_flows`
    and `apply_grouping` built. The CLI calls it only where `cli._check`
    cannot prove a table sound.
    """
    _group_total(group)
    for member in group.members:
        _unit_values(member)


def _members(
    group: IndustryGroup, methods: Sequence[DifferentiationMethod], type_method: TradeTypeMethod
) -> Iterator[tuple]:
    """The member pass every report is a projection of, one member at a time.

    `methods` share one family, alphas strictly increasing. Yields per member:
    the flow, its trade type, its IIT amount, its ratio (None if it has none),
    why it has none (only if it has IIT), its label under `methods[0]` (None
    without IIT or ratio) and the index of the first method that calls it
    horizontal, len(methods) if none does. Along increasing alpha the float
    band edges are monotone and `_band` compares the ratio with the same
    floats, inclusively, so bisecting the `upper` edges (a ratio above the
    band) or the negated `lower` edges (below it) finds that index. The
    caller checks the group's total first, with `_group_total`.
    """
    ghm = methods[0].family == "ghm"
    lower, upper = methods[0].lower, methods[0].upper
    count, two_way = len(methods), TradeType.TWO_WAY
    if count > 1:  # under one method a vertical member's index is 1: nothing to bisect
        uppers = [m.upper for m in methods]
        negated_lowers = [-m.lower for m in methods]
    horizontal, vertical_high = Differentiation.HORIZONTAL, Differentiation.VERTICAL_HIGH
    for flow in group.members:
        trade_type = classify_trade_type(flow, type_method)
        if ghm:
            amount = 2.0 * min(flow.export_value, flow.import_value)
        else:
            amount = flow.total_trade if trade_type is two_way else 0.0
        uvr = _unit_values(flow)
        ratio = reason = label = None
        first = count
        if isinstance(uvr, UnclassifiableReason):
            reason = uvr if amount > 0 else None
        else:
            ratio = uvr[2]
            if amount > 0:
                label = _band(ratio, lower, upper)
                if label is horizontal:
                    first = 0
                elif count > 1:
                    first = (
                        bisect_left(uppers, ratio) if label is vertical_high
                        else bisect_left(negated_lowers, -ratio)
                    )
        yield flow, trade_type, amount, ratio, reason, label, first
