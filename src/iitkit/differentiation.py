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
from iitkit.trade_data import FlowKey, IndustryFlow, IndustryGroup

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


@dataclass(frozen=True)
class IndustryDetail:
    """Per-industry line of a SharesReport: the facts that do not depend on alpha."""

    key: FlowKey
    trade_type: TradeType
    ratio: float | None
    unclassifiable: UnclassifiableReason | None
    contribution: float  # this industry's IIT amount as a share of group trade

    # Names of values(label), in order: the JSON keys of an industry line.
    FIELDS = (
        "period", "reporter", "partner", "industry_code",
        "trade_type", "ratio", "label", "unclassifiable", "contribution",
    )

    def values(self, label: Differentiation | None) -> tuple:
        """The industry line under `label`, the industry's label in its report."""
        return (
            *self.key,
            self.trade_type.value,
            self.ratio,
            label.value if label else None,
            self.unclassifiable.value if self.unclassifiable else None,
            self.contribution,
        )


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
    details: tuple[IndustryDetail, ...]
    labels: tuple[Differentiation | None, ...]  # aligned with details; None if not labelled

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
        """The members of the JSON form: FIELDS, then "industries", one line per detail."""
        industries = map(IndustryDetail.values, self.details, self.labels)
        return (
            *zip(self.FIELDS, self.values()),
            ("industries", Rows(IndustryDetail.FIELDS, industries)),
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


def _shares_table(reports: Iterable[SharesReport]) -> _CsvTable:
    """The header and rows of `reports_to_csv`."""
    return SharesReport.FIELDS, (r.values() for r in reports)


def reports_to_csv(reports: list[SharesReport]) -> str:
    """Flat CSV with one row per (group, method combination)."""
    return _csv_text(*_shares_table(reports))


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
    (report,), _ = _decompose(group, [diff_method], type_method)
    return report


def _shares_values(
    group: IndustryGroup,
    method: DifferentiationMethod,
    type_method: TradeTypeMethod,
    industries: list[tuple] | None = None,
) -> tuple:
    """`decompose_shares(group, method, type_method).values()`, with no record built.

    One `_members` pass feeds every sum, each the left fold in member order
    that `_decompose` makes, so the values are equal to the report's. Given
    `industries`, appends to it each member's industry line, as the
    report's `items()` gives it. Raises what `decompose_shares` raises.
    """
    total = _group_total(group)
    iit = unclassified = hiit = hq = lq = 0.0
    vertical_high = Differentiation.VERTICAL_HIGH
    for flow, trade_type, amount, ratio, reason, label, first in _members(
        group, (method,), type_method
    ):
        iit += amount
        if reason is not None:
            unclassified += amount
        if first == 0:
            hiit += amount
        elif label is vertical_high:
            hq += amount
        elif label is not None:
            lq += amount
        if industries is not None:  # _value_ is .value, without the descriptor's Python call
            industries.append((
                *flow.key, trade_type._value_, ratio, label._value_ if label else None,
                reason._value_ if reason else None, amount / total,
            ))
    return (
        *group.snapshot, group.group_id, method.family, method.alpha,
        type_method.kind, type_method.threshold, total, iit / total, hiit / total,
        (hq + lq) / total, hq / total, lq / total, unclassified / total,
    )


def _group_total(group: IndustryGroup) -> float:
    """The group's total trade; raises OverflowError when it exceeds the float range."""
    total = group.total_trade
    if total == math.inf:
        raise OverflowError(
            f"total trade of group {group.group_id!r} in {group.snapshot} exceeds the float range"
        )
    return total


def _check_group(group: IndustryGroup) -> None:
    """Raise the error `_decompose` would raise on `group`, if any.

    `_decompose` checks the total first, then forms each member's ratio in
    member order; nothing else it does can fail on a group `read_flows` and
    `apply_grouping` built. The CLI calls it only where `cli._sound` fails.
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


def _decompose(
    group: IndustryGroup, methods: Sequence[DifferentiationMethod], type_method: TradeTypeMethod
) -> tuple[list[SharesReport], list[tuple]]:
    """`decompose_shares` under each of `methods`, from one `_members` pass.

    At or past its first horizontal index a member is horizontal; before it
    it keeps its label under `methods[0]`. Only the sums repeat per method,
    each in member order, as in a decomposition of its own; all the reports
    share one details tuple. Returns the reports and the pass's members.
    """
    total = _group_total(group)
    members = list(_members(group, methods, type_method))
    iit = unclassified = 0.0
    for _, _, amount, _, reason, _, _ in members:
        iit += amount
        if reason is not None:
            unclassified += amount
    shared = tuple([IndustryDetail(m[0].key, m[1], m[3], m[4], m[2] / total) for m in members])

    reports = []
    horizontal, vertical_high = Differentiation.HORIZONTAL, Differentiation.VERTICAL_HIGH
    labels = tuple([m[5] for m in members])
    for k, method in enumerate(methods):
        hiit = hq = lq = 0.0
        for _, _, amount, _, _, label, first in members:
            if first <= k:
                hiit += amount
            elif label is vertical_high:
                hq += amount
            elif label is not None:
                lq += amount
        if k:  # at k = 0 the labels are those under methods[0]
            labels = tuple([horizontal if m[6] <= k else m[5] for m in members])
        reports.append(SharesReport(
            group.group_id, group.snapshot, method.family, method.alpha, type_method, total,
            iit / total, hiit / total, (hq + lq) / total, hq / total, lq / total,
            unclassified / total, shared, labels,
        ))
    return reports, members
