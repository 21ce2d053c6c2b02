"""Threshold-sensitivity probes for the horizontal/vertical decomposition.

The horizontal band is arbitrary: widening alpha can silently re-label an
industry, and a tiny period-over-period movement of the unit-value ratio
across the band edge flips its assigned nature. `alpha_sweep` decomposes a
group once over an alpha grid: since the band only widens with alpha, each
industry is horizontal from one grid point on, found by one band test and
one bisection of the grid's band edges, and its labels and its one flip
follow from that point; its reports share each industry line whose label
holds from one alpha to the next, and `sweep_flips` gives the flips alone.
`nature_transitions` records flips across consecutive periods of a panel
at a fixed alpha, from each period's labels alone. The CLI writes these
records as they are. Flips are detected on labels, not on ratio movements,
so hairline crossings are reported rather than smoothed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from iitkit.differentiation import (
    Differentiation,
    DifferentiationMethod,
    Rows,
    SharesReport,
    _CsvTable,
    _csv_text,
    _group_total,
    _industry_lines,
    _members,
    _plain,
    _shares_values,
)
from iitkit.indices import TradeTypeMethod, check_fraction
from iitkit.trade_data import FlowKey, IndustryGroup

# perfbench/tracer.py wraps decompose_shares by its name on this module.
from iitkit.differentiation import decompose_shares  # noqa: F401

DEFAULT_ALPHA_GRID = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


@dataclass(frozen=True)
class FlipPoint:
    """An industry whose label changes between two adjacent alphas."""

    key: FlowKey
    alpha: float  # grid point at which the new label first holds
    label_before: Differentiation
    label_after: Differentiation

    # Names of values(), in order: the JSON keys, and the CSV header after "group_id".
    FIELDS = (
        "period", "reporter", "partner", "industry_code",
        "alpha", "label_before", "label_after",
    )

    def values(self) -> tuple:
        return (*self.key, self.alpha, self.label_before.value, self.label_after.value)


@dataclass(frozen=True)
class SweepResult:
    """The share tables of one industry group over an alpha grid, and its flips."""

    group_id: str
    snapshot: tuple[str, str, str]
    alphas: tuple[float, ...]
    reports: tuple[SharesReport, ...]
    flip_points: tuple[FlipPoint, ...]

    def items(self) -> tuple[tuple[str, object], ...]:
        """The members of the JSON form, in order."""
        return (
            ("group_id", self.group_id),
            *zip(("period", "reporter", "partner"), self.snapshot),
            ("alphas", self.alphas),
            ("reports", self.reports),
            ("flip_points", Rows(FlipPoint.FIELDS, map(FlipPoint.values, self.flip_points))),
        )

    def to_dict(self) -> dict:
        return _plain(self)


class Transition(NamedTuple):
    """One industry observed in two consecutive periods."""

    key_from: FlowKey
    key_to: FlowKey
    ratio_from: float
    ratio_to: float
    label_from: Differentiation
    label_to: Differentiation

    # Names of values(), in order: the JSON keys, and the CSV header after "group_id".
    FIELDS = (
        "reporter", "partner", "industry_code", "period_from", "period_to",
        "ratio_from", "ratio_to", "label_from", "label_to", "flipped",
    )

    @property
    def flipped(self) -> bool:
        return self.label_from is not self.label_to

    def values(self) -> tuple:
        key_from, key_to, ratio_from, ratio_to, label_from, label_to = self
        return (  # _value_ is what .value returns, without the descriptor's Python call
            *key_from[1:], key_from[0], key_to[0], ratio_from, ratio_to,
            label_from._value_, label_to._value_, label_from is not label_to,
        )

    def to_dict(self) -> dict:
        return dict(zip(self.FIELDS, self.values()))


@dataclass(frozen=True)
class TransitionReport:
    """The transitions of one industry group of one reporter/partner pair over its periods."""

    reporter: str
    partner: str
    group_id: str
    family: str
    alpha: float
    transitions: tuple[Transition, ...]
    skipped: int  # industries absent or unlabelled in either period of a pair

    def items(self) -> tuple[tuple[str, object], ...]:
        """The members of the JSON form, in order."""
        return (
            ("reporter", self.reporter),
            ("partner", self.partner),
            ("group_id", self.group_id),
            ("family", self.family),
            ("alpha", self.alpha),
            ("skipped", self.skipped),
            ("transitions", Rows(Transition.FIELDS, map(Transition.values, self.transitions))),
        )

    def to_dict(self) -> dict:
        return _plain(self)


def _validate_alphas(alphas: Sequence[float]) -> tuple[float, ...]:
    if not alphas:
        raise ValueError("alphas must be nonempty")
    for a in alphas:
        check_fraction("alpha", a)
    for lo, hi in zip(alphas, alphas[1:]):
        if lo >= hi:
            raise ValueError(f"alphas must be strictly increasing, got {lo} before {hi}")
    return tuple(alphas)


def _flips(alphas: tuple[float, ...], members: Iterable[tuple]) -> tuple[FlipPoint, ...]:
    """The flips of a `_members` pass over `alphas`: by boundary, then in member order."""
    flipping = [(m[6], m[0].key, m[5]) for m in members if 0 < m[6] < len(alphas)]
    flipping.sort(key=itemgetter(0))  # by first horizontal index, stable
    horizontal = Differentiation.HORIZONTAL
    return tuple([FlipPoint(key, alphas[k], label, horizontal) for k, key, label in flipping])


def alpha_sweep(
    group: IndustryGroup, alphas: Sequence[float], family: str, type_method: TradeTypeMethod
) -> SweepResult:
    """The share table at each alpha, and the label flips between adjacent alphas.

    Along increasing alpha the horizontal band only widens, so a member
    flips at most once, at the first alpha that calls it horizontal, from
    its label at the first alpha. A member's line is its line at the first
    alpha until it flips and its line at the last alpha from then on, one
    object each, shared by the reports.
    """
    alphas = _validate_alphas(alphas)
    methods = [DifferentiationMethod(family, a) for a in alphas]
    members: list[tuple] = []
    tables = _shares_values(group, methods, type_method, members)
    before, after = (_industry_lines(members, tables[0][8], k) for k in (0, len(alphas) - 1))
    reports = []
    for k, (alpha, values) in enumerate(zip(alphas, tables)):
        lines = tuple([a if 0 < m[6] <= k else b for m, b, a in zip(members, before, after)])
        reports.append(SharesReport(
            group.group_id, group.snapshot, family, alpha, type_method, *values[8:], lines
        ))
    return SweepResult(
        group.group_id, group.snapshot, alphas, tuple(reports), _flips(alphas, members)
    )


def sweep_flips(
    group: IndustryGroup, alphas: Sequence[float], family: str, type_method: TradeTypeMethod
) -> tuple[FlipPoint, ...]:
    """The flip points of `alpha_sweep` alone, from the same pass; raises as it does."""
    alphas = _validate_alphas(alphas)
    methods = [DifferentiationMethod(family, a) for a in alphas]
    _group_total(group)
    return _flips(alphas, _members(group, methods, type_method))


def _period_order(period: str) -> tuple[list, str]:
    """Natural sort key: digit runs compare as integers, so 2020M9 < 2020M10.

    `re.split` with a capturing group puts the digit runs at odd positions,
    so two keys never compare a str with an int; the raw label breaks ties
    such as 2020M9 vs 2020M09.
    """
    parts: list = re.split(r"(\d+)", period)
    parts[1::2] = map(int, parts[1::2])
    return parts, period


def nature_transitions(
    panel: Iterable[IndustryGroup],
    alpha: float,
    family: str,
    type_method: TradeTypeMethod,
) -> TransitionReport:
    """Track label changes of each industry across consecutive periods.

    `panel` holds one group per period, all with the same reporter, partner
    and group id. Periods are ordered naturally by label, digit runs as
    numbers. Industries absent or unlabelled (no IIT or no ratio) in either
    period of a pair are skipped, and counted once per pair. Each period's
    keys, ratios and labels come from one member pass at `alpha`, with no
    share table built; raises what `decompose_shares` raises on a period.
    For each pair of consecutive periods, the industries of either are
    taken in order of their code, which is their order by (reporter,
    partner, industry_code) in one panel.
    """
    groups = list(panel)
    panels = {(*g.snapshot[1:], g.group_id) for g in groups}
    if len(panels) > 1:
        raise ValueError(f"panel mixes reporter/partner/group: {sorted(panels)}")
    periods: set[str] = set()
    for group in groups:
        period = group.snapshot[0]
        if period in periods:
            raise ValueError(f"duplicate period {period!r} in panel")
        periods.add(period)
    if len(periods) < 2:
        raise ValueError(f"panel needs at least 2 periods, got {len(periods)}")

    methods = [DifferentiationMethod(family, alpha)]
    by_code = []
    for group in sorted(groups, key=lambda g: _period_order(g.snapshot[0])):
        _group_total(group)
        by_code.append({
            flow.key[3]: (flow.key, ratio, label)
            for flow, _, _, ratio, _, label, _ in _members(group, methods, type_method)
        })

    transitions = []
    skipped = 0
    absent = (None, None, None)
    for from_map, to_map in zip(by_code, by_code[1:]):
        for code in sorted(from_map.keys() | to_map.keys()):
            key_from, ratio_from, label_from = from_map.get(code, absent)
            key_to, ratio_to, label_to = to_map.get(code, absent)
            if label_from is None or label_to is None:
                skipped += 1
            else:
                transitions.append(
                    Transition(key_from, key_to, ratio_from, ratio_to, label_from, label_to)
                )
    (reporter, partner, group_id), = panels
    return TransitionReport(
        reporter, partner, group_id, family, alpha, tuple(transitions), skipped
    )


def _flips_table(flips: Iterable[tuple[str, tuple[FlipPoint, ...]]]) -> _CsvTable:
    """The header and rows of a flip table, from each group id with its flip points."""
    return (
        ("group_id", *FlipPoint.FIELDS),
        ((group_id, *f.values()) for group_id, points in flips for f in points),
    )


def sweep_flips_to_csv(sweeps: list[SweepResult]) -> str:
    """Flip table CSV: one row per (industry, alpha boundary)."""
    return _csv_text(*_flips_table((s.group_id, s.flip_points) for s in sweeps))


def _transitions_table(reports: Iterable[TransitionReport]) -> _CsvTable:
    """The header and rows of `transitions_to_csv`."""
    return (
        ("group_id", *Transition.FIELDS),
        ((r.group_id, *t.values()) for r in reports for t in r.transitions),
    )


def transitions_to_csv(reports: list[TransitionReport]) -> str:
    """Transition table CSV: one row per (industry, period boundary)."""
    return _csv_text(*_transitions_table(reports))
