import copy
import math
import pickle

import pytest
from hypothesis import example, given, strategies as st

from iitkit import differentiation
from iitkit.differentiation import (
    Differentiation,
    DifferentiationMethod,
    IndustryLine,
    SharesReport,
    UnitValueRatio,
    classify_ff,
    classify_ghm,
    decompose_shares,
    unit_value_ratio,
)
from iitkit.indices import TradeType, TradeTypeMethod, classify_trade_type
from iitkit.trade_data import FlowKey
from iitkit.sensitivity import (
    DEFAULT_ALPHA_GRID,
    FlipPoint,
    Transition,
    TransitionReport,
    alpha_sweep,
    nature_transitions,
    sweep_flips,
    sweep_flips_to_csv,
    transitions_to_csv,
)

from conftest import make_flow, make_group

AER = TradeTypeMethod.abd_el_rahman()
VONA = TradeTypeMethod.vona()

H = Differentiation.HORIZONTAL
VH = Differentiation.VERTICAL_HIGH
VL = Differentiation.VERTICAL_LOW


def ratio_flow(ratio, code="000001", period="2020"):
    """Balanced two-way flow with the requested export/import unit-value ratio."""
    return make_flow(100.0 * ratio, 100.0, 100.0, 100.0, code=code, period=period)


def reference_report(group, family, alpha, type_method):
    """One full decomposition at one alpha, each label from classify_ghm/classify_ff."""
    classify = classify_ghm if family == "ghm" else classify_ff
    total = group.total_trade
    iit = hiit = hq = lq = unclassified = 0.0
    lines = []
    for flow in group.members:
        trade_type = classify_trade_type(flow, type_method)
        if family == "ghm":
            amount = 2.0 * min(flow.export_value, flow.import_value)
        else:
            amount = flow.total_trade if trade_type is TradeType.TWO_WAY else 0.0
        iit += amount
        uvr = unit_value_ratio(flow)
        ratio = uvr.ratio if isinstance(uvr, UnitValueRatio) else None
        label = reason = None
        if amount > 0 and ratio is not None:
            label = classify(ratio, alpha)
            if label is H:
                hiit += amount
            elif label is VH:
                hq += amount
            else:
                lq += amount
        elif amount > 0:
            reason = uvr
            unclassified += amount
        lines.append(IndustryLine(
            *flow.key, trade_type.value, ratio, label.value if label else None,
            reason.value if reason else None, amount / total,
        ))
    return SharesReport(
        group.group_id, group.snapshot, family, alpha, type_method, total,
        iit / total, hiit / total, (hq + lq) / total, hq / total, lq / total,
        unclassified / total, tuple(lines),
    )


def _member(draw, ratio, code, period="2020"):
    """A drawn flow: exact ratios from `ratio`, unclassifiable and one-way members."""
    x = 2.0 ** draw(st.integers(-3, 3))  # export volume
    m = draw(st.floats(0.1, 10.0))  # import volume
    kind = draw(st.sampled_from(["ratio", "ratio", "missing", "zero-volume", "thin", "one-way"]))
    if kind == "ratio":  # X = ratio * x and M = m, so the ratio is exact
        return make_flow(draw(ratio) * x, m, x, m, code=code, period=period)
    if kind == "missing":
        return make_flow(x, m, code=code, period=period)
    if kind == "zero-volume":
        return make_flow(x, m, 0.0, m, code=code, period=period)
    if kind == "thin":  # often one-way under aer only: IIT under ghm, none under ff
        return make_flow(64.0 * x, m, x, m, code=code, period=period)
    return make_flow(x, 0.0, x, m, code=code, period=period)  # one-way under either


def _near_edges(alphas):
    """Ratios on and one float either side of each band edge of the grid, and free ratios."""
    edges = [e for a in alphas for e in (1 - a, 1 / (1 + a), 1 + a)]
    near_edge = [r for e in edges for r in (math.nextafter(e, 0.0), e, math.nextafter(e, 2.0))]
    return st.one_of(st.sampled_from(near_edge), st.floats(0.01, 100.0))


ALPHA_GRIDS = st.lists(st.floats(0.001, 0.999), min_size=1, max_size=20, unique=True)
# Grids along which band edges collide in float: runs of adjacent floats,
# whose 1 + a or 1 - a round alike, and alphas too small to move an edge off 1.
COLLIDING_GRIDS = st.one_of(
    st.tuples(st.floats(0.001, 0.999), st.integers(1, 6)).map(
        lambda start: [start[0]] + [
            start[0] + math.ulp(start[0]) * k for k in range(1, start[1] + 1)
        ]
    ),
    st.lists(st.floats(1e-300, 1e-15), min_size=1, max_size=6, unique=True),
)


@st.composite
def sweep_cases(draw, grids=ALPHA_GRIDS):
    """(family, type method, alpha grid, group): grids of up to 25 alphas, some one
    float apart; ratios on and one float either side of each band edge of the grid,
    free ratios, and unclassifiable and one-way members."""
    alphas = draw(grids)
    # Adjacent floats make the bisection of the grid probe neighbouring points.
    neighbours = draw(st.lists(st.sampled_from(alphas), max_size=5))
    alphas = sorted({*alphas, *(math.nextafter(a, 1.0) for a in neighbours)})
    ratio = _near_edges(alphas)
    flows = [_member(draw, ratio, f"{i:06d}") for i in range(draw(st.integers(1, 10)))]
    family = draw(st.sampled_from(["ghm", "ff"]))
    return family, draw(st.sampled_from([AER, VONA])), alphas, make_group(flows)


def _hand_picked(family):
    ratios = [0.3, 0.7, 0.86, 0.95, 1.0, 1.12, 1.16, 1.4, 2.5]
    group = make_group([ratio_flow(r, code=f"{i:06d}") for i, r in enumerate(ratios)])
    return family, AER, list(DEFAULT_ALPHA_GRID), group


def _colliding():
    """1 + 0.3 and 1 + 0.30000000000000004 are one float, as are the edges of 1e-300
    and 1e-20, all 1.0; ratios on and one float either side of those edges."""
    alphas = [1e-300, 1e-20, 0.3, math.nextafter(0.3, 1.0), 0.5]
    edges = [1.0, 1.3, 0.7, 1 / 1.3]
    ratios = [r for e in edges for r in (math.nextafter(e, 0.0), e, math.nextafter(e, 2.0))]
    group = make_group([ratio_flow(r, code=f"{i:06d}") for i, r in enumerate(ratios)])
    return "ghm", AER, alphas, group


def reference_transitions(periods, family, alpha, type_method):
    """Transitions between consecutive groups of `periods`, which are in period order,
    matched on (reporter, partner, industry_code) from one full report per period."""
    reports = [reference_report(group, family, alpha, type_method) for group in periods]
    lines = [{line[1:4]: line for line in r.industries} for r in reports]
    transitions, skipped = [], 0
    for from_map, to_map in zip(lines, lines[1:]):
        for ident in sorted(from_map.keys() | to_map.keys()):
            line_from, line_to = from_map.get(ident), to_map.get(ident)
            label_from = line_from.label if line_from else None
            label_to = line_to.label if line_to else None
            if label_from is None or label_to is None:
                skipped += 1
            else:
                transitions.append(Transition(
                    FlowKey(*line_from[:4]), FlowKey(*line_to[:4]), line_from.ratio,
                    line_to.ratio, Differentiation(label_from), Differentiation(label_to),
                ))
    return TransitionReport("FRA", "DEU", "G", family, alpha, tuple(transitions), skipped)


PERIODS = ("2020M2", "2020M9", "2020M10", "2021M1")  # natural order, not lexical


@st.composite
def panel_cases(draw):
    """(family, type method, alpha, periods in order, the same groups shuffled): 2 to 4
    periods, each holding some of 6 industries, drawn as in `sweep_cases`."""
    alpha = draw(st.floats(0.001, 0.999))
    ratio = _near_edges([alpha])
    periods = []
    for i in sorted(draw(st.lists(st.integers(0, 3), min_size=2, max_size=4, unique=True))):
        codes = sorted(draw(st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True)))
        periods.append(make_group([_member(draw, ratio, f"{c:06d}", PERIODS[i]) for c in codes]))
    family = draw(st.sampled_from(["ghm", "ff"]))
    type_method = draw(st.sampled_from([AER, VONA]))
    return family, type_method, alpha, periods, draw(st.permutations(periods))


class TestAlphaSweep:
    def test_flip_at_wider_band(self):
        group = make_group([ratio_flow(1.16)])
        result = alpha_sweep(group, [0.15, 0.25], "ghm", AER)
        (flip,) = result.flip_points
        assert flip.alpha == 0.25
        assert (flip.label_before, flip.label_after) == (VH, H)

    def test_identity_ratio_never_flips(self):
        group = make_group([ratio_flow(1.0)])
        result = alpha_sweep(group, list(DEFAULT_ALPHA_GRID), "ghm", AER)
        assert result.flip_points == ()

    def test_low_side_flip(self):
        group = make_group([ratio_flow(0.86)])
        result = alpha_sweep(group, [0.10, 0.15], "ghm", AER)
        (flip,) = result.flip_points
        assert flip.alpha == 0.15
        assert (flip.label_before, flip.label_after) == (VL, H)

    def test_single_alpha_reproduces_decompose(self):
        group = make_group([ratio_flow(1.16), ratio_flow(0.5, code="000002")])
        result = alpha_sweep(group, [0.15], "ff", AER)
        direct = decompose_shares(group, DifferentiationMethod("ff", 0.15), AER)
        assert result.reports == (direct,)
        assert result.flip_points == ()

    @given(sweep_cases())
    @example(_hand_picked("ghm"))
    @example(_hand_picked("ff"))
    def test_nestedness_along_grid(self, case):
        """Each report equals a decomposition of its own at its alpha, and the
        flips are exactly the label changes, each from vertical to horizontal."""
        family, type_method, alphas, group = case
        result = alpha_sweep(group, alphas, family, type_method)
        expected = [reference_report(group, family, a, type_method) for a in alphas]
        assert list(result.reports) == expected
        flips = []
        for a_hi, lo, hi in zip(alphas[1:], expected, expected[1:]):
            after = {line[:4]: line.label for line in hi.industries}
            for line in lo.industries:
                if line.label is not None and after[line[:4]] != line.label:
                    flips.append((line[:4], a_hi, line.label, after[line[:4]]))
        assert [
            (tuple(f.key), f.alpha, f.label_before.value, f.label_after.value)
            for f in result.flip_points
        ] == flips
        for flip in result.flip_points:
            assert flip.label_before in (VH, VL) and flip.label_after is H

    @given(sweep_cases())
    @example(_hand_picked("ghm"))
    @example(_hand_picked("ff"))
    @example(_colliding())
    def test_sweep_flips_are_the_alpha_sweep_flips(self, case):
        family, type_method, alphas, group = case
        flips = sweep_flips(group, alphas, family, type_method)
        assert type(flips) is tuple
        assert flips == alpha_sweep(group, alphas, family, type_method).flip_points

    @pytest.mark.parametrize("family", ["ghm", "ff"])
    @given(case=st.one_of(sweep_cases(), sweep_cases(COLLIDING_GRIDS)))
    @example(case=_colliding())
    def test_bisected_first_index_is_a_linear_scan(self, family, case):
        """The member pass's first horizontal index is the first method whose
        `_band` calls the ratio horizontal; its label is the first method's."""
        _, type_method, alphas, group = case
        methods = [DifferentiationMethod(family, a) for a in alphas]
        for member in differentiation._members(group, methods, type_method):
            ratio, label, first = member[3], member[5], member[6]
            if label is None:
                assert first == len(methods)
                continue
            bands = [differentiation._band(ratio, m.lower, m.upper) for m in methods]
            assert label is bands[0]
            assert first == next((k for k, b in enumerate(bands) if b is H), len(methods))

    def test_band_tests_bisect_the_grid(self, monkeypatch):
        band, calls = differentiation._band, 0

        def counting_band(*args):
            nonlocal calls
            calls += 1
            return band(*args)

        monkeypatch.setattr(differentiation, "_band", counting_band)
        # Horizontal from the first alpha, flipping at every grid point, or never.
        ratios = [0.5 + 0.01 * i for i in range(101)]
        group = make_group([ratio_flow(r, code=f"{i:06d}") for i, r in enumerate(ratios)])
        alphas = [k / 40 for k in range(1, 21)]
        result = alpha_sweep(group, alphas, "ghm", AER)
        assert {f.alpha for f in result.flip_points} == set(alphas[1:])
        assert calls == len(ratios)  # one band test each; the edges are bisected
        calls = 0  # a single alpha takes one band test per member
        decompose_shares(group, DifferentiationMethod("ghm", 0.15), AER)
        assert calls == len(ratios)

    @given(sweep_cases())
    @example(_hand_picked("ghm"))
    @example(_hand_picked("ff"))
    def test_reports_share_each_line_whose_label_holds(self, case):
        """Adjacent reports hold one line object for an industry exactly when
        its label is the same at both alphas."""
        family, type_method, alphas, group = case
        reports = alpha_sweep(group, alphas, family, type_method).reports
        for lo, hi in zip(reports, reports[1:]):
            for before, after in zip(lo.industries, hi.industries):
                assert (after is before) == (after.label == before.label)

    def test_result_carries_its_group(self):
        group = make_group([ratio_flow(1.16)], group_id="G7")
        result = alpha_sweep(group, [0.15, 0.25], "ghm", AER)
        assert (result.group_id, result.snapshot) == ("G7", ("2020", "FRA", "DEU"))

    def test_alpha_validation(self):
        group = make_group([ratio_flow(1.0)])
        with pytest.raises(ValueError):
            alpha_sweep(group, [], "ghm", AER)
        with pytest.raises(ValueError):
            alpha_sweep(group, [0.25, 0.15], "ghm", AER)
        with pytest.raises(ValueError):
            alpha_sweep(group, [0.15, 1.5], "ghm", AER)

    def test_flip_csv_one_row_per_boundary(self):
        group = make_group([ratio_flow(1.16)])
        result = alpha_sweep(group, [0.05, 0.15, 0.25], "ghm", AER)
        text = sweep_flips_to_csv([result])
        lines = text.strip().splitlines()
        assert len(lines) == 1 + len(result.flip_points)

    def test_flip_point_round_trips(self):
        """A flip point the sweep builds is a named tuple: it equals and hashes
        as the tuple of its fields, and pickle, copy and _replace keep its type."""
        (flip,) = sweep_flips(make_group([ratio_flow(1.16)]), [0.15, 0.25], "ghm", AER)
        fields = (FlowKey("2020", "FRA", "DEU", "000001"), 0.25, VH, H)
        assert type(flip) is FlipPoint and type(flip.key) is FlowKey
        assert (flip, hash(flip)) == (fields, hash(fields))
        assert flip == FlipPoint(*fields) and flip._fields == FlipPoint._fields
        assert flip.values() == ("2020", "FRA", "DEU", "000001", 0.25, "vertical_high", "horizontal")
        copies = [
            copy.copy(flip), copy.deepcopy(flip), flip._replace(), FlipPoint._make(flip),
            *(pickle.loads(pickle.dumps(flip, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
        ]
        for copied in copies:
            assert type(copied) is FlipPoint
            assert (copied, hash(copied), repr(copied)) == (flip, hash(flip), repr(flip))
        moved = flip._replace(alpha=0.3)
        assert type(moved) is FlipPoint and moved == (*fields[:1], 0.3, *fields[2:])


class TestNatureTransitions:
    def panel(self, r_t, r_t1):
        return [
            make_group([ratio_flow(r_t, period="2020")]),
            make_group([ratio_flow(r_t1, period="2021")]),
        ]

    def test_hairline_crossing_flips(self):
        report = nature_transitions(self.panel(1.151, 1.149), 0.15, "ghm", AER)
        (t,) = report.transitions
        assert t.flipped
        assert (t.label_from, t.label_to) == (VH, H)

    def test_constant_ratio_never_flips(self):
        report = nature_transitions(self.panel(1.151, 1.151), 0.15, "ghm", AER)
        (t,) = report.transitions
        assert not t.flipped

    def test_wider_band_absorbs_the_crossing(self):
        report = nature_transitions(self.panel(1.151, 1.149), 0.25, "ghm", AER)
        (t,) = report.transitions
        assert not t.flipped
        assert (t.label_from, t.label_to) == (H, H)

    def test_report_carries_its_panel(self):
        report = nature_transitions(self.panel(1.0, 1.0), 0.15, "ghm", AER)
        assert (report.reporter, report.partner, report.group_id) == ("FRA", "DEU", "G")

    @pytest.mark.parametrize(
        "other",
        [
            make_group([ratio_flow(1.0, period="2021")], group_id="H"),
            make_group([make_flow(100, 100, 100, 100, period="2021", partner="USA")]),
            make_group([make_flow(100, 100, 100, 100, period="2021", reporter="ITA")]),
        ],
    )
    def test_rejects_mixed_panel(self, other):
        panel = [make_group([ratio_flow(1.0, period="2020")]), other]
        with pytest.raises(ValueError, match="mixes"):
            nature_transitions(panel, 0.15, "ghm", AER)

    def test_requires_two_periods(self):
        with pytest.raises(ValueError, match="2 periods"):
            nature_transitions([make_group([ratio_flow(1.0)])], 0.15, "ghm", AER)

    def test_industry_absent_in_one_period_is_skipped(self):
        panel = [
            make_group([ratio_flow(1.0, period="2020"), ratio_flow(1.2, code="000002", period="2020")]),
            make_group([ratio_flow(1.0, period="2021")]),
        ]
        report = nature_transitions(panel, 0.15, "ghm", AER)
        assert len(report.transitions) == 1
        assert report.skipped == 1

    def test_unclassifiable_in_one_period_is_skipped(self):
        panel = [
            make_group([make_flow(100, 100, period="2020")]),  # no volumes
            make_group([ratio_flow(1.0, period="2021")]),
        ]
        report = nature_transitions(panel, 0.15, "ghm", AER)
        assert report.transitions == ()
        assert report.skipped == 1

    @pytest.mark.parametrize("family, skipped, labelled", [("ghm", 3, 2), ("ff", 4, 1)])
    def test_skipped_counts(self, family, skipped, labelled):
        def period(p, codes):
            flows = {
                "000001": ratio_flow(1.0, code="000001", period=p),
                "000002": make_flow(100, 100, code="000002", period=p),  # no volumes
                "000003": ratio_flow(1.0, code="000003", period=p),
                "000004": ratio_flow(1.0, code="000004", period=p),
                # One-way under aer: IIT under ghm, none under ff.
                "000005": make_flow(100, 5, 100, 100, code="000005", period=p),
            }
            return make_group([flows[c] for c in codes])

        panel = [
            period("2020", ["000001", "000002", "000003", "000005"]),
            period("2021", ["000001", "000002", "000004", "000005"]),
        ]
        report = nature_transitions(panel, 0.15, family, AER)
        # 000002 is unlabelled in both periods and counts once; 000003 and
        # 000004 are each absent in one period; 000005 is unlabelled under ff.
        assert report.skipped == skipped
        assert len(report.transitions) == labelled

    def test_natural_period_order(self):
        # As plain strings 2020M10 sorts before 2020M2 and 2020M9.
        panel = [
            make_group([ratio_flow(1.0, period=p)]) for p in ("2020M10", "2020M2", "2020M9")
        ]
        report = nature_transitions(panel, 0.15, "ghm", AER)
        assert [(t.key_from.period, t.key_to.period) for t in report.transitions] == [
            ("2020M2", "2020M9"),
            ("2020M9", "2020M10"),
        ]

    def test_three_periods_produce_two_pairs(self):
        panel = [
            make_group([ratio_flow(1.151, period="2020")]),
            make_group([ratio_flow(1.149, period="2021")]),
            make_group([ratio_flow(1.151, period="2022")]),
        ]
        report = nature_transitions(panel, 0.15, "ghm", AER)
        assert [t.flipped for t in report.transitions] == [True, True]

    @given(panel_cases())
    def test_matches_full_reports_per_period(self, case):
        family, type_method, alpha, periods, shuffled = case
        expected = reference_transitions(periods, family, alpha, type_method)
        assert nature_transitions(shuffled, alpha, family, type_method) == expected

    def test_csv_shape(self):
        report = nature_transitions(self.panel(1.151, 1.149), 0.15, "ghm", AER)
        text = transitions_to_csv([report])
        lines = text.strip().splitlines()
        assert lines[0].startswith("group_id,reporter,partner")
        assert len(lines) == 2
        assert lines[1].endswith("True")
