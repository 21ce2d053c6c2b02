import math

import pytest
from hypothesis import example, given, strategies as st

from iitkit import differentiation
from iitkit.differentiation import (
    Differentiation,
    DifferentiationMethod,
    IndustryDetail,
    SharesReport,
    UnitValueRatio,
    classify_ff,
    classify_ghm,
    decompose_shares,
    unit_value_ratio,
)
from iitkit.indices import TradeType, TradeTypeMethod, classify_trade_type
from iitkit.sensitivity import (
    DEFAULT_ALPHA_GRID,
    alpha_sweep,
    nature_transitions,
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
    details, labels = [], []
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
        details.append(IndustryDetail(flow.key, trade_type, ratio, reason, amount / total))
        labels.append(label)
    return SharesReport(
        group.group_id, group.snapshot, family, alpha, type_method, total,
        iit / total, hiit / total, (hq + lq) / total, hq / total, lq / total,
        unclassified / total, tuple(details), tuple(labels),
    )


@st.composite
def sweep_cases(draw):
    """(family, type method, alpha grid, group): grids of up to 25 alphas, some one
    float apart; ratios on and one float either side of each band edge of the grid,
    free ratios, and unclassifiable and one-way members."""
    alphas = draw(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=20, unique=True))
    # Adjacent floats make the bisection of the grid probe neighbouring points.
    neighbours = draw(st.lists(st.sampled_from(alphas), max_size=5))
    alphas = sorted({*alphas, *(math.nextafter(a, 1.0) for a in neighbours)})
    edges = [e for a in alphas for e in (1 - a, 1 / (1 + a), 1 + a)]
    near_edge = [r for e in edges for r in (math.nextafter(e, 0.0), e, math.nextafter(e, 2.0))]
    ratio = st.one_of(st.sampled_from(near_edge), st.floats(0.01, 100.0))
    flows = []
    for i in range(draw(st.integers(1, 10))):
        code = f"{i:06d}"
        x = 2.0 ** draw(st.integers(-3, 3))  # export volume
        m = draw(st.floats(0.1, 10.0))  # import volume
        kind = draw(st.sampled_from(["ratio", "ratio", "missing", "zero-volume", "thin", "one-way"]))
        if kind == "ratio":  # X = ratio * x and M = m, so the ratio is exact
            flows.append(make_flow(draw(ratio) * x, m, x, m, code=code))
        elif kind == "missing":
            flows.append(make_flow(x, m, code=code))
        elif kind == "zero-volume":
            flows.append(make_flow(x, m, 0.0, m, code=code))
        elif kind == "thin":  # often one-way under aer only: IIT under ghm, none under ff
            flows.append(make_flow(64.0 * x, m, x, m, code=code))
        else:  # one-way under either type method
            flows.append(make_flow(x, 0.0, x, m, code=code))
    family = draw(st.sampled_from(["ghm", "ff"]))
    return family, draw(st.sampled_from([AER, VONA])), alphas, make_group(flows)


def _hand_picked(family):
    ratios = [0.3, 0.7, 0.86, 0.95, 1.0, 1.12, 1.16, 1.4, 2.5]
    group = make_group([ratio_flow(r, code=f"{i:06d}") for i, r in enumerate(ratios)])
    return family, AER, list(DEFAULT_ALPHA_GRID), group


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
            after = {d.key: label for d, label in zip(hi.details, hi.labels)}
            for d, before in zip(lo.details, lo.labels):
                if before is not None and after[d.key] is not before:
                    flips.append((d.key, a_hi, before, after[d.key]))
        assert [
            (f.key, f.alpha, f.label_before, f.label_after) for f in result.flip_points
        ] == flips
        for flip in result.flip_points:
            assert flip.label_before in (VH, VL) and flip.label_after is H

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
        assert calls <= len(ratios) * (2 + math.ceil(math.log2(len(alphas))))
        calls = 0  # a single alpha takes one band test per member
        decompose_shares(group, DifferentiationMethod("ghm", 0.15), AER)
        assert calls == len(ratios)

    def test_reports_share_one_details_tuple(self):
        group = make_group([ratio_flow(1.16), make_flow(100, 100, code="000002")])
        result = alpha_sweep(group, list(DEFAULT_ALPHA_GRID), "ghm", AER)
        assert all(r.details is result.reports[0].details for r in result.reports)

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

    def test_csv_shape(self):
        report = nature_transitions(self.panel(1.151, 1.149), 0.15, "ghm", AER)
        text = transitions_to_csv([report])
        lines = text.strip().splitlines()
        assert lines[0].startswith("group_id,reporter,partner")
        assert len(lines) == 2
        assert lines[1].endswith("True")
