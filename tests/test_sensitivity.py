import pytest

from iitkit.differentiation import Differentiation, DifferentiationMethod, decompose_shares
from iitkit.indices import TradeTypeMethod
from iitkit.sensitivity import (
    DEFAULT_ALPHA_GRID,
    alpha_sweep,
    nature_transitions,
    sweep_flips_to_csv,
    transitions_to_csv,
)

from conftest import make_flow, make_group

AER = TradeTypeMethod.abd_el_rahman()

H = Differentiation.HORIZONTAL
VH = Differentiation.VERTICAL_HIGH
VL = Differentiation.VERTICAL_LOW


def ratio_flow(ratio, code="000001", period="2020"):
    """Balanced two-way flow with the requested export/import unit-value ratio."""
    return make_flow(100.0 * ratio, 100.0, 100.0, 100.0, code=code, period=period)


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

    def test_nestedness_along_grid(self):
        ratios = [0.3, 0.7, 0.86, 0.95, 1.0, 1.12, 1.16, 1.4, 2.5]
        group = make_group(
            [ratio_flow(r, code=f"{i:06d}") for i, r in enumerate(ratios)]
        )
        for family in ("ghm", "ff"):
            result = alpha_sweep(group, list(DEFAULT_ALPHA_GRID), family, AER)
            for flip in result.flip_points:
                assert flip.label_after is H  # labels only move toward Horizontal

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
