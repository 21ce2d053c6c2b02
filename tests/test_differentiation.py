import math
from bisect import bisect_left

import pytest
from hypothesis import assume, example, given, strategies as st

from iitkit import differentiation
from iitkit.differentiation import (
    Differentiation,
    DifferentiationMethod,
    UnclassifiableReason,
    UnitValueRatio,
    classify_ff,
    classify_ghm,
    decompose_shares,
    reports_to_csv,
    unit_value_ratio,
)
from iitkit.indices import (
    TradeType,
    TradeTypeMethod,
    UndefinedIndexError,
    grubel_lloyd_synthetic,
    vona_synthetic,
)

from conftest import make_flow, make_group

AER = TradeTypeMethod.abd_el_rahman()
GHM = DifferentiationMethod("ghm", 0.15)
FF = DifferentiationMethod("ff", 0.15)

H = Differentiation.HORIZONTAL
VH = Differentiation.VERTICAL_HIGH
VL = Differentiation.VERTICAL_LOW


class TestUnitValueRatio:
    def test_high_quality_export_ratio(self):
        uvr = unit_value_ratio(make_flow(116, 100, 100, 100))
        assert isinstance(uvr, UnitValueRatio)
        assert uvr.ratio == pytest.approx(1.16, abs=1e-12)

    def test_low_quality_export_ratio(self):
        uvr = unit_value_ratio(make_flow(100, 116, 100, 100))
        assert uvr.ratio == pytest.approx(1 / 1.16, abs=1e-12)
        assert round(uvr.ratio, 2) == 0.86

    def test_missing_volume(self):
        assert unit_value_ratio(make_flow(100, 100)) is UnclassifiableReason.MISSING_VOLUME

    def test_zero_volume(self):
        assert unit_value_ratio(make_flow(100, 100, 10, 0)) is UnclassifiableReason.ZERO_VOLUME

    def test_zero_value_side(self):
        assert unit_value_ratio(make_flow(0, 100, 10, 10)) is UnclassifiableReason.ZERO_VALUE

    @pytest.mark.parametrize(
        "flow",
        [
            make_flow(1e300, 1e300, 1e-10, 1e-10),  # both unit values inf: ratio NaN
            make_flow(1e300, 1e-10, 1e-10, 1e290),  # ratio overflows
            make_flow(1e-300, 1e300, 1e300, 1e-300),  # ratio underflows to 0
            make_flow(1, 2.225073858507203e-309, 1, 900719925474100.0),  # M/m underflows to 0
        ],
    )
    def test_ratio_outside_float_range_raises(self, flow):
        with pytest.raises(OverflowError, match=r"key \('2020', 'FRA', 'DEU', '000001'\)"):
            unit_value_ratio(flow)

    def test_group_total_beyond_float_range_raises(self):
        group = make_group([make_flow(1e308, 0, code="000001"), make_flow(1e308, 0, code="000002")])
        with pytest.raises(OverflowError, match="total trade of group 'G'"):
            decompose_shares(group, GHM, AER)


class TestClassifyGhm:
    def test_worked_example(self):
        assert classify_ghm(1.16, 0.15) is VH
        assert classify_ghm(0.86, 0.15) is H

    def test_wider_band_flips_to_horizontal(self):
        assert classify_ghm(1.16, 0.25) is H

    def test_band_edges_inclusive(self):
        assert classify_ghm(0.85, 0.15) is H
        assert classify_ghm(1.15, 0.15) is H

    def test_vertical_low(self):
        assert classify_ghm(0.5, 0.15) is VL

    def test_inversion_asymmetry_witness(self):
        # 1.16 and its reciprocal land on different sides of the additive band.
        assert classify_ghm(1.16, 0.15) is VH
        assert classify_ghm(1 / 1.16, 0.15) is H

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError):
            classify_ghm(0.0, 0.15)


class TestClassifyFf:
    def test_worked_example(self):
        assert classify_ff(1.16, 0.15) is VH
        assert classify_ff(0.86, 0.15) is VL

    def test_identity_ratio_always_horizontal(self):
        for alpha in (0.01, 0.15, 0.25, 0.9):
            assert classify_ff(1.0, alpha) is H

    def test_band_edges_inclusive(self):
        assert classify_ff(1.15, 0.15) is H
        assert classify_ff(1 / 1.15 + 1e-12, 0.15) is H

    @given(st.floats(0.01, 100, allow_nan=False), st.sampled_from([0.15, 0.25]))
    def test_inversion_symmetry(self, ratio, alpha):
        # Stay off the band edge itself, where the float image of 1/r can
        # round onto the boundary.
        assume(abs(ratio - (1 + alpha)) > 1e-9 and abs(ratio - 1 / (1 + alpha)) > 1e-9)
        label = classify_ff(ratio, alpha)
        inverse = classify_ff(1 / ratio, alpha)
        if label is H:
            assert inverse is H
        elif label is VH:
            assert inverse is VL
        else:
            assert inverse is VH

    @given(st.floats(0.01, 100, allow_nan=False))
    def test_agrees_with_ghm_above_one(self, ratio):
        if ratio < 1:
            ratio = 1 / ratio
        assert classify_ff(ratio, 0.15) is classify_ghm(ratio, 0.15)

    @given(
        st.floats(0.01, 100, allow_nan=False),
        st.floats(0.01, 0.5, allow_nan=False),
        st.floats(0.01, 0.4, allow_nan=False),
    )
    def test_nestedness_in_alpha(self, ratio, alpha, bump):
        wider = alpha + bump
        for classify in (classify_ghm, classify_ff):
            if classify(ratio, alpha) is H:
                assert classify(ratio, wider) is H


class TestDecomposeShares:
    def test_ghm_worked_example(self):
        # Each industry is balanced at 100/100 in value terms here.
        group = make_group(
            [
                make_flow(100, 100, 100, 116, code="1"),  # r = 1.16
                make_flow(100, 100, 116, 100, code="2"),  # r = 1/1.16
            ]
        )
        report = decompose_shares(group, GHM, AER)
        assert report.iit == pytest.approx(1.0, abs=1e-12)
        assert report.hiit == pytest.approx(0.5, abs=1e-12)
        assert report.viit == pytest.approx(0.5, abs=1e-12)
        assert report.hqviit == pytest.approx(0.5, abs=1e-12)
        assert report.lqviit == 0.0

    def test_ff_worked_example(self):
        group = make_group(
            [
                make_flow(100, 100, 100, 116, code="1"),
                make_flow(100, 100, 116, 100, code="2"),
            ]
        )
        report = decompose_shares(group, FF, AER)
        assert report.iit == pytest.approx(1.0, abs=1e-12)
        assert report.hiit == 0.0
        assert report.viit == pytest.approx(1.0, abs=1e-12)
        assert report.hqviit == pytest.approx(0.5, abs=1e-12)
        assert report.lqviit == pytest.approx(0.5, abs=1e-12)

    def test_one_way_industry_has_no_iit(self):
        group = make_group([make_flow(100, 0, 10, 10, code="1")])
        assert decompose_shares(group, GHM, AER).iit == 0.0
        assert decompose_shares(group, FF, AER).iit == 0.0

    def test_unclassifiable_goes_to_unclassified_share(self):
        group = make_group(
            [
                make_flow(100, 100, code="1"),  # no volumes
                make_flow(50, 50, 10, 10, code="2"),
            ]
        )
        report = decompose_shares(group, GHM, AER)
        assert report.unclassified_share == pytest.approx(200 / 300, abs=1e-12)
        assert report.hiit + report.viit == pytest.approx(
            report.iit - report.unclassified_share, abs=1e-12
        )
        (line1, line2) = report.industries
        assert (line1.unclassifiable, line1.label) == (UnclassifiableReason.MISSING_VOLUME.value, None)
        assert line2.label == H.value

    def test_cross_module_agreement(self, worked_example_group):
        group = worked_example_group
        assert decompose_shares(group, GHM, AER).iit == pytest.approx(
            grubel_lloyd_synthetic(group), abs=1e-12
        )
        assert decompose_shares(group, FF, AER).iit == pytest.approx(
            vona_synthetic(group, AER), abs=1e-12
        )

    def test_scale_invariance(self):
        flows = [
            make_flow(116, 100, 100, 100, code="1"),
            make_flow(30, 70, 12, 9, code="2"),
            make_flow(5, 90, 2, 40, code="3"),
        ]
        scaled = [
            make_flow(
                f.export_value * 3.5,
                f.import_value * 3.5,
                f.export_volume * 3.5,
                f.import_volume * 3.5,
                code=f.key.industry_code,
            )
            for f in flows
        ]
        for method in (GHM, FF):
            a = decompose_shares(make_group(flows), method, AER)
            b = decompose_shares(make_group(scaled), method, AER)
            for field in ("iit", "hiit", "viit", "hqviit", "lqviit", "unclassified_share"):
                assert getattr(a, field) == pytest.approx(getattr(b, field), abs=1e-12)

    def test_shares_in_unit_interval(self, worked_example_group):
        report = decompose_shares(worked_example_group, GHM, AER)
        for field in ("iit", "hiit", "viit", "hqviit", "lqviit", "unclassified_share"):
            assert 0.0 <= getattr(report, field) <= 1.0


class TestSerialization:
    def test_json_fields(self, worked_example_group):
        doc = decompose_shares(worked_example_group, GHM, AER).to_dict()
        for field in (
            "group_id", "family", "alpha", "type_method", "aer_threshold",
            "total_trade", "iit", "hiit", "viit", "hqviit", "lqviit",
            "unclassified_share", "industries",
        ):
            assert field in doc
        assert doc["industries"][0]["label"] == "vertical_high"

    def test_csv_round_shape(self, worked_example_group):
        report = decompose_shares(worked_example_group, GHM, AER)
        text = reports_to_csv([report])
        header, row = text.strip().splitlines()
        assert header.startswith("period,reporter,partner,group_id")
        assert len(row.split(",")) == len(header.split(","))


def test_alpha_validation():
    with pytest.raises(ValueError):
        DifferentiationMethod("ghm", 0.0)
    with pytest.raises(ValueError):
        DifferentiationMethod("nope", 0.15)


@given(st.floats(0.001, 0.999), st.sampled_from(["ghm", "ff"]))
def test_method_band_edges_inclusive(alpha, family):
    # The edges come from the same float expressions as the rule's definition,
    # so a ratio exactly on an edge is horizontal and the next float out is not.
    method = DifferentiationMethod(family, alpha)
    classify = classify_ghm if family == "ghm" else classify_ff
    lower = 1 - alpha if family == "ghm" else 1 / (1 + alpha)
    upper = 1 + alpha
    for ratio, label in (
        (lower, H),
        (upper, H),
        (math.nextafter(lower, 0.0), VL),
        (math.nextafter(upper, math.inf), VH),
    ):
        assert method.classify(ratio) is label
        assert classify(ratio, alpha) is label


# Frozen copies of the member pass, its trade-type rule and the group total as
# they read each flow field by name, before the pass unpacked each flow once.
def _named_trade_type(flow, method):
    if flow.export_value + flow.import_value == 0:
        raise UndefinedIndexError(f"zero total trade for key {tuple(flow[:4])}")
    minority = min(flow.export_value, flow.import_value)
    if minority == 0:
        return TradeType.ONE_WAY
    if method.kind == "vona":
        return TradeType.TWO_WAY
    majority = max(flow.export_value, flow.import_value)
    if minority / majority >= method.threshold:
        return TradeType.TWO_WAY
    return TradeType.ONE_WAY


def _named_members(group, methods, type_method):
    ghm = methods[0].family == "ghm"
    lower, upper = methods[0].lower, methods[0].upper
    count, two_way = len(methods), TradeType.TWO_WAY
    uppers = [m.upper for m in methods]
    negated_lowers = [-m.lower for m in methods]
    for flow in group.members:
        trade_type = _named_trade_type(flow, type_method)
        xv, mv = flow.export_value, flow.import_value
        if ghm:
            amount = 2.0 * min(xv, mv)
        else:
            amount = xv + mv if trade_type is two_way else 0.0
        uvr = differentiation._unit_values(flow)
        ratio = reason = label = None
        first = count
        if isinstance(uvr, UnclassifiableReason):
            reason = uvr if amount > 0 else None
        else:
            ratio = uvr[2]
            if amount > 0:
                label = differentiation._band(ratio, lower, upper)
                if label is H:
                    first = 0
                elif count > 1:
                    first = (
                        bisect_left(uppers, ratio) if label is VH
                        else bisect_left(negated_lowers, -ratio)
                    )
        yield flow, trade_type, amount, ratio, reason, label, first


def _named_total(group):
    total = 0.0
    for member in group.members:
        total += member.export_value + member.import_value
    return total


def _drawn(members):
    """The members a pass yields before it raises, and what it raises (None if nothing)."""
    out = []
    try:
        for member in members:
            out.append(member)
    except (UndefinedIndexError, OverflowError) as exc:
        return out, (type(exc), str(exc))
    return out, None


_GRID_20 = tuple(k / 40 for k in range(1, 21))
# (X, M): two-way, one-way either side, minority/majority exactly at 0.25 and
# 0.1 (0.5 / 5.0 is the float 0.1), no trade, and values up to 1e300.
_VALUES = st.one_of(
    st.sampled_from([(116.0, 100.0), (3.0, 0.0), (0.0, 7.0), (1.0, 4.0), (8.0, 2.0),
                     (0.5, 5.0), (5.0, 0.5), (0.0, 0.0), (1e300, 3e299)]),
    st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6)),
)
# (x, m): both reported, one missing, one zero.
_VOLUMES = st.one_of(
    st.sampled_from([(None, None), (100.0, None), (None, 100.0), (0.0, 100.0), (100.0, 0.0)]),
    st.tuples(st.floats(0.01, 1e4), st.floats(0.01, 1e4)),
)


@st.composite
def _member_pass_cases(draw):
    """(family, type method, alphas, group): vona and aer at thresholds that
    minority/majority ratios meet exactly, 1 or 20 alphas, library-built groups."""
    flows = [
        make_flow(*draw(_VALUES), *draw(_VOLUMES), code=f"{i:06d}")
        for i in range(draw(st.integers(1, 12)))
    ]
    type_method = draw(st.one_of(
        st.just(TradeTypeMethod.vona()),
        st.sampled_from([0.1, 0.25]).map(TradeTypeMethod.abd_el_rahman),
        st.floats(0.01, 0.99).map(TradeTypeMethod.abd_el_rahman),
    ))
    alphas = draw(st.sampled_from([(0.15,), _GRID_20]))
    return draw(st.sampled_from(["ghm", "ff"])), type_method, alphas, make_group(flows)


# A zero-trade member, which IndustryGroup's constructor accepts.
_ZERO_TRADE = (
    "ghm", AER, (0.15,),
    make_group([make_flow(116.0, 100.0, 100.0, 100.0), make_flow(0.0, 0.0, code="000002")]),
)


@given(_member_pass_cases())
@example(_ZERO_TRADE)
def test_member_pass_and_total_equal_the_named_field_reads(case):
    """`_members` and `IndustryGroup.total_trade` give what the by-name
    versions gave, member by member, and raise as they raised."""
    family, type_method, alphas, group = case
    methods = [DifferentiationMethod(family, a) for a in alphas]
    drawn = _drawn(differentiation._members(group, methods, type_method))
    assert drawn == _drawn(_named_members(group, methods, type_method))
    zero = [flow for flow in group.members if flow.export_value + flow.import_value == 0]
    if zero:
        message = f"zero total trade for key {tuple(zero[0][:4])}"
        assert drawn[1] == (UndefinedIndexError, message)
    assert group.total_trade == _named_total(group)
