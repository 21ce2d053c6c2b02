import pytest
from hypothesis import example, given, strategies as st

from iitkit.differentiation import DifferentiationMethod, decompose_shares
from iitkit.indices import (
    TradeType,
    TradeTypeMethod,
    UndefinedIndexError,
    balassa_index,
    balassa_performance,
    classify_trade_type,
    grubel_lloyd_simple,
    grubel_lloyd_synthetic,
    vona_synthetic,
)

from conftest import make_flow, make_group

AER = TradeTypeMethod.abd_el_rahman()
VONA = TradeTypeMethod.vona()

positive = st.floats(0.0, 1e9, allow_nan=False)


class TestBalassa:
    def test_balanced(self):
        assert balassa_index(make_flow(100, 100)) == 0.0

    def test_unidirectional(self):
        assert balassa_index(make_flow(100, 0)) == 1.0

    def test_hand_value(self):
        assert balassa_index(make_flow(100, 5)) == pytest.approx(95 / 105, abs=1e-12)

    def test_performance_bounds(self):
        assert balassa_performance(make_flow(100, 0)) == 1.0
        assert balassa_performance(make_flow(0, 50)) == -1.0
        assert balassa_performance(make_flow(100, 100)) == 0.0

    def test_zero_trade_rejected(self):
        with pytest.raises(UndefinedIndexError):
            balassa_index(make_flow(0, 0))


class TestGrubelLloyd:
    def test_perfect_overlap(self):
        assert grubel_lloyd_simple(make_flow(100, 100)) == 1.0

    def test_one_way(self):
        assert grubel_lloyd_simple(make_flow(100, 0)) == 0.0

    def test_hand_value(self):
        assert grubel_lloyd_simple(make_flow(100, 5)) == pytest.approx(10 / 105, abs=1e-12)

    def test_synthetic_single_member_reduces_to_simple(self):
        flow = make_flow(100, 100)
        assert grubel_lloyd_synthetic(make_group([flow])) == grubel_lloyd_simple(flow)

    def test_synthetic_aggregate_balance_is_not_overlap(self):
        group = make_group([make_flow(100, 0, code="1"), make_flow(0, 100, code="2")])
        assert grubel_lloyd_synthetic(group) == 0.0

    def test_synthetic_all_zero_group_rejected(self):
        group = make_group([make_flow(0, 0, code="1"), make_flow(0, 0, code="2")], "Z")
        with pytest.raises(UndefinedIndexError, match=r"^zero total trade in group 'Z'$"):
            grubel_lloyd_synthetic(group)

    def test_synthetic_hand_value(self):
        group = make_group([make_flow(100, 80, code="1"), make_flow(10, 50, code="2")])
        assert grubel_lloyd_synthetic(group) == pytest.approx(0.75, abs=1e-12)

    @given(positive, positive)
    def test_complement_of_balassa(self, x, m):
        if x + m == 0:
            return
        flow = make_flow(x, m)
        assert grubel_lloyd_simple(flow) + balassa_index(flow) == pytest.approx(1.0, abs=1e-12)

    @given(positive, positive)
    def test_closed_forms_agree(self, x, m):
        if x + m == 0:
            return
        flow = make_flow(x, m)
        alt = ((x + m) - abs(x - m)) / (x + m)
        assert grubel_lloyd_simple(flow) == pytest.approx(alt, abs=1e-12)


class TestTradeType:
    def test_aer_below_threshold(self):
        assert classify_trade_type(make_flow(100, 5), AER) is TradeType.ONE_WAY

    def test_vona_counts_any_bidirectional(self):
        assert classify_trade_type(make_flow(100, 5), VONA) is TradeType.TWO_WAY

    def test_aer_boundary_inclusive(self):
        assert classify_trade_type(make_flow(100, 10), AER) is TradeType.TWO_WAY

    def test_unidirectional_is_one_way_for_both(self):
        flow = make_flow(100, 0)
        assert classify_trade_type(flow, AER) is TradeType.ONE_WAY
        assert classify_trade_type(flow, VONA) is TradeType.ONE_WAY

    @given(
        st.floats(0.001, 1e6, allow_nan=False),
        st.one_of(st.just(0.0), st.floats(0.001, 1e6, allow_nan=False)),
        st.integers(-20, 20),
    )
    def test_scale_invariance(self, x, m, k):
        # Scaling by a power of two is exact for these magnitudes, so the
        # scaled flow has bit-for-bit the same minority/majority ratio. Other
        # factors can round the ratio across the AER cutoff, and a subnormal
        # minority can underflow to zero, so neither is drawn.
        c = 2.0**k
        flow, scaled = make_flow(x, m), make_flow(x * c, m * c)
        for method in (AER, VONA):
            assert classify_trade_type(flow, method) is classify_trade_type(scaled, method)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            TradeTypeMethod.abd_el_rahman(0.0)
        with pytest.raises(ValueError):
            TradeTypeMethod.abd_el_rahman(1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown trade-type method 'x'$"):
            TradeTypeMethod("x")


class TestVonaSynthetic:
    def test_all_two_way(self):
        group = make_group([make_flow(10, 9, code="1"), make_flow(5, 5, code="2")])
        assert vona_synthetic(group, AER) == 1.0

    def test_hand_value_aer(self):
        group = make_group([make_flow(100, 5, code="1"), make_flow(50, 50, code="2")])
        assert vona_synthetic(group, AER) == pytest.approx(100 / 205, abs=1e-12)

    def test_hand_value_vona(self):
        group = make_group([make_flow(100, 5, code="1"), make_flow(50, 50, code="2")])
        assert vona_synthetic(group, VONA) == 1.0

    @given(
        st.lists(st.tuples(positive, positive), min_size=1, max_size=12),
        st.sampled_from([0.05, 0.10, 0.20]),
    )
    def test_aer_never_exceeds_vona(self, pairs, threshold):
        flows = [make_flow(x, m, code=str(i)) for i, (x, m) in enumerate(pairs)]
        flows = [f for f in flows if f.total_trade > 0]
        if not flows:
            return
        group = make_group(flows)
        aer = vona_synthetic(group, TradeTypeMethod.abd_el_rahman(threshold))
        assert aer <= vona_synthetic(group, VONA)
        assert 0.0 <= aer <= 1.0


# The indicators as each read its flow's X and M twice and folded its own
# group total, frozen: the shared helpers must give every value and every
# error as this code did.
def _former_require_trade(flow):
    if flow.export_value + flow.import_value == 0:
        raise UndefinedIndexError(f"zero total trade for key {tuple(flow[:4])}")


def _former_balassa_index(flow):
    _former_require_trade(flow)
    x, m = flow.export_value, flow.import_value
    return abs(x - m) / (x + m)


def _former_balassa_performance(flow):
    _former_require_trade(flow)
    x, m = flow.export_value, flow.import_value
    return (x - m) / (x + m)


def _former_grubel_lloyd_simple(flow):
    _former_require_trade(flow)
    x, m = flow.export_value, flow.import_value
    return 2.0 * min(x, m) / (x + m)


def _former_grubel_lloyd_synthetic(group):
    overlap = 0.0
    total = 0.0
    for _, _, _, _, x, m, _, _, _ in group.members:
        overlap += min(x, m)
        total += x + m
    if total == 0:
        raise UndefinedIndexError(f"zero total trade in group {group.group_id!r}")
    return 2.0 * overlap / total


def _former_vona_synthetic(group, method):
    two_way = 0.0
    total = 0.0
    for flow in group.members:
        _, _, _, _, x, m, _, _, _ = flow
        total += x + m
        if classify_trade_type(flow, method) is TradeType.TWO_WAY:
            two_way += x + m
    if total == 0:
        raise UndefinedIndexError(f"zero total trade in group {group.group_id!r}")
    return two_way / total


def _outcome(index, *args):
    """The value's bits (NaN as NaN), or the exception's type and message."""
    try:
        return index(*args).hex()
    except Exception as exc:
        return type(exc), str(exc)


_THRESHOLDS = [0.1, 0.25, 0.5]
_VALUES = st.one_of(st.just(0.0), st.floats(0.0, 1e308), st.sampled_from([1e308, 5e-324]))


@st.composite
def _pairs(draw, kinds=("any", "one-way", "zero", "threshold")):
    """An (X, M) pair: two-way, one-way, zero-trade, or at a threshold exactly."""
    value = draw(_VALUES)
    kind = draw(st.sampled_from(kinds))
    if kind == "any":
        pair = (value, draw(_VALUES))
    elif kind == "one-way":
        pair = (value, 0.0)
    elif kind == "zero":
        pair = (0.0, 0.0)
    else:  # minority / majority is the threshold exactly: both scaled by a power of two
        scale = 2.0 ** draw(st.integers(-30, 30))
        pair = (scale, scale / draw(st.sampled_from(_THRESHOLDS)))
    return pair if draw(st.booleans()) else pair[::-1]


_VOLUMES = st.one_of(st.none(), st.floats(1e-3, 1e3))


@st.composite
def _groups(draw, zero_trade=True):
    pairs = draw(st.one_of(
        st.lists(_pairs(), min_size=1, max_size=6),
        st.lists(st.just((0.0, 0.0)), min_size=1, max_size=3),
    ) if zero_trade else st.lists(_pairs(("any", "one-way", "threshold")), min_size=1, max_size=6))
    return make_group([
        make_flow(x, m, draw(_VOLUMES), draw(_VOLUMES), code=str(i))
        for i, (x, m) in enumerate(pairs)
    ])


_METHODS = st.one_of(
    st.just(VONA),
    st.sampled_from(_THRESHOLDS).map(TradeTypeMethod.abd_el_rahman),
    st.floats(0.01, 0.99).map(TradeTypeMethod.abd_el_rahman),
)


class TestSharedHelpers:
    @given(_groups(), _METHODS)
    @example(make_group([make_flow(0, 0, code="1"), make_flow(0, 0, code="2")]), VONA)
    @example(make_group([make_flow(1e308, 1e308, code="1"), make_flow(1e308, 0, code="2")]), AER)
    @example(make_group([make_flow(10, 1, code="1"), make_flow(3, 0, code="2")]), AER)
    def test_indicators_match_their_former_code(self, group, method):
        pairs = [
            (balassa_index, _former_balassa_index),
            (balassa_performance, _former_balassa_performance),
            (grubel_lloyd_simple, _former_grubel_lloyd_simple),
        ]
        for flow in group.members:
            for index, former in pairs:
                assert _outcome(index, flow) == _outcome(former, flow)
        assert _outcome(grubel_lloyd_synthetic, group) == _outcome(
            _former_grubel_lloyd_synthetic, group
        )
        assert _outcome(vona_synthetic, group, method) == _outcome(
            _former_vona_synthetic, group, method
        )

    @given(_groups(zero_trade=False), _METHODS, st.floats(0.01, 0.99))
    @example(make_group([make_flow(100, 80, 10, 10, code="1"), make_flow(10, 50, code="2")]), AER, 0.15)
    def test_synthetic_indices_are_the_decomposed_iit_shares(self, group, method, alpha):
        # Grubel-Lloyd's synthetic index is the IIT share of the GHM
        # decomposition, Vona's that of the FF one, bit for bit.
        for family, index in (
            ("ghm", lambda: grubel_lloyd_synthetic(group)),
            ("ff", lambda: vona_synthetic(group, method)),
        ):
            try:
                report = decompose_shares(group, DifferentiationMethod(family, alpha), method)
            except (OverflowError, UndefinedIndexError):
                continue
            assert index().hex() == report.iit.hex()
