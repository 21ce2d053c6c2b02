"""Acceptance suite.

Each test covers one numbered acceptance criterion and prints one PASS/FAIL
line (run with `pytest tests/test_acceptance.py -s` to see them as they go).
Expected values are either worked examples checked by hand or recomputed by
the exact-rational oracle in this module; tolerances are pinned per
criterion and never loosened at runtime.
"""

import contextlib
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from iitkit.differentiation import (
    Differentiation,
    DifferentiationMethod,
    decompose_shares,
    classify_ff,
    classify_ghm,
)
from iitkit.indices import (
    TradeTypeMethod,
    balassa_index,
    grubel_lloyd_simple,
    grubel_lloyd_synthetic,
    vona_synthetic,
)
from iitkit.sensitivity import nature_transitions

from conftest import make_flow, make_group

FIXTURES = Path(__file__).parent / "fixtures"

H = Differentiation.HORIZONTAL
VH = Differentiation.VERTICAL_HIGH
VL = Differentiation.VERTICAL_LOW

AER = TradeTypeMethod.abd_el_rahman()


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    print(f"criterion {number} PASS: {description}")


# ---------------------------------------------------------------------------
# Exact-rational oracle, independent of the library's floating-point path.
# ---------------------------------------------------------------------------

def oracle_trade_type(x: Fraction, m: Fraction, kind: str, threshold: Fraction) -> str:
    if min(x, m) == 0:
        return "one_way"
    if kind == "vona":
        return "two_way"
    return "two_way" if Fraction(min(x, m), max(x, m)) >= threshold else "one_way"


def oracle_label(r: Fraction, family: str, alpha: Fraction) -> Differentiation:
    hi = 1 + alpha
    lo = 1 - alpha if family == "ghm" else 1 / (1 + alpha)
    if r > hi:
        return VH
    if r < lo:
        return VL
    return H


def oracle_shares(rows, family, alpha, type_kind, threshold):
    """Share table over rows of (X, M, x, m) integers, computed in Fractions."""
    alpha = Fraction(alpha)
    threshold = Fraction(threshold)
    rows = [tuple(Fraction(v) for v in row) for row in rows]
    total = sum(x + m for x, m, _, _ in rows)
    shares = {"iit": Fraction(0), "hiit": Fraction(0), "hqviit": Fraction(0),
              "lqviit": Fraction(0), "unclassified": Fraction(0)}
    for x, m, xq, mq in rows:
        if family == "ghm":
            amount = 2 * min(x, m)
        else:
            two_way = oracle_trade_type(x, m, type_kind, threshold) == "two_way"
            amount = (x + m) if two_way else Fraction(0)
        shares["iit"] += amount
        if amount == 0:
            continue
        if xq == 0 or mq == 0 or x == 0 or m == 0:
            shares["unclassified"] += amount
            continue
        r = (x / xq) / (m / mq)
        label = oracle_label(r, family, alpha)
        if label is H:
            shares["hiit"] += amount
        elif label is VH:
            shares["hqviit"] += amount
        else:
            shares["lqviit"] += amount
    shares["viit"] = shares["hqviit"] + shares["lqviit"]
    return {k: v / total for k, v in shares.items()}


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_worked_example_labels():
    with criterion(1, "worked unit-value example: GHM (VH, H), FF (VH, VL), < 1 ms"):
        r1 = 1.16 / 1.0
        r2 = 1.0 / 1.16
        start = time.perf_counter()
        ghm_labels = (classify_ghm(r1, 0.15), classify_ghm(r2, 0.15))
        ff_labels = (classify_ff(r1, 0.15), classify_ff(r2, 0.15))
        elapsed = time.perf_counter() - start
        assert ghm_labels == (VH, H)
        assert ff_labels == (VH, VL)
        assert elapsed < 1e-3


def test_criterion_2_threshold_flip():
    with criterion(2, "alpha flip at 0.25 and hairline period transition at 0.15"):
        assert classify_ghm(1.16, 0.15) is VH
        assert classify_ghm(1.16, 0.25) is H

        panel = [
            make_group([make_flow(115.1, 100, 100, 100, period="2020")]),
            make_group([make_flow(114.9, 100, 100, 100, period="2021")]),
        ]
        at_015 = nature_transitions(panel, 0.15, "ghm", AER)
        at_025 = nature_transitions(panel, 0.25, "ghm", AER)
        assert [t.flipped for t in at_015.transitions] == [True]
        assert at_015.transitions[0].label_from is VH
        assert at_015.transitions[0].label_to is H
        assert [t.flipped for t in at_025.transitions] == [False]


def _random_flow(rng, code):
    x = rng.uniform(1.0, 1e6)
    m = rng.uniform(1.0, 1e6)
    roll = rng.random()
    if roll < 0.05:
        x = 0.0
    elif roll < 0.10:
        m = 0.0
    return make_flow(x, m, rng.uniform(1.0, 1e4), rng.uniform(1.0, 1e4), code=code)


def test_criterion_3_identity_suite():
    with criterion(3, "GL+B=1 and share identities over 10,000 randomized flows, 1e-12"):
        rng = random.Random(20260823)
        flows = [_random_flow(rng, f"{i:06d}") for i in range(10_000)]

        for flow in flows:
            x, m = flow.export_value, flow.import_value
            gl = grubel_lloyd_simple(flow)
            assert gl + balassa_index(flow) == pytest.approx(1.0, abs=1e-12)
            assert gl == pytest.approx(((x + m) - abs(x - m)) / (x + m), abs=1e-12)

        group_size = 20
        for start in range(0, len(flows), group_size):
            group = make_group(flows[start:start + group_size])
            total = sum(f.export_value + f.import_value for f in group.members)
            imbalance = sum(abs(f.export_value - f.import_value) for f in group.members)
            overlap = sum(min(f.export_value, f.import_value) for f in group.members)
            gls = grubel_lloyd_synthetic(group)
            assert gls == pytest.approx((total - imbalance) / total, abs=1e-12)
            assert gls == pytest.approx(1.0 - imbalance / total, abs=1e-12)
            assert gls == pytest.approx(2.0 * overlap / total, abs=1e-12)

            for family in ("ghm", "ff"):
                report = decompose_shares(
                    group, DifferentiationMethod(family, 0.15), AER
                )
                assert report.unclassified_share == 0.0
                assert report.hiit + report.viit == pytest.approx(report.iit, abs=1e-12)
                assert report.hqviit + report.lqviit == pytest.approx(report.viit, abs=1e-12)


def _random_groups(rng, count, max_size=15):
    groups = []
    for g in range(count):
        size = rng.randint(1, max_size)
        flows = [_random_flow(rng, f"{i:06d}") for i in range(size)]
        flows = [f for f in flows if f.total_trade > 0]
        if not flows:
            flows = [make_flow(1.0, 1.0, 1.0, 1.0)]
        groups.append(make_group(flows))
    return groups


def test_criterion_4_ordering_in_threshold():
    with criterion(4, "Abd-El-Rahman variant never exceeds Vona; nonincreasing in t"):
        rng = random.Random(4)
        thresholds = (0.05, 0.10, 0.20)
        for group in _random_groups(rng, 1000):
            vona = vona_synthetic(group, TradeTypeMethod.vona())
            values = [
                vona_synthetic(group, TradeTypeMethod.abd_el_rahman(t))
                for t in thresholds
            ]
            for v in values:
                assert v <= vona
            assert values[0] >= values[1] >= values[2]


def test_criterion_5_ff_inversion_symmetry():
    with criterion(5, "FF duality on 1,000-point log grid; GHM asymmetry witness"):
        grid = [10 ** (-2 + 4 * i / 999) for i in range(1000)]
        for alpha in (0.15, 0.25):
            for r in grid:
                label = classify_ff(r, alpha)
                inverse = classify_ff(1 / r, alpha)
                if label is H:
                    assert inverse is H
                else:
                    assert inverse is (VL if label is VH else VH)
        assert classify_ghm(1.16, 0.15) is VH
        assert classify_ghm(1 / 1.16, 0.15) is H


def test_criterion_6_cross_module_agreement():
    with criterion(6, "decomposition IIT equals GLS (GHM) / Vona index (FF), 1e-12"):
        rng = random.Random(6)
        for group in _random_groups(rng, 1000):
            ghm = decompose_shares(group, DifferentiationMethod("ghm", 0.15), AER)
            assert ghm.iit == pytest.approx(grubel_lloyd_synthetic(group), abs=1e-12)
            ff = decompose_shares(group, DifferentiationMethod("ff", 0.15), AER)
            assert ff.iit == pytest.approx(vona_synthetic(group, AER), abs=1e-12)


def test_criterion_7_oracle_equivalence():
    with criterion(7, "desk-scale groups match the exact-rational oracle, 1e-9"):
        # Frozen hand cases first.
        gls_group = make_group(
            [make_flow(100, 80, code="1"), make_flow(10, 50, code="2")]
        )
        assert grubel_lloyd_synthetic(gls_group) == pytest.approx(0.75, abs=1e-9)

        vs_group = make_group(
            [make_flow(100, 5, code="1"), make_flow(50, 50, code="2")]
        )
        assert vona_synthetic(vs_group, AER) == pytest.approx(100 / 205, abs=1e-9)

        worked_rows = [(100, 100, 100, 116), (100, 100, 116, 100)]
        worked_group = make_group(
            [make_flow(*row, code=str(i)) for i, row in enumerate(worked_rows)]
        )
        ghm = decompose_shares(worked_group, DifferentiationMethod("ghm", 0.15), AER)
        assert (ghm.iit, ghm.hiit, ghm.viit, ghm.hqviit, ghm.lqviit) == pytest.approx(
            (1.0, 0.5, 0.5, 0.5, 0.0), abs=1e-9
        )
        ff = decompose_shares(worked_group, DifferentiationMethod("ff", 0.15), AER)
        assert (ff.iit, ff.hiit, ff.viit, ff.hqviit, ff.lqviit) == pytest.approx(
            (1.0, 0.0, 1.0, 0.5, 0.5), abs=1e-9
        )

        # Randomized integer-valued desk-scale groups against the oracle.
        # Rows whose exact ratio sits within 1e-9 of a band edge are
        # resampled: there the float and rational classifications may
        # legitimately differ by one ulp, which is the fragility the
        # sensitivity module exists to expose.
        boundaries = (
            Fraction(23, 20), Fraction(17, 20), Fraction(20, 23),
        )

        def near_boundary(x, m, xq, mq):
            if 0 in (x, m, xq, mq):
                return False
            r = Fraction(x * mq, xq * m)
            return any(abs(r - b) < Fraction(1, 10 ** 9) for b in boundaries)

        rng = random.Random(7)
        for _ in range(200):
            size = rng.randint(1, 5)
            rows = []
            while len(rows) < size:
                x = rng.randint(0, 500)
                m = rng.randint(0, 500) if x > 0 else rng.randint(1, 500)
                row = (x, m, rng.randint(1, 400), rng.randint(1, 400))
                if not near_boundary(*row):
                    rows.append(row)
            group = make_group(
                [make_flow(*row, code=f"{i:03d}") for i, row in enumerate(rows)]
            )
            for family in ("ghm", "ff"):
                expected = oracle_shares(rows, family, Fraction(15, 100), "abd_el_rahman", Fraction(1, 10))
                report = decompose_shares(
                    group, DifferentiationMethod(family, 0.15), AER
                )
                assert report.iit == pytest.approx(float(expected["iit"]), abs=1e-9)
                assert report.hiit == pytest.approx(float(expected["hiit"]), abs=1e-9)
                assert report.viit == pytest.approx(float(expected["viit"]), abs=1e-9)
                assert report.hqviit == pytest.approx(float(expected["hqviit"]), abs=1e-9)
                assert report.lqviit == pytest.approx(float(expected["lqviit"]), abs=1e-9)
                assert report.unclassified_share == pytest.approx(
                    float(expected["unclassified"]), abs=1e-9
                )


@pytest.fixture(scope="session")
def million_row_fixture(tmp_path_factory):
    path = tmp_path_factory.mktemp("bulk") / "bulk_flows.csv"
    rng = random.Random(8)
    partners = [f"P{i:02d}" for i in range(20)]
    with open(path, "w", newline="") as fh:
        fh.write(
            "period,reporter,partner,industry_code,export_value,import_value,"
            "export_qty,import_qty,qty_unit\n"
        )
        lines = []
        for i in range(1_000_000):
            lines.append(
                f"2020,FRA,{partners[i % 20]},{i % 50000:06d},"
                f"{rng.uniform(0, 1e6):.2f},{rng.uniform(0, 1e6):.2f},"
                f"{rng.uniform(1, 1e4):.1f},{rng.uniform(1, 1e4):.1f},kg\n"
            )
            if len(lines) == 100_000:
                fh.writelines(lines)
                lines.clear()
        fh.writelines(lines)
    return path


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "iitkit.cli", *args],
        capture_output=True, text=True,
    )


def test_criterion_8_ingestion_robustness(million_row_fixture, tmp_path):
    with criterion(8, "malformed rows exit 2 with row numbers; 1M rows < 10 s, byte-identical"):
        expected_rows = {
            "malformed_negative_value.csv": "row 3",
            "malformed_not_a_number.csv": "row 4",
            "malformed_missing_unit.csv": "row 2",
            "malformed_short_row.csv": "row 2",
            "malformed_quoted_negative.csv": "row 4",
        }
        for name, row_ref in expected_rows.items():
            proc = _run_cli(["compute", "--input", str(FIXTURES / name)])
            assert proc.returncode == 2, name
            assert row_ref in proc.stderr, name

        out1, out2 = tmp_path / "bulk1.csv", tmp_path / "bulk2.csv"
        durations = []
        for out in (out1, out2):
            start = time.perf_counter()
            proc = _run_cli(
                ["compute", "--input", str(million_row_fixture),
                 "--family", "ghm", "--alpha", "0.15", "--type-method", "aer",
                 "--format", "csv", "--output", str(out)]
            )
            durations.append(time.perf_counter() - start)
            assert proc.returncode == 0, proc.stderr
        assert max(durations) < 10.0, f"compute took {max(durations):.1f}s"
        assert out1.read_bytes() == out2.read_bytes()
