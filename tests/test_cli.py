import argparse
import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import iitkit
import iitkit.cli as cli
from iitkit import differentiation
from iitkit.cli import main
from iitkit.datasets import example_flows_path, example_panel_path
from iitkit.differentiation import (
    Differentiation,
    DifferentiationMethod,
    IndustryLine,
    Rows,
    SharesReport,
    UnclassifiableReason,
    _plain,
    decompose_shares,
)
from iitkit.indices import TradeType, TradeTypeMethod
from iitkit.sensitivity import (
    FlipPoint,
    SweepResult,
    Transition,
    TransitionReport,
    _transitions_table,
    alpha_sweep,
    nature_transitions,
)
from iitkit.trade_data import (
    GROUP_POLICIES,
    FlowKey,
    IndustryGroup,
    UnmappedCodeError,
    apply_grouping,
    read_flows,
)

FIXTURES = Path(__file__).parent / "fixtures"

HEADER = "period,reporter,partner,industry_code,export_value,import_value,export_qty,import_qty,qty_unit"


@pytest.fixture
def flows_csv(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_text(
        f"{HEADER}\n"
        "2020,FRA,DEU,000001,116,100,100,100,unit\n"
        "2020,FRA,DEU,000002,100,116,100,100,unit\n"
    )
    return path


@pytest.fixture
def panel_csv(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        f"{HEADER}\n"
        "2020,FRA,DEU,000001,115.1,100,100,100,unit\n"
        "2021,FRA,DEU,000001,114.9,100,100,100,unit\n"
    )
    return path


@pytest.fixture
def pipe():
    """Makes a path that reads the given bytes from a pipe, as /dev/stdin does under `cat |`."""
    ends = []

    def make(data: bytes) -> str:
        read_end, write_end = os.pipe()
        ends.append(read_end)
        os.write(write_end, data)  # a few hundred bytes fit in the pipe's buffer
        os.close(write_end)
        return f"/dev/fd/{read_end}"

    yield make
    for fd in ends:
        os.close(fd)


def run(*args):
    return main([str(a) for a in args])


class TestCompute:
    def test_happy_path_json(self, flows_csv, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            "compute", "--input", flows_csv, "--family", "ghm", "--alpha", "0.15",
            "--type-method", "aer", "--output", out,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["family"] == "ghm"
        assert doc["config"]["alpha"] == 0.15
        assert len(doc["reports"]) == 2
        labels = {
            r["group_id"]: r["industries"][0]["label"] for r in doc["reports"]
        }
        assert labels == {"000001": "vertical_high", "000002": "horizontal"}

    def test_group_map_merges_groups(self, flows_csv, tmp_path):
        gmap = tmp_path / "map.csv"
        gmap.write_text("industry_code,group_id\n000001,G\n000002,G\n")
        out = tmp_path / "report.json"
        assert run("compute", "--input", flows_csv, "--group-map", gmap, "--output", out) == 0
        doc = json.loads(out.read_text())
        assert [r["group_id"] for r in doc["reports"]] == ["G"]
        assert len(doc["reports"][0]["industries"]) == 2

    def test_code_in_two_groups_exits_2_naming_the_row(self, tmp_path, capsys):
        gmap = tmp_path / "map.csv"
        gmap.write_text("industry_code,group_id\n000001,A\n000001,B\n")
        code = run("compute", "--input", example_flows_path(), "--group-map", gmap)
        assert (code, capsys.readouterr()) == (2, (
            "", f"error: {gmap}: row 3: industry_code '000001' is in group 'A' "
            "by an earlier row, not 'B'\n",
        ))

    def test_code_repeated_in_one_group_is_accepted(self, tmp_path, capsys):
        gmap = tmp_path / "map.csv"
        gmap.write_text("industry_code,group_id\n000001,A\n000002,A\n000001,A\n")
        assert run("compute", "--input", example_flows_path(), "--group-map", gmap) == 0
        assert [r["group_id"] for r in json.loads(capsys.readouterr().out)["reports"]] == ["A"]

    def test_csv_format(self, flows_csv, tmp_path, capsys):
        assert run("compute", "--input", flows_csv, "--format", "csv") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("period,reporter,partner,group_id,family,alpha")
        assert len(lines) == 3

    def test_invalid_alpha_exits_1(self, flows_csv, capsys):
        assert run("compute", "--input", flows_csv, "--alpha", "1.5") == 1
        assert "--alpha" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path):
        assert run("compute", "--input", tmp_path / "nope.csv") == 2

    def test_malformed_row_exits_2_with_row_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(f"{HEADER}\n2020,FRA,DEU,000001,-5,80,,,\n")
        assert run("compute", "--input", path) == 2
        assert "row 2" in capsys.readouterr().err

    def test_unit_conflict_exits_2(self, tmp_path, capsys):
        path = tmp_path / "conflict.csv"
        path.write_text(
            f"{HEADER}\n2020,FRA,DEU,1,5,0,10,,kg\n2020,FRA,DEU,1,0,5,,10,unit\n"
        )
        assert run("compute", "--input", path) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: conflicting volume units 'kg' vs 'unit' "
            "for key ('2020', 'FRA', 'DEU', '1')\n"
        )

    def test_strict_policy_unmapped_exits_2(self, flows_csv, tmp_path, capsys):
        gmap = tmp_path / "map.csv"
        gmap.write_text("industry_code,group_id\n000001,G\n")
        for command in ("compute", "sweep"):
            for fmt in ("json", "csv"):
                code = run(
                    command, "--input", flows_csv, "--group-map", gmap,
                    "--group-policy", "strict", "--format", fmt,
                )
                assert (code, *capsys.readouterr()) == (
                    2, "", "error: unmapped industry codes under strict policy: 000002\n"
                )

    def test_many_unmapped_codes_give_one_short_line(self, tmp_path, capsys):
        table, gmap = tmp_path / "flows.csv", tmp_path / "map.csv"
        table.write_text(f"{HEADER}\n" + "".join(
            f"2020,FRA,DEU,{code:06d},1,1,,,\n" for code in range(50_001)
        ))
        gmap.write_text("industry_code,group_id\n000000,G\n")
        code = run("compute", "--input", table, "--group-map", gmap, "--group-policy", "strict")
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert len(err.encode()) < 1024
        assert err == (
            "error: unmapped industry codes under strict policy: 50000 codes, the first 10: "
            + ", ".join(f"{code:06d}" for code in range(1, 11)) + "\n"
        )

    def test_unwritable_output_exits_1(self, flows_csv, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        assert run("compute", "--input", flows_csv, "--output", out) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n"
        )
        assert not out.parent.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_merged_sum_exits_2(self, tmp_path, capsys, fmt):
        path = tmp_path / "big.csv"
        path.write_text(f"{HEADER}\n2020,FRA,DEU,1,1e308,5,1,1,kg\n2020,FRA,DEU,1,1e308,5,1,1,kg\n")
        assert run("compute", "--input", path, "--format", fmt) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: {path}: trade or volume total of key ('2020', 'FRA', 'DEU', '1') "
            "exceeds the float range\n"
        )

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_ratio_exits_2(self, tmp_path, capsys, fmt):
        path = tmp_path / "nan.csv"
        path.write_text(f"{HEADER}\n2020,FRA,DEU,1,1e300,1e300,1e-10,1e-10,kg\n")
        assert run("compute", "--input", path, "--format", fmt) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: unit-value ratio of key ('2020', 'FRA', 'DEU', '1') is nan: "
            "a unit value over- or underflows the float range\n"
        )

    def test_overflowing_group_total_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text(f"{HEADER}\n2020,FRA,DEU,1,1e308,0,,,\n2020,FRA,DEU,2,1e308,0,,,\n")
        gmap = tmp_path / "map.csv"
        gmap.write_text("industry_code,group_id\n1,G\n2,G\n")
        assert run("compute", "--input", path, "--group-map", gmap) == 2
        assert capsys.readouterr() == ("", (
            "error: total trade of ('2020', 'FRA', 'DEU') exceeds the float range\n"
        ))

    def test_non_finite_value_exits_2_naming_row_and_column(self, tmp_path, capsys):
        path = tmp_path / "inf.csv"
        path.write_text(f"{HEADER}\n2020,FRA,DEU,1,1e999,100,,,\n")
        assert run("compute", "--input", path) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: row 2: export_value is not finite (1e999)\n"
        )

    def test_invalid_utf8_exits_2_with_row_number(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(f"{HEADER}\n".encode() + b"2020,FRA,DEU,00000\xff,100,100,,,\n")
        assert run("compute", "--input", path) == 2
        assert capsys.readouterr().err == f"error: {path}: row 2: not valid UTF-8\n"

    @pytest.mark.parametrize("command", ["validate", "compute"])
    def test_oversized_field_exits_2_with_row_number(self, tmp_path, capsys, command):
        path = tmp_path / "quote.csv"
        path.write_text(f'{HEADER}\n2020,FRA,DEU,1,1,1,,,\n2020,FRA,DEU,"{"x" * 140_000}\n')
        assert run(command, "--input", path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: row 3: ") and "field limit" in err

    def test_invalid_utf8_group_map_exits_2_with_row_number(self, flows_csv, tmp_path, capsys):
        gmap = tmp_path / "map.csv"
        gmap.write_bytes(b"industry_code,group_id\n1,\xff\n")
        assert run("compute", "--input", flows_csv, "--group-map", gmap) == 2
        assert capsys.readouterr().err == f"error: {gmap}: row 2: not valid UTF-8\n"

    def test_oversized_group_map_field_exits_2_with_row_number(self, flows_csv, tmp_path, capsys):
        gmap = tmp_path / "map.csv"
        gmap.write_text(f'industry_code,group_id\n000001,G\n"{"y" * 140_000}\n')
        assert run("compute", "--input", flows_csv, "--group-map", gmap) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {gmap}: row 3: ") and "field limit" in err

    @pytest.mark.parametrize("command", ["compute", "validate"])
    def test_pipes_read_as_the_files_do(self, flows_csv, tmp_path, capsys, pipe, command):
        gmap = tmp_path / "map.csv"
        gmap.write_text("industry_code,group_id\n000001,G\n000002,G\n")

        def args(table, groups):
            if command == "validate":
                return ["--input", table]
            # The csv report: the json one echoes the paths in its config.
            return ["--input", table, "--group-map", groups, "--format", "csv"]

        assert run(command, *args(flows_csv, gmap)) == 0
        from_files = capsys.readouterr()
        assert run(command, *args(pipe(flows_csv.read_bytes()), pipe(gmap.read_bytes()))) == 0
        assert capsys.readouterr() == from_files

    @pytest.mark.parametrize("option", ["--input", "--group-map"])
    def test_invalid_utf8_in_a_pipe_exits_2_with_row_number(self, flows_csv, capsys, pipe, option):
        if option == "--input":
            args = ["--input", pipe(f"{HEADER}\n2020,FRA,DEU,\xff,1,1,,,\n".encode("latin-1"))]
        else:
            args = ["--input", flows_csv, "--group-map", pipe(b"industry_code,group_id\n1,\xff\n")]
        assert run("compute", *args) == 2
        assert capsys.readouterr() == ("", f"error: {args[-1]}: row 2: not valid UTF-8\n")

    @pytest.mark.skipif(sys.platform != "linux", reason="needs Linux's /proc/self/mem")
    @pytest.mark.parametrize("option", ["--input", "--group-map"])
    def test_read_error_exits_2(self, flows_csv, capsys, option):
        # /proc/self/mem opens, but reading it at offset 0 fails with EIO.
        if option == "--input":
            args = ["--input", "/proc/self/mem"]
        else:
            args = ["--input", flows_csv, "--group-map", "/proc/self/mem"]
        assert run("compute", *args) == 2
        assert capsys.readouterr() == ("", "error: /proc/self/mem: Input/output error\n")

    def test_partial_coverage_is_missing_volume(self, tmp_path, capsys):
        path = tmp_path / "partial.csv"
        path.write_text(
            f"{HEADER}\n2020,FRA,DEU,1,100,100,100,100,kg\n2020,FRA,DEU,1,100,0,,,\n"
        )
        assert run("compute", "--input", path) == 0
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        overlap = 2 * 100 / 300  # GHM counts 2*min(X, M) of total trade X+M = 300
        assert {k: report[k] for k in ("total_trade", "iit", "hiit", "viit", "unclassified_share")} == {
            "total_trade": 300.0, "iit": overlap, "hiit": 0.0, "viit": 0.0,
            "unclassified_share": overlap,
        }
        (industry,) = report["industries"]
        assert (industry["ratio"], industry["label"], industry["unclassifiable"]) == (
            None, None, "missing-volume",
        )

    def test_deterministic_output(self, flows_csv, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run("compute", "--input", flows_csv, "--output", out1)
        run("compute", "--input", flows_csv, "--output", out2)
        assert out1.read_bytes() == out2.read_bytes()


class TestSweep:
    def test_flip_table(self, flows_csv, tmp_path):
        out = tmp_path / "sweep.json"
        code = run(
            "sweep", "--input", flows_csv, "--alphas", "0.05,0.15,0.25",
            "--family", "ghm", "--output", out,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["alphas"] == [0.05, 0.15, 0.25]
        sweeps = {s["group_id"]: s for s in doc["sweeps"]}
        flips_1 = sweeps["000001"]["flip_points"]
        assert any(
            f["alpha"] == 0.25 and f["label_before"] == "vertical_high"
            and f["label_after"] == "horizontal"
            for f in flips_1
        )

    def test_bad_alphas_exit_1(self, flows_csv):
        assert run("sweep", "--input", flows_csv, "--alphas", "0.25,0.15") == 1
        assert run("sweep", "--input", flows_csv, "--alphas", "abc") == 1


class TestTransitions:
    def test_hairline_flip(self, panel_csv, tmp_path):
        out = tmp_path / "trans.json"
        assert run("transitions", "--input", panel_csv, "--alpha", "0.15", "--output", out) == 0
        doc = json.loads(out.read_text())
        (panel,) = doc["panels"]
        (t,) = panel["transitions"]
        assert t["flipped"] is True
        assert t["label_from"] == "vertical_high"
        assert t["label_to"] == "horizontal"

    def test_no_flip_at_wider_band(self, panel_csv, tmp_path):
        out = tmp_path / "trans.json"
        run("transitions", "--input", panel_csv, "--alpha", "0.25", "--output", out)
        (t,) = json.loads(out.read_text())["panels"][0]["transitions"]
        assert t["flipped"] is False

    def test_natural_period_order_csv(self, tmp_path, capsys):
        path = tmp_path / "months.csv"
        path.write_text(
            f"{HEADER}\n"
            "2020M10,FRA,DEU,1,100,100,100,100,unit\n"
            "2020M2,FRA,DEU,1,120,100,100,100,unit\n"
            "2020M9,FRA,DEU,1,100,100,100,100,unit\n"
        )
        assert run("transitions", "--input", path, "--format", "csv") == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "1,FRA,DEU,1,2020M2,2020M9,1.2,1.0,vertical_high,horizontal,True",
            "1,FRA,DEU,1,2020M9,2020M10,1.0,1.0,horizontal,horizontal,False",
        ]

    def test_single_period_exits_1(self, flows_csv, capsys):
        assert run("transitions", "--input", flows_csv) == 1
        assert "2 periods" in capsys.readouterr().err

    @pytest.mark.parametrize("policy, code", [("drop", 1), ("own-code", 2)])
    def test_periods_counted_after_drop_before_the_check(self, tmp_path, capsys, policy, code):
        """Snapshot 2020M9 overflows; 2020M10 holds only an unmapped code.
        Under drop one period is left, a configuration error found first."""
        table, group_map = tmp_path / "flows.csv", tmp_path / "map.csv"
        table.write_text(
            f"{HEADER}\n"
            "2020M9,FRA,DEU,1,1e308,0,,,\n"
            "2020M9,FRA,DEU,2,1e308,0,,,\n"
            "2020M10,FRA,DEU,5,116,100,100,100,kg\n"
        )
        group_map.write_text("industry_code,group_id\n1,G\n2,G\n")
        assert run(
            "transitions", "--input", table, "--group-map", group_map, "--group-policy", policy
        ) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert ("2 periods" in err) is (code == 1)


class TestValidate:
    def test_valid_file(self, flows_csv, capsys):
        assert run("validate", "--input", flows_csv) == 0
        assert "2 industry flows" in capsys.readouterr().out

    def test_counts_rows_flows_and_drops(self, tmp_path, capsys):
        path = tmp_path / "dups.csv"
        path.write_text(
            f"{HEADER}\n2020,FRA,DEU,1,1,0,,,\n2020,FRA,DEU,2,0,0,,,\n"
            "2020,FRA,DEU,1,0,1,,,\n\n"
        )
        assert run("validate", "--input", path) == 0
        assert capsys.readouterr().out == (
            "ok: 3 rows, 1 industry flows, 1 zero-trade industries dropped\n"
        )

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(f"{HEADER}\n2020,FRA,DEU,1,1,1,5,,\n")
        assert run("validate", "--input", path) == 2
        assert "row 2" in capsys.readouterr().err

    def test_non_finite_ratio_exits_2_as_the_reports_do(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text(f"{HEADER}\n2020,FRA,DEU,1,1e300,1e300,1e-10,1e-10,kg\n")
        assert run("validate", "--input", path) == 2
        assert capsys.readouterr() == ("", (
            "error: unit-value ratio of key ('2020', 'FRA', 'DEU', '1') is nan: "
            "a unit value over- or underflows the float range\n"
        ))

    def test_overflowing_snapshot_total_exits_2(self, tmp_path, capsys):
        # Each key is finite; a --group-map that puts both in one group overflows it.
        path = tmp_path / "big.csv"
        path.write_text(
            f"{HEADER}\n2019,FRA,DEU,1,1e308,0,,,\n"
            "2020,FRA,DEU,1,1e308,0,,,\n2020,FRA,DEU,2,1e308,0,,,\n"
        )
        assert run("validate", "--input", path) == 2
        assert capsys.readouterr().err == (
            "error: total trade of ('2020', 'FRA', 'DEU') exceeds the float range\n"
        )

    @pytest.mark.parametrize("command", ["validate", "compute", "sweep", "transitions"])
    def test_overflowing_table_total_with_finite_snapshots_passes(self, tmp_path, capsys, command):
        path = tmp_path / "big.csv"
        path.write_text(f"{HEADER}\n2020,FRA,DEU,1,1e308,0,,,\n2021,FRA,DEU,1,1e308,0,,,\n")
        assert run(command, "--input", path) == 0
        assert capsys.readouterr().err == ""

    # Tables whose fault lies in no group a report decomposes, under the
    # options given with each; each has 2 periods.
    _UNCHECKED_BY_GROUPS = {
        # Each key is its own group, and each group's total is finite.
        "snapshot-overflow": (
            "2020,FRA,DEU,1,1e308,0,,,\n2020,FRA,DEU,2,1e308,0,,,\n"
            "2021,FRA,DEU,1,116,100,100,100,kg\n", (),
        ),
        # Code 2's ratio is NaN, and --group-policy drop drops it.
        "dropped-row": (
            "2020,FRA,DEU,1,116,100,100,100,kg\n2020,FRA,DEU,2,1e300,1e300,1e-10,1e-10,kg\n"
            "2021,FRA,DEU,1,116,100,100,100,kg\n", ("--group-policy", "drop"),
        ),
        # Code 2's ratio is NaN, in its one period: no transitions panel holds it.
        "single-period-panel": (
            "2020,FRA,DEU,1,116,100,100,100,kg\n2020,FRA,DEU,2,1e300,1e300,1e-10,1e-10,kg\n"
            "2021,FRA,DEU,1,116,100,100,100,kg\n", (),
        ),
    }

    @pytest.mark.parametrize("table", sorted(_UNCHECKED_BY_GROUPS))
    @pytest.mark.parametrize("command, fmt", [
        ("validate", None),
        *[(c, f) for c in ("compute", "sweep", "transitions") for f in ("json", "csv")],
    ])
    def test_every_command_refuses_what_validate_refuses(
        self, tmp_path, capsys, command, fmt, table
    ):
        body, options = self._UNCHECKED_BY_GROUPS[table]
        path, gmap = tmp_path / "t.csv", tmp_path / "map.csv"
        path.write_text(f"{HEADER}\n{body}")
        gmap.write_text("industry_code,group_id\n1,G\n")
        assert run("validate", "--input", path) == 2
        out, expected = capsys.readouterr()
        assert (out, expected[:7]) == ("", "error: ")
        if command != "validate":
            options = ("--group-map", gmap, "--format", fmt, *options)
            assert run(command, "--input", path, *options) == 2
            assert capsys.readouterr() == ("", expected)


class TestBundledData:
    def test_example_flows_reproduce_family_disagreement(self, tmp_path):
        out = tmp_path / "r.json"
        for family, expected in (
            ("ghm", {"000001": "vertical_high", "000002": "horizontal"}),
            ("ff", {"000001": "vertical_high", "000002": "vertical_low"}),
        ):
            run(
                "compute", "--input", str(example_flows_path()),
                "--family", family, "--alpha", "0.15", "--output", out,
            )
            doc = json.loads(out.read_text())
            labels = {r["group_id"]: r["industries"][0]["label"] for r in doc["reports"]}
            assert labels == expected

    def test_example_panel_flips_once(self, tmp_path):
        out = tmp_path / "t.json"
        run("transitions", "--input", str(example_panel_path()), "--output", out)
        doc = json.loads(out.read_text())
        flips = [
            t for p in doc["panels"] for t in p["transitions"] if t["flipped"]
        ]
        assert len(flips) == 1
        assert flips[0]["industry_code"] == "000001"


class TestWireSchema:
    """The exact CSV headers and JSON key lists of each report, in order."""

    SHARES = [
        "period", "reporter", "partner", "group_id", "family", "alpha", "type_method",
        "aer_threshold", "total_trade", "iit", "hiit", "viit", "hqviit", "lqviit",
        "unclassified_share",
    ]
    FLIP = [
        "period", "reporter", "partner", "industry_code", "alpha", "label_before", "label_after",
    ]
    TRANSITION = [
        "reporter", "partner", "industry_code", "period_from", "period_to",
        "ratio_from", "ratio_to", "label_from", "label_to", "flipped",
    ]
    CONFIG = [
        "command", "input", "group_map", "group_policy", "family", "type_method",
        "aer_threshold", "format",
    ]

    @pytest.mark.parametrize(
        "command, dataset, header",
        [
            ("compute", example_flows_path, SHARES),
            ("sweep", example_flows_path, ["group_id", *FLIP]),
            ("transitions", example_panel_path, ["group_id", *TRANSITION]),
        ],
    )
    def test_csv_header(self, command, dataset, header, capsys):
        assert run(command, "--input", dataset(), "--format", "csv") == 0
        assert capsys.readouterr().out.split("\n", 1)[0] == ",".join(header)

    def json_doc(self, command, dataset, capsys):
        assert run(command, "--input", dataset()) == 0
        return json.loads(capsys.readouterr().out)

    def test_compute_json_keys(self, capsys):
        doc = self.json_doc("compute", example_flows_path, capsys)
        assert list(doc) == ["config", "reports"]
        assert list(doc["config"]) == [*self.CONFIG, "alpha"]
        report = doc["reports"][0]
        assert list(report) == [*self.SHARES, "industries"]
        assert list(report["industries"][0]) == [
            "period", "reporter", "partner", "industry_code", "trade_type", "ratio",
            "label", "unclassifiable", "contribution",
        ]

    def test_sweep_json_keys(self, capsys):
        doc = self.json_doc("sweep", example_flows_path, capsys)
        assert list(doc) == ["config", "sweeps"]
        assert list(doc["config"]) == [*self.CONFIG, "alphas"]
        sweep = doc["sweeps"][0]
        assert list(sweep) == [
            "group_id", "period", "reporter", "partner", "alphas", "reports", "flip_points",
        ]
        assert list(sweep["reports"][0]) == [*self.SHARES, "industries"]
        assert list(sweep["flip_points"][0]) == self.FLIP

    def test_transitions_json_keys(self, capsys):
        doc = self.json_doc("transitions", example_panel_path, capsys)
        assert list(doc) == ["config", "panels"]
        assert list(doc["config"]) == [*self.CONFIG, "alpha", "single_period_panels_skipped"]
        panel = doc["panels"][0]
        assert list(panel) == [
            "reporter", "partner", "group_id", "family", "alpha", "skipped", "transitions",
        ]
        assert list(panel["transitions"][0]) == self.TRANSITION


class TestReportFile:
    """A file named by --output is replaced whole, with the permission bits
    open(path, "w") gives; a device or pipe is written in place."""

    def test_failed_write_leaves_old_report_and_no_temp_file(
        self, flows_csv, tmp_path, monkeypatch, capsys
    ):
        # A NaN share makes the JSON encoder fail after the config is written.
        real, hiit = differentiation._shares_values, SharesReport.FIELDS.index("hiit")
        monkeypatch.setattr(
            differentiation, "_shares_values",
            lambda *a: [_replaced(values, hiit, math.nan) for values in real(*a)],
        )
        out = tmp_path / "report.json"
        out.write_text("old report\n")
        assert run("compute", "--input", flows_csv, "--output", out) == 2
        assert capsys.readouterr().err.startswith("error: report holds a number JSON cannot encode")
        assert out.read_text() == "old report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["flows.csv", "report.json"]

    def test_new_report_mode_follows_umask(self, flows_csv, tmp_path):
        out = tmp_path / "report.json"
        assert run("compute", "--input", flows_csv, "--output", out) == 0
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    def test_replaced_report_keeps_its_mode(self, flows_csv, tmp_path):
        out = tmp_path / "report.csv"
        out.write_text("old report\n")
        out.chmod(0o640)
        assert run("compute", "--input", flows_csv, "--format", "csv", "--output", out) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.read_text().startswith("period,reporter,partner")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["flows.csv", "report.csv"]

    def test_symlink_target_is_replaced(self, flows_csv, tmp_path):
        target = tmp_path / "real.csv"
        target.write_text("old report\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert run("compute", "--input", flows_csv, "--format", "csv", "--output", link) == 0
        assert link.is_symlink()
        assert target.read_text().startswith("period,reporter,partner")

    def test_fifo_is_written_in_place(self, flows_csv, tmp_path):
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run("compute", "--input", flows_csv, "--format", "csv", "--output", fifo) == 0
            assert os.read(reader, 1 << 16).startswith(b"period,reporter,partner")
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)


# sha256 of stdout and the exit code of each command, each recorded at the commit
# before the refactor it guards (the unified report writer; the one-pass sweep
# added the ff/vona sweeps and transitions csv). Refactors must keep every byte.
GOLDEN = {
    ("example_flows.csv", "compute", "json", "ghm", "aer"): (0, "7c8face804f69d39bbd01096025e4459cbc359d91a435c8685c646ac3a0e82d7"),
    ("example_flows.csv", "compute", "csv", "ghm", "aer"): (0, "a71ef351d6146b48c9a131641a9904cbc07d4293a4de738b72f1181d41732e58"),
    ("example_flows.csv", "compute", "json", "ff", "vona"): (0, "85166b7bcc111795746cf3cdcaba17d2e8db8ab87adcd1feeb273fc1d8b8f695"),
    ("example_flows.csv", "compute", "csv", "ff", "vona"): (0, "b38cb609a4859703c98077a6254f52a30dc21ff1a44bf5b4bbeb51a5af2663db"),
    ("example_flows.csv", "sweep", "json", "ghm", "aer"): (0, "b6467677e8cfd6119069d8688bb56e7c9cd29a36226c9cff7f535d52627fdf56"),
    ("example_flows.csv", "sweep", "csv", "ghm", "aer"): (0, "4029feabbe81aacd23503174a5034507ca0d21d56cadd35f7488f3c3e8d91643"),
    ("example_flows.csv", "sweep", "json", "ff", "vona"): (0, "eaf9306326c562a5492e7ff015bbc930b2bfe310d70f750069b4cf68ccf51f61"),
    ("example_flows.csv", "sweep", "csv", "ff", "vona"): (0, "539629ece154ca8b46ead990433cc4f42d905a4ce6433fc9e0e1cda636eb6825"),
    # One period: transitions is a configuration error and writes nothing.
    ("example_flows.csv", "transitions", "json", "ghm", "aer"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("example_flows.csv", "transitions", "csv", "ghm", "aer"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("example_panel.csv", "compute", "json", "ghm", "aer"): (0, "882b67c6d9e485babd125d847fbdfba94133f86f719701ded8a053511301194d"),
    ("example_panel.csv", "compute", "csv", "ghm", "aer"): (0, "785cb699c2502986f764e366d2d5938307c7727341225f852a79748d026428f6"),
    ("example_panel.csv", "compute", "json", "ff", "vona"): (0, "2909446970dac19b8528be6baebfa4d0df1e2d02fdae911f909cf93bee429591"),
    ("example_panel.csv", "compute", "csv", "ff", "vona"): (0, "df7c6189c3400514a8a1571f1ab7797c11c662d16b097d05480f9018fdafb984"),
    ("example_panel.csv", "sweep", "json", "ghm", "aer"): (0, "d50f72c038a8fd5bc88d0ec62807a7a851be52e729cc349f0df1e46cd34d6678"),
    ("example_panel.csv", "sweep", "csv", "ghm", "aer"): (0, "4df7525f03b5be2e60a925911d58e734a0853978b17e202a922d0201c1ee9f5e"),
    ("example_panel.csv", "sweep", "json", "ff", "vona"): (0, "4d1208111ca92747531d9eff72b3763b083c3ae1b656ef6713e950b5cf961549"),
    ("example_panel.csv", "sweep", "csv", "ff", "vona"): (0, "4df7525f03b5be2e60a925911d58e734a0853978b17e202a922d0201c1ee9f5e"),
    ("example_panel.csv", "transitions", "json", "ghm", "aer"): (0, "de1c318d262613eb0cb7b70facf341522935acea992b83116be359d44788196c"),
    ("example_panel.csv", "transitions", "csv", "ghm", "aer"): (0, "6c4b232bd12a78056f2c156f8bbfc6aeab2f60306908f249f425f9f315c9f494"),
    ("example_panel.csv", "transitions", "json", "ff", "vona"): (0, "6018d77e1102c3eb6d4d596ce2dc099e40e1a0547934ff7f59ab0d3c68a05318"),
    ("example_panel.csv", "transitions", "csv", "ff", "vona"): (0, "6c4b232bd12a78056f2c156f8bbfc6aeab2f60306908f249f425f9f315c9f494"),
}
# The same for tests/fixtures/grouped_panel.csv under its group map, recorded at
# the commit before the one decomposition engine. Groups of several members,
# sweep flips, unclassified and one-way members, a repeated key and ratios on
# and one float either side of the 0.15 band edges, which the bundled datasets
# (one member per group) never reach.
GOLDEN_GROUPED = {
    ("compute", "json", "ghm", "aer"): (0, "dd11391c220dc6cb28e4e9b5f01f3aae776297c2f92a61dfff0d9ed08ac87501"),
    ("compute", "csv", "ghm", "aer"): (0, "7086e838d303cbac419ecdf010a7dea36fc0d85df897a71d6d6c60b370761f69"),
    ("sweep", "json", "ghm", "aer"): (0, "df2b269c704b667cffc33ea898019073ee65ad2668da04d660d8c7dc12130556"),
    ("sweep", "csv", "ghm", "aer"): (0, "f3721a0e3272eaa76707deb2ba9ec9ac66bd31736da7c2e49b90ca09c5c0ee23"),
    ("transitions", "json", "ghm", "aer"): (0, "c6dafbbf6d4c50ac9c8405faa398bf2fcfbb6b96c1f107198369858f9e787c6d"),
    ("transitions", "csv", "ghm", "aer"): (0, "804c786b5bfda23a2814ef66d6a3261ee6488df1601abd35938724dfd37516ec"),
    ("compute", "json", "ff", "vona"): (0, "0c94d7ecec53eb1ebf09da4536125733b6c97a1a1ea2a8685448f6ac202e11cc"),
    ("compute", "csv", "ff", "vona"): (0, "e256cb04682c981b4558db64e8a53112f81c09b726ed000acc89dbe1eeb6b93c"),
    ("sweep", "json", "ff", "vona"): (0, "5ad7a2926033d181c2ac54a57141c686719e0e59fded06a562b8d5eda100061e"),
    ("sweep", "csv", "ff", "vona"): (0, "bc9a17fd91cef8a7215e37270856b06fcfc3f3c4c32aebc36cc39fb92fd07b8c"),
    ("transitions", "json", "ff", "vona"): (0, "cee0c3f4bfc11abdfdc95f31468a0d6564cbb8f41c5c8aa67a719fe9cc1807d3"),
    ("transitions", "csv", "ff", "vona"): (0, "200d03bcf711c0af03db949b0ebc87adb25df0ab02f4303dcfaabf777461ccc2"),
}
GOLDEN_VALIDATE = {
    "example_flows.csv": "766dc3ca1a9ebe7ce8cd3aae3710ba993ae2b9b76f0f1657b0773e5c8c0c586d",
    "example_panel.csv": "7eb2bd5686c2082f9037f4b2a4a5f591f2d2fb4231c22841d7158ebcb4d0a83e",
}


class TestByteOrderMark:
    """A table saved as "CSV UTF-8" starts with EF BB BF and reads as the plain copy."""

    @pytest.fixture
    def copies(self, tmp_path) -> list[Path]:
        """Directories holding flows.csv and groups.csv, plain and each with a BOM."""
        table = example_flows_path().read_bytes()
        groups = b"industry_code,group_id\n000001,G\n000002,G\n"
        dirs = []
        for name, table_bom, groups_bom in (
            ("plain", b"", b""), ("table", b"\xef\xbb\xbf", b""), ("groups", b"", b"\xef\xbb\xbf"),
        ):
            (tmp_path / name).mkdir()
            (tmp_path / name / "flows.csv").write_bytes(table_bom + table)
            (tmp_path / name / "groups.csv").write_bytes(groups_bom + groups)
            dirs.append(tmp_path / name)
        return dirs

    @pytest.mark.parametrize("args", [
        ["validate", "--input", "flows.csv"],
        ["compute", "--input", "flows.csv", "--format", "csv"],
        ["compute", "--input", "flows.csv", "--group-map", "groups.csv"],
    ])
    def test_same_output_as_the_plain_copy(self, copies, args, capsys, monkeypatch):
        outputs = []
        for directory in copies:
            monkeypatch.chdir(directory)  # the JSON config echoes the relative paths
            assert main(args) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].err == ""
        assert outputs[1:] == outputs[:1] * 2


class TestGoldenOutput:
    """Byte-identical stdout on the bundled datasets.

    Runs from the data directory with a relative --input, so the input path
    the JSON config echoes is the same on every machine.
    """

    @pytest.fixture(autouse=True)
    def in_data_dir(self, monkeypatch):
        monkeypatch.chdir(example_flows_path().parent)

    @staticmethod
    def digest(capsys) -> str:
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    @pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
    def test_report(self, case, capsys):
        dataset, command, fmt, family, type_method = case
        code = main([
            command, "--input", dataset, "--format", fmt,
            "--family", family, "--type-method", type_method,
        ])
        assert (code, self.digest(capsys)) == GOLDEN[case]

    @pytest.mark.parametrize("case", sorted(GOLDEN_GROUPED), ids="-".join)
    def test_grouped_report(self, case, capsys, monkeypatch):
        monkeypatch.chdir(FIXTURES)
        command, fmt, family, type_method = case
        code = main([
            command, "--input", "grouped_panel.csv", "--group-map", "grouped_panel_groups.csv",
            "--format", fmt, "--family", family, "--type-method", type_method,
        ])
        assert (code, self.digest(capsys)) == GOLDEN_GROUPED[case]

    @pytest.mark.parametrize("dataset", sorted(GOLDEN_VALIDATE))
    def test_validate(self, dataset, capsys):
        assert main(["validate", "--input", dataset]) == 0
        assert self.digest(capsys) == GOLDEN_VALIDATE[dataset]


class TestEntryPoint:
    """The installed command and `python -m iitkit.cli` run through entry_point,
    which switches the cyclic collector off; main() leaves it as it was."""

    @staticmethod
    def run_module(*args, cwd=None, input=None):
        src = str(Path(iitkit.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args], cwd=cwd, capture_output=True, input=input,
            env={**os.environ, "PYTHONPATH": path},
        )

    @pytest.mark.parametrize("case", [
        ("example_panel.csv", "transitions", "json", "ff", "vona"),
        ("example_panel.csv", "compute", "json", "ghm", "aer"),
        ("example_panel.csv", "sweep", "json", "ghm", "aer"),
    ], ids="-".join)
    def test_module_run_matches_golden(self, case):
        dataset, command, fmt, family, type_method = case
        proc = self.run_module(
            "-m", "iitkit.cli", command, "--input", dataset, "--format", fmt,
            "--family", family, "--type-method", type_method,
            cwd=example_flows_path().parent,
        )
        assert proc.stderr == b""
        assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == GOLDEN[case]

    def test_stdin_pipe_reads_as_the_file_does(self, flows_csv):
        # `cat flows.csv | iitkit validate --input /dev/stdin`
        proc = self.run_module("-m", "iitkit.cli", "validate", "--input", "/dev/stdin",
                               input=flows_csv.read_bytes())
        from_file = self.run_module("-m", "iitkit.cli", "validate", "--input", flows_csv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, from_file.stdout, b"")

    @pytest.mark.parametrize("argv, size", [
        (["compute", "--format", "csv"], 10),
        (["transitions", "--format", "json"], 10),
        (["validate"], 0),
    ], ids=["compute-csv", "transitions-json", "validate"])
    def test_stdout_closed_early_exits_1_without_traceback(self, tmp_path, argv, size):
        """`iitkit ... | head -c 10`: the reader closes the pipe after 10 bytes
        of a report of about 1 MB, far more than the pipe holds. validate's
        one line is still in the buffer when its reader has gone."""
        table = tmp_path / "flows.csv"
        table.write_text(HEADER + "\n" + "".join(
            f"{period},FRA,DEU,{code},116,100,100,100,kg\n"
            for period in ("2020", "2021") for code in range(3000)
        ))
        src = str(Path(iitkit.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        # Buffered, as stdout is by default: the bytes left in the buffer
        # are flushed again as the interpreter exits.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "iitkit.cli", *argv, "--input", table],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**env, "PYTHONPATH": path},
        )
        assert len(proc.stdout.read(size)) == size
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err.startswith(b"error: ") and err.count(b"\n") == 1 and err.endswith(b"\n")

    def test_entry_point_disables_the_cyclic_collector(self):
        proc = self.run_module("-c", (
            "import gc, iitkit.cli as cli\n"
            "cli.main = lambda: print(gc.isenabled()) or 0\n"
            "cli.entry_point()\n"
        ))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"False\n", b"")

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_it_found_it(self, flows_csv, capsys, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run("compute", "--input", flows_csv) == 0
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


# Scalars json.dump writes in its own ways: escapes, the shortest float
# repr, the largest float printed without an exponent, ints, bools and null.
_TEXT = st.text(st.one_of(st.sampled_from('"\\/%\x00\x1f\x7f\u2028é€😀'), st.characters()), max_size=6)
_FLOAT = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_SCALAR = st.one_of(_TEXT, _FLOAT, st.integers(), st.booleans(), st.none())
_KEY = st.builds(FlowKey, _TEXT, _TEXT, _TEXT, _TEXT)
_LABEL = st.sampled_from(Differentiation)
_LINE = st.builds(
    IndustryLine, _TEXT, _TEXT, _TEXT, _TEXT, st.sampled_from([t.value for t in TradeType]),
    _SCALAR, st.one_of(st.none(), st.sampled_from([d.value for d in Differentiation])),
    st.one_of(st.none(), st.sampled_from([u.value for u in UnclassifiableReason])), _SCALAR,
)


@st.composite
def _shares_reports(draw):
    return SharesReport(
        draw(_SCALAR), (draw(_TEXT), draw(_TEXT), draw(_TEXT)), draw(_SCALAR), draw(_SCALAR),
        SimpleNamespace(kind=draw(_SCALAR), threshold=draw(_SCALAR)),
        *draw(st.tuples(*[_SCALAR] * 7)), tuple(draw(st.lists(_LINE, max_size=3))),
    )


_SWEEP = st.builds(
    SweepResult, _SCALAR, st.tuples(_TEXT, _TEXT, _TEXT), st.lists(_SCALAR, max_size=3).map(tuple),
    st.lists(_shares_reports(), max_size=2).map(tuple),
    st.lists(st.builds(FlipPoint, _KEY, _SCALAR, _LABEL, _LABEL), max_size=3).map(tuple),
)
_PANEL = st.builds(
    TransitionReport, _TEXT, _TEXT, _SCALAR, _SCALAR, _SCALAR,
    st.lists(st.builds(Transition, _KEY, _KEY, _SCALAR, _SCALAR, _LABEL, _LABEL), max_size=3).map(tuple),
    _SCALAR,
)
_DOCUMENT = st.one_of(
    st.tuples(st.just("reports"), st.lists(_shares_reports(), max_size=3)),
    st.tuples(st.just("sweeps"), st.lists(_SWEEP, max_size=2)),
    st.tuples(st.just("panels"), st.lists(_PANEL, max_size=3)),
)
_OPTIONS = st.fixed_dictionaries({}, optional={
    k: st.one_of(_SCALAR, st.lists(_SCALAR, max_size=3)) for k in cli._CONFIG_KEYS if k != "format"
})


class TestJsonReport:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(document=_DOCUMENT, options=_OPTIONS, extra=st.dictionaries(
        st.just("skipped"), st.one_of(_SCALAR, st.dictionaries(_TEXT, _SCALAR, max_size=2)),
    ))
    def test_bytes_match_json_dump(self, capsys, document, options, extra):
        """Each document kind is written as json.dump(indent=2) writes its to_dict() form."""
        key, records = document
        options = {**options, "format": "json"}
        args = argparse.Namespace(**options, output=None)
        assert cli._write_report(args, key, records, None, **extra) == 0
        config = {**{k: options[k] for k in cli._CONFIG_KEYS if k in options}, **extra}
        expected = {"config": config, key: [r.to_dict() for r in records]}
        assert capsys.readouterr().out == json.dumps(expected, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("command, module, name, plant", [
        # A group-level share, an industry line, and a transition line: each
        # planted in what the runner draws its report records from.
        ("compute", differentiation, "_shares_values", lambda tables, v: [
            _replaced(values, SharesReport.FIELDS.index("total_trade"), v) for values in tables
        ]),
        ("sweep", cli, "alpha_sweep", lambda s, v: dataclasses.replace(s, reports=(dataclasses.replace(
            s.reports[0], industries=(s.reports[0].industries[0]._replace(contribution=v),
                                      *s.reports[0].industries[1:])), *s.reports[1:]))),
        ("transitions", cli, "nature_transitions", lambda r, v: dataclasses.replace(
            r, transitions=(r.transitions[0]._replace(ratio_to=v), *r.transitions[1:]))),
    ])
    def test_non_finite_number_exits_2_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, command, module, name, plant, value
    ):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: plant(real(*a), value))
        out = tmp_path / "report.json"
        assert run(command, "--input", example_panel_path(), "--output", out) == 2
        assert capsys.readouterr() == ("", (
            "error: report holds a number JSON cannot encode: "
            f"Out of range float values are not JSON compliant: {value!r}\n"
        ))
        assert list(tmp_path.iterdir()) == []


_NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
# One column of a Rows, of each kind `cli._column` tells apart.
_COLUMN = st.sampled_from([
    _TEXT, st.booleans(), st.integers(), _FLOAT,
    st.one_of(st.none(), _FLOAT),  # None among floats
    st.one_of(st.booleans(), st.integers()),  # bools among ints
    st.one_of(_FLOAT, _NON_FINITE),
    st.sampled_from([1e308, 1.7e308, 0.5, -0.0]),  # finite, but their sum may overflow
    st.none(),
])


@st.composite
def _rows(draw) -> Rows:
    """A Rows of up to 5 lines over 1 to 4 fields, each column drawn from one of `_COLUMN`."""
    fields = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    count = draw(st.integers(0, 5))
    columns = [
        draw(st.lists(draw(_COLUMN), min_size=count, max_size=count)) for _ in fields
    ]
    return Rows(tuple(fields), list(zip(*columns)))


@settings(max_examples=400)
@given(rows=_rows(), nested=st.booleans())
@example(rows=Rows(("a",), []), nested=False)
@example(rows=Rows(("%s", "%%", "%"), [("", 1, None)]), nested=False)  # a field name holding %
@example(rows=Rows(("a", "b"), [(1e308, 1), (1e308, True)]), nested=True)
@example(rows=Rows(("a", "b"), [(1.0, math.nan), (math.inf, 2.0)]), nested=False)
def test_column_kernel_writes_what_json_dumps_writes(rows, nested):
    """Bytes as json.dumps(indent=2) gives them; on a float that is not finite,
    the error for the first one in row order, after the rows before it."""
    value = {"rows": rows} if nested else rows
    pieces: list[str] = []
    bad = [i for i, row in enumerate(rows.values) if any(
        type(v) is float and not math.isfinite(v) for v in row
    )]
    if not bad:
        cli._write_json(pieces.append, value, 0)
        assert "".join(pieces) == json.dumps(_plain(value), indent=2, allow_nan=False)
        return
    with pytest.raises(ValueError) as exc:
        cli._write_json(pieces.append, value, 0)
    first = next(v for v in rows.values[bad[0]] if type(v) is float and not math.isfinite(v))
    assert str(exc.value) == f"Out of range float values are not JSON compliant: {first!r}"
    if not nested:  # the rows before it, as json.dumps writes them, less the closing "\n]"
        before = json.dumps(_plain(Rows(rows.fields, rows.values[:bad[0]])), indent=2)
        assert "".join(pieces) == (before[:-2] if bad[0] else "")


def _reject_constant(name):
    raise ValueError(f"{name} in a JSON report")


_NUMBER = st.one_of(
    st.sampled_from([
        "", "0", "1", "5", "100", "1e-10", "1e-300", "1e300", "1e308", "1.7e308",
        "1e999", "inf", "-inf", "nan", "-1", "x",
    ]),
    st.floats(min_value=0, max_value=1.7e308).map(repr),
)
_ROW = st.tuples(
    st.sampled_from(["2020", "2021", "2020M9", ""]),
    st.just("FRA"),
    st.sampled_from(["DEU", "USA"]),
    st.sampled_from(["1", "2", "3"]),
    _NUMBER, _NUMBER, _NUMBER, _NUMBER,
    st.sampled_from(["", "kg", "unit"]),
).map(lambda cells: ",".join(cells) + "\n")
# A quoted field of up to 140,000 characters, closed or not: past 131,072
# the csv module refuses it, and an unclosed one runs to the end of input.
_QUOTED = st.tuples(
    st.lists(_ROW, max_size=3),
    st.sampled_from([0, 131_071, 131_072, 131_073, 140_000]),
    st.sampled_from([b"", b'"', b'",1,1,,,\n']),
    st.binary(max_size=4),
).map(lambda t: "".join(t[0]).encode() + b'2020,FRA,DEU,"' + b"x" * t[1] + t[2] + t[3])
_BODY = st.one_of(
    st.binary(max_size=80),
    _QUOTED,
    st.tuples(st.lists(_ROW, max_size=8), st.binary(max_size=4)).map(
        lambda t: "".join(t[0]).encode() + t[1]
    ),
)
# Rows whose cells all parse, so that validate accepts many of the tables.
_VALID_ROWS = st.lists(_ROW.filter(lambda line: not any(
    cell in ("", "1e999", "inf", "-inf", "nan", "-1", "x") for cell in line.split(",")[4:6]
)), max_size=8).map(lambda rows: "".join(rows).encode())
_RUN = st.sampled_from([
    ("compute", "json"), ("compute", "csv"), ("sweep", "json"), ("sweep", "csv"),
    ("transitions", "json"), ("transitions", "csv"), ("validate", None),
])


class TestFuzz:
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(body=_BODY, run_=_RUN, family=st.sampled_from(["ghm", "ff"]))
    def test_exit_code_and_finite_report(self, tmp_path, capsys, body, run_, family):
        """Any table after the header: exit 0, 1 or 2, no exception, and no
        non-finite number in a report."""
        command, fmt = run_
        table, out = tmp_path / "fuzz.csv", tmp_path / "out"
        table.write_bytes(f"{HEADER}\n".encode() + body)
        out.unlink(missing_ok=True)
        argv = [command, "--input", str(table)]
        if fmt is not None:
            argv += ["--format", fmt, "--family", family, "--output", str(out)]
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2)
        if code != 0 or fmt is None:
            return
        text = out.read_text(encoding="utf-8")
        if fmt == "json":
            json.loads(text, parse_constant=_reject_constant)
        else:
            for row in csv.reader(io.StringIO(text)):
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(value), row

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(body=st.one_of(_BODY, _VALID_ROWS), family=st.sampled_from(["ghm", "ff"]))
    @example(body=b"2020,FRA,DEU,1,1e300,1e300,1e-10,1e-10,kg\n", family="ghm")  # NaN ratio
    def test_validate_ok_means_the_reports_run(self, tmp_path, capsys, body, family):
        """A table validate accepts is one every report command accepts:
        transitions exits 1 only when the table has fewer than 2 periods."""
        table = tmp_path / "fuzz.csv"
        table.write_bytes(f"{HEADER}\n".encode() + body)
        if main(["validate", "--input", str(table)]) != 0:
            capsys.readouterr()
            return
        with open(table, "rb") as fh:
            periods = {flow.key.period for flow in read_flows(fh).flows}
        for command in ("compute", "sweep", "transitions"):
            code = main([command, "--input", str(table), "--family", family])
            expected = 1 if command == "transitions" and len(periods) < 2 else 0
            assert code == expected, (command, capsys.readouterr().err)
        capsys.readouterr()


# The cells after the key of a row of each kind. Two "big" rows in one
# group overflow its total; a "nan" row's unit values are inf/inf.
_KINDS = {
    "ok": "116,100,100,100,kg",
    "one-way": "100,0,,,",
    "big": "1e308,0,,,",
    "nan": "1e300,1e300,1e-10,1e-10,kg",
}
_GROUP_MAP = "industry_code,group_id\n1,G\n2,G\n3,G\n4,H\n"  # code 5 is its own group
# One row per key, so no key's merged sum overflows while the table is read.
_FAULTY_ROWS = st.dictionaries(
    st.tuples(
        st.sampled_from(["2020M9", "2020M10", "2021"]),
        st.sampled_from(["DEU", "USA"]),
        st.sampled_from(["1", "2", "3", "4", "5"]),
    ),
    st.sampled_from(["ok", "one-way", "big", "big", "nan"]),
    min_size=1, max_size=14,
).map(lambda rows: "".join(
    f"{period},FRA,{partner},{code},{_KINDS[kind]}\n"
    for (period, partner, code), kind in rows.items()
))


class TestFirstError:
    @pytest.mark.parametrize("command", ["compute", "sweep", "transitions"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=_FAULTY_ROWS, family=st.sampled_from(["ghm", "ff"]))
    # In both periods group G's total overflows and one member's ratio is
    # NaN. The error is the NaN of 2020M9, the first fault in flow order,
    # though in report order a total overflows first.
    @example(body="".join(
        f"{period},FRA,DEU,{code},{_KINDS[kind]}\n"
        for period, kinds in [("2020M9", "big big nan"), ("2020M10", "nan big big")]
        for code, kind in zip("123", kinds.split())
    ), family="ghm")
    def test_same_error_as_validate(self, tmp_path, capsys, command, fmt, body, family):
        """A report refuses with validate's message whatever its group map,
        once the map is read and the periods counted, and runs otherwise."""
        table, group_map = tmp_path / "faulty.csv", tmp_path / "map.csv"
        table.write_text(f"{HEADER}\n{body}")
        group_map.write_text(_GROUP_MAP)
        code = run(
            command, "--input", table, "--group-map", group_map, "--format", fmt,
            "--family", family,
        )
        out, err = capsys.readouterr()
        periods = {line.split(",")[0] for line in body.splitlines()}
        if command == "transitions" and len(periods) < 2:
            assert (code, out) == (1, "")
            return
        refused = run("validate", "--input", table) != 0
        expected = capsys.readouterr().err
        if refused:
            assert (code, out, err) == (2, "", expected)
        else:
            assert (code, err) == (0, "")


def _listed_transitions(args: argparse.Namespace) -> int:
    """The transitions runner as it was before it streamed its panels: every
    group listed by apply_grouping, then a dict of panels. The streamed
    runner must write what it wrote."""
    flows, _, groups = cli._load_groups(args, apply_grouping)
    periods = {g.snapshot[0] for g in groups}
    if len(periods) < 2:
        raise cli.ConfigError(
            f"transitions needs at least 2 periods in the input, found {len(periods)}"
        )
    cli._check(flows)
    type_method = cli._type_method(args)
    panels: dict[tuple[str, str, str], list[IndustryGroup]] = {}
    for group in groups:
        _, reporter, partner = group.snapshot
        panels.setdefault((reporter, partner, group.group_id), []).append(group)
    series = [s for _, s in sorted(panels.items()) if len(s) > 1]
    reports = (nature_transitions(s, args.alpha, args.family, type_method) for s in series)
    return cli._write_report(
        args, "panels", reports, _transitions_table,
        single_period_panels_skipped=len(panels) - len(series),
    )


# One row per key, of the kinds of _KINDS or of ratio 1, which flips from
# "ok" (ratio 1.16) at alpha 0.15. A snapshot with two "big" rows overflows,
# a "nan" row's ratio cannot be formed, a "one-way" row has none.
_PANEL_KINDS = {**_KINDS, "level": "100,100,100,100,kg"}
_PANEL_ROWS = st.dictionaries(
    st.tuples(
        st.sampled_from(["2020M9", "2020M10", "2021"]),
        st.sampled_from(["FRA", "ITA"]),
        st.sampled_from(["DEU", "USA"]),
        st.sampled_from(["1", "2", "3", "4", "5"]),
    ),
    st.sampled_from(["ok"] * 6 + ["level"] * 6 + ["one-way", "one-way", "big", "nan"]),
    min_size=1, max_size=24,
).map(lambda rows: "".join(
    f"{period},{reporter},{partner},{code},{_PANEL_KINDS[kind]}\n"
    for (period, reporter, partner, code), kind in rows.items()
))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    body=_PANEL_ROWS,
    # Group ids that are codes too mix mapped groups with own-code ones.
    mapping=st.one_of(st.none(), st.dictionaries(
        st.sampled_from("12345"), st.sampled_from(["G", "H", "1", "5"])
    )),
    policy=st.sampled_from(GROUP_POLICIES),
    fmt=st.sampled_from(["json", "csv"]),
    family=st.sampled_from(["ghm", "ff"]),
)
# Under drop one period is left, and a snapshot of it overflows: exit 1.
@example(
    body="2020M9,FRA,DEU,1,1e308,0,,,\n2020M9,FRA,DEU,2,1e308,0,,,\n"
         "2020M10,FRA,DEU,5,116,100,100,100,kg\n",
    mapping={"1": "G", "2": "G"}, policy="drop", fmt="json", family="ghm",
)
def test_streamed_panels_write_what_listed_panels_wrote(
    tmp_path, monkeypatch, capsys, body, mapping, policy, fmt, family
):
    """Exit code, stdout and stderr of the transitions runner equal those of
    the one that listed its groups, on any table, map and policy."""
    table, group_map = tmp_path / "flows.csv", tmp_path / "map.csv"
    table.write_text(f"{HEADER}\n{body}")
    argv = ["transitions", "--input", str(table), "--group-policy", policy, "--format", fmt,
            "--family", family]
    if mapping is not None:
        group_map.write_text("industry_code,group_id\n" + "".join(
            f"{code},{group_id}\n" for code, group_id in mapping.items()
        ))
        argv += ["--group-map", str(group_map)]
    streamed = main(argv), capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setitem(cli._RUNNERS, "transitions", _listed_transitions)
        listed = main(argv), capsys.readouterr()
    assert streamed == listed


class _Tracked(list):
    """A list that a weakref can follow, unlike a plain list or a tuple."""


# What each runner builds one of per group or panel, and how to make it
# followable. compute builds a CSV row with _shares_values, followed as the
# row the runner takes from it, and a JSON record with decompose_shares. A
# CSV sweep builds its flips with sweep_flips, a JSON one its records with
# alpha_sweep. transitions writes nature_transitions records in both formats.
_RECORD_MAKERS = {
    "decompose_shares": None,
    "_shares_values": lambda tables: [_Tracked(values) for values in tables],
    "alpha_sweep": None,
    "sweep_flips": _Tracked,
    "nature_transitions": None,
}


def _replaced(values: tuple, index: int, value) -> tuple:
    """`values` with the one at `index` replaced by `value`."""
    return (*values[:index], value, *values[index + 1:])


class TestOneRecordAtATime:
    @pytest.mark.parametrize("fmt, command, name", [
        ("json", "compute", "decompose_shares"),
        ("csv", "compute", "_shares_values"),
        ("json", "sweep", "alpha_sweep"),
        ("csv", "sweep", "sweep_flips"),
        ("json", "transitions", "nature_transitions"),
        ("csv", "transitions", "nature_transitions"),
    ])
    def test_at_most_two_records_alive(self, tmp_path, monkeypatch, capsys, command, name, fmt):
        """The record being built and the one last written; 120 groups, 60 panels.
        Each is built once the writing has begun, as the writer draws it."""
        table = tmp_path / "flows.csv"
        table.write_text(HEADER + "\n" + "".join(
            f"{period},FRA,DEU,{code},116,100,100,100,kg\n"
            for period in ("2020", "2021") for code in range(60)
        ))
        alive = peak = early = 0
        writing = False

        def dead():
            nonlocal alive
            alive -= 1

        def started(write):
            def call(*args):
                nonlocal writing
                writing = True
                return write(*args)

            return call

        def counted(*args):
            nonlocal alive, peak, early
            early += not writing
            record = real(*args)
            if make is not None:
                record = make(record)
            weakref.finalize(record[0] if name == "_shares_values" else record, dead)
            alive += 1
            peak = max(peak, alive)
            return record

        real, make = getattr(cli, name), _RECORD_MAKERS[name]
        monkeypatch.setattr(cli, name, counted)
        for writer in ("_write_csv", "_write_json"):
            monkeypatch.setattr(cli, writer, started(getattr(cli, writer)))
        assert run(command, "--input", table, "--format", fmt) == 0
        capsys.readouterr()
        assert 1 <= peak <= 2
        assert early == 0

    @pytest.mark.parametrize("command", ["compute", "sweep", "transitions"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_groups_streamed_not_listed(self, tmp_path, monkeypatch, capsys, command, fmt):
        """The group being built and the one last checked or written; 120
        one-member groups, each built once. transitions builds a panel's
        groups together: of its 60 panels of 2 periods, at most one panel's
        groups and one more are alive."""
        table = tmp_path / "flows.csv"
        table.write_text(HEADER + "\n" + "".join(
            f"{period},FRA,DEU,{code},116,100,100,100,kg\n"
            for period in ("2020", "2021") for code in range(60)
        ))
        counts = _count_groups(monkeypatch)
        assert run(command, "--input", table, "--format", fmt) == 0
        capsys.readouterr()
        assert counts["built"] == 120
        if command == "transitions":
            assert 2 <= counts["peak"] <= 3
        else:
            assert 1 <= counts["peak"] <= 2

    @pytest.mark.parametrize("command", ["compute", "sweep"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    # Code 0 trades 1e308 in both snapshots: the table's total overflows, no snapshot's does.
    @pytest.mark.parametrize("value", ["116", "1e308"])
    def test_each_group_built_once_on_a_sound_table(
        self, tmp_path, monkeypatch, capsys, command, fmt, value
    ):
        """40 groups of 3 over 2 snapshots, built only as the report is written:
        the check reads the flows, not the groups."""
        table, group_map = tmp_path / "flows.csv", tmp_path / "map.csv"
        table.write_text(HEADER + "\n" + "".join(
            f"2020,FRA,{partner},{code},{value if code == 0 else 116},100,100,100,kg\n"
            for partner in ("DEU", "USA") for code in range(60)
        ))
        group_map.write_text("industry_code,group_id\n" + "".join(
            f"{code},G{code // 3}\n" for code in range(60)
        ))
        counts = _count_groups(monkeypatch)
        assert run(command, "--input", table, "--group-map", group_map, "--format", fmt) == 0
        capsys.readouterr()
        assert counts["built"] == 40
        assert 1 <= counts["peak"] <= 2


def _count_groups(monkeypatch) -> dict[str, int]:
    """Count the groups the runners' walks build, alive, and most alive at once.

    `_groups` builds its groups through their slots, past any __init__, so
    each walk's groups are swapped for counted copies, which the runner
    then holds in place of the originals.
    """
    counts = {"built": 0, "alive": 0, "peak": 0}

    def dead():
        counts["alive"] -= 1

    class Counted(IndustryGroup):
        __slots__ = ("__weakref__",)  # IndustryGroup's slots leave no room for a weakref

        def __post_init__(self):
            super().__post_init__()
            weakref.finalize(self, dead)
            counts["built"] += 1
            counts["alive"] += 1
            counts["peak"] = max(counts["peak"], counts["alive"])

    def counted_groups(ordered, mapping):
        for group in real(ordered, mapping):
            yield Counted(group.group_id, group.members)

    real = cli._groups
    monkeypatch.setattr(cli, "_groups", counted_groups)
    return counts


_HUGE = st.sampled_from(["0", "116", "1e300", "5e307", "8e307", "1e308"])
# One row per key: a key's total is its row's, and the table's total may overflow.
_HUGE_ROWS = st.dictionaries(
    st.tuples(
        st.sampled_from(["2020", "2021"]),
        st.sampled_from(["DEU", "USA"]),
        st.sampled_from(["1", "2", "3", "4", "5"]),
    ),
    st.tuples(_HUGE, _HUGE, st.sampled_from([",,", "100,100,kg", "1e-10,1e-300,kg"])),
    min_size=1, max_size=14,
).map(lambda rows: "".join(
    f"{period},FRA,{partner},{code},{','.join(cells)}\n"
    for (period, partner, code), cells in rows.items()
))


@settings(max_examples=300)
@given(body=_HUGE_ROWS, mapping=st.one_of(
    st.just({"1": "G", "2": "G", "3": "G", "4": "H"}),
    st.dictionaries(st.sampled_from("1234"), st.sampled_from("GH1")),
))
# The table's total is 1.6e308, each snapshot's 8e307.
@example(
    body="2020,FRA,DEU,1,8e307,0,100,100,kg\n2020,FRA,USA,1,0,8e307,100,100,kg\n",
    mapping={"1": "G"},
)
# The table's total overflows, each snapshot's is 1e308.
@example(
    body="2020,FRA,DEU,1,1e308,0,100,100,kg\n2020,FRA,USA,1,0,1e308,100,100,kg\n",
    mapping={"1": "G"},
)
def test_checked_table_fails_no_decomposition(body, mapping):
    """Whenever `_check` passes the flows, `decompose_shares` raises on no
    group, under every grouping policy: a report refuses no table that
    validate accepts."""
    try:
        flows = read_flows(io.StringIO(f"{HEADER}\n{body}")).flows
    except OverflowError:  # a row's export and import sum past the float range
        return
    try:
        cli._check(flows)
    except OverflowError:
        return
    for policy in GROUP_POLICIES:
        try:
            groups = apply_grouping(flows, mapping, policy)
        except UnmappedCodeError:
            continue
        for group in groups:
            decompose_shares(group, DifferentiationMethod("ghm"), TradeTypeMethod.vona())
