import json

import pytest

from iitkit.cli import main
from iitkit.datasets import example_flows_path, example_panel_path

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
        code = run(
            "compute", "--input", flows_csv, "--group-map", gmap,
            "--group-policy", "strict",
        )
        assert code == 2
        assert "000002" in capsys.readouterr().err

    def test_unwritable_output_exits_1(self, flows_csv, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        assert run("compute", "--input", flows_csv, "--output", out) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n"
        )
        assert not out.parent.exists()

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
