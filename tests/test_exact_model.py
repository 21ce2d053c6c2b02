"""Drawn tables through the benchmark's exact model.

Each table is written as perfbench/inputs.py writes its workloads: values in
cents, quantities in tenths of a kg, repeated keys, rows without quantities,
one-way rows, several periods and an optional group map, with the exact
merged flows alongside. The CLI runs in this process, and each output with
a checker in perfbench/checks.py goes through it; each other form is checked
against its checked twin.
"""

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from iitkit.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import checks  # noqa: E402
import inputs  # noqa: E402

PERIODS = ("2019", "2020", "2021")
CODES = tuple(f"{c:06d}" for c in range(1, 7))
ALPHA, ALPHAS, AER_THRESHOLD = "0.15", ["0.05", "0.1", "0.15", "0.2", "0.25", "0.3"], "0.1"
# Log ratios on the band edges of the grid, before the values are rounded to cents.
EDGES = [math.log(e) for a in (0.05, 0.15, 0.3) for e in (1 + a, 1 - a, 1 / (1 + a))]


def _merged(a: inputs.Flow, b: inputs.Flow) -> inputs.Flow:
    """A key's flow after one more row: a side's quantity only while every row reports one."""
    return inputs.Flow(
        a.x + b.x, a.m + b.m,
        None if a.xq is None or b.xq is None else a.xq + b.xq,
        None if a.mq is None or b.mq is None else a.mq + b.mq,
    )


@st.composite
def tables(draw):
    """(table lines, group map or None, exact merged flows by key)."""
    rng = draw(st.randoms(use_true_random=False))
    keys = st.tuples(
        st.sampled_from(PERIODS), st.just("FRA"), st.sampled_from(["DEU", "USA"]),
        st.sampled_from(CODES),
    )
    kinds = st.sampled_from(["priced", "priced", "no-qty", "one-way", "zero"])
    rows = draw(st.lists(
        st.tuples(keys, kinds, st.one_of(st.sampled_from(EDGES), st.floats(-0.5, 0.5))),
        min_size=1, max_size=20,
    ))
    lines, flows = [], {}
    for key, kind, log_ratio in rows:
        if kind == "zero":  # a key with no other rows is a zero-trade industry, dropped
            line = ",".join((*key, "0.00", "0.00", "", "", "")) + "\n"
            flow = inputs.Flow(0, 0, None, None)
        else:
            line, flow = inputs._priced_row(
                rng, key, log_ratio, one_way=kind == "one-way", no_qty=kind == "no-qty"
            )
        lines.append(line)
        flows[key] = flow if key not in flows else _merged(flows[key], flow)
    mapping = draw(st.one_of(st.none(), st.dictionaries(
        st.sampled_from(CODES), st.sampled_from(["G1", "G2"]), min_size=1,
    )))
    return lines, mapping, flows


def _run(argv: list[str], output: Path) -> tuple[int, bytes]:
    code = main([*argv, "--output", str(output)])
    return code, output.read_bytes() if code == 0 else b""


def _csv_rows(output: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(output.decode("utf-8"))))[1:]


def _cells(values) -> list[str]:
    """The CSV cells of JSON values, as the csv module writes them."""
    return ["" if v is None else str(v) for v in values]


@settings(max_examples=100, deadline=None)
@given(table=tables(), method=st.sampled_from([
    ("ghm", "aer"), ("ff", "vona"), ("ghm", "vona"), ("ff", "aer"),
]))
def test_reports_match_the_exact_model(table, method):
    lines, mapping, flows = table
    family, type_method = method
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        path, group_map = work / "table.csv", None
        inputs._write_lines(path, lines)
        if mapping is not None:
            group_map = work / "groups.csv"
            inputs._write_group_map(group_map, mapping)
        model = inputs.Inputs(
            path, group_map, len(lines), flows, inputs._drop_zero_trade(flows), mapping or {}
        )

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["validate", "--input", str(path)]) == 0
        assert checks.check_validate(model, out.getvalue().encode()) == []

        common = [
            "--input", str(path), *(["--group-map", str(group_map)] if group_map else []),
            "--family", family, "--type-method", type_method,
        ]
        outputs = {}
        for command, alpha in (
            ("compute", ["--alpha", ALPHA]), ("sweep", ["--alphas", ",".join(ALPHAS)]),
            ("transitions", ["--alpha", ALPHA]),
        ):
            for fmt in ("csv", "json"):
                outputs[command, fmt] = _run(
                    [command, *common, *alpha, "--format", fmt], work / f"{command}.{fmt}"
                )

    args = (family, ALPHA, type_method, AER_THRESHOLD)
    code, compute_csv = outputs["compute", "csv"]
    assert code == 0
    assert checks.check_compute_csv(model, compute_csv, *args) == []
    code, sweep_csv = outputs["sweep", "csv"]
    assert code == 0
    assert checks.check_sweep_csv(model, sweep_csv, family, ALPHAS, type_method, AER_THRESHOLD) == []

    # compute JSON: each report's share fields are its CSV row.
    code, compute_json = outputs["compute", "json"]
    assert code == 0
    reports = json.loads(compute_json)["reports"]
    assert [_cells(list(r.values())[:-1]) for r in reports] == _csv_rows(compute_csv)
    # sweep JSON: its flip points are the CSV's rows.
    code, sweep_json = outputs["sweep", "json"]
    assert code == 0
    assert [
        _cells([s["group_id"], *flip.values()])
        for s in json.loads(sweep_json)["sweeps"] for flip in s["flip_points"]
    ] == _csv_rows(sweep_csv)

    # transitions: a configuration error on one period, else JSON checked, CSV its twin.
    periods = {key[0] for key in model.flows}
    code, transitions_json = outputs["transitions", "json"]
    if len(periods) < 2:
        assert (code, outputs["transitions", "csv"][0]) == (1, 1)
        return
    assert code == 0
    assert checks.check_transitions_json(model, transitions_json, *args) == []
    code, transitions_csv = outputs["transitions", "csv"]
    assert code == 0
    assert [
        _cells([panel["group_id"], *t.values()])
        for panel in json.loads(transitions_json)["panels"] for t in panel["transitions"]
    ] == _csv_rows(transitions_csv)
