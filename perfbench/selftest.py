"""Self-test of the output checks: real outputs pass, planted errors do not.

Runs each workload's report command, and `validate`, through the CLI on a
small input, checks that the real outputs pass, then plants one error at a
time in a copy of an output and checks that the intended kind of check
rejects it. Takes a few seconds; exits 0 only if every plant is rejected.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
from functools import partial
from pathlib import Path

import checks
import inputs
from run import WORKLOADS, Spawner, cli_argv

SMALL = {
    "ingest-1m": partial(inputs.ingest_table, rows=2_000, keys=100),
    "sweep-dense": partial(inputs.sweep_table, codes=400, groups=8),
    "panel-transitions": partial(inputs.panel_table, codes=60, groups=6),
}


def _edit_csv(output: bytes, edit) -> bytes:
    rows = list(csv.reader(io.StringIO(output.decode())))
    edit(rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


def _edit_json(output: bytes, edit) -> bytes:
    doc = json.loads(output)
    edit(doc)
    return json.dumps(doc, indent=2).encode()


def _first_with_iit(rows):
    return next(row for row in rows[1:] if float(row[9]) > 0)


def wrong_share(rows):
    row = _first_with_iit(rows)  # iit and hiit both up, so the sums still hold
    row[9], row[10] = repr(float(row[9]) + 1e-6), repr(float(row[10]) + 1e-6)


def broken_identity(rows):
    row = _first_with_iit(rows)
    row[12] = repr(float(row[12]) + 1e-6)  # hqviit alone


def dropped_flip(rows):
    del rows[1]


def reversed_flip(rows):
    rows[1][6], rows[1][7] = rows[1][7], rows[1][6]


def _first_transition(doc):
    return next(t for p in doc["panels"] for t in p["transitions"])


def wrong_label(doc):
    t = _first_transition(doc)  # flipped follows the new label, so only the labels are wrong
    t["label_to"] = checks.VH if t["label_to"] != checks.VH else checks.VL
    t["flipped"] = t["label_from"] != t["label_to"]


def inconsistent_flipped(doc):
    t = _first_transition(doc)
    t["flipped"] = not t["flipped"]


def non_finite(doc):
    _first_transition(doc)["ratio_from"] = float("inf")


PLANTS = {
    "ingest-1m": [
        ("a wrong share", partial(_edit_csv, edit=wrong_share), "reference"),
        ("hqviit + lqviit != viit", partial(_edit_csv, edit=broken_identity), "property"),
    ],
    "sweep-dense": [
        ("a dropped flip", partial(_edit_csv, edit=dropped_flip), "reference"),
        ("a flip away from horizontal", partial(_edit_csv, edit=reversed_flip), "property"),
    ],
    "panel-transitions": [
        ("a wrong label", partial(_edit_json, edit=wrong_label), "reference"),
        ("flipped disagreeing with its labels", partial(_edit_json, edit=inconsistent_flipped), "property"),
        ("Infinity in the JSON", partial(_edit_json, edit=non_finite), "format"),
    ],
}


def main(workdir: Path) -> int:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    with Spawner(workdir) as spawner:
        failures = _run(workdir, spawner.run)
    print(f"self-test: {'all checks behave' if not failures else f'{failures} failures'}")
    return 0 if not failures else 1


def _run(workdir: Path, run_child) -> int:
    failures = 0

    def verdict(ok: bool, text: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {text}")

    for name, make in SMALL.items():
        workload = WORKLOADS[name]
        data_dir = workdir / name
        data_dir.mkdir(parents=True)
        data = make(data_dir, 1)
        output = data_dir / "report.out"
        child = run_child(cli_argv(workload.report_args(data, output)))
        problems = workload.check(data, output.read_bytes()) if child.code == 0 else [child.stderr]
        verdict(not problems, f"{name}: the real {workload.command} output passes {problems[:1]}")

        for plant, apply, kind in PLANTS[name]:
            problems = workload.check(data, apply(output.read_bytes()))
            caught = [p for p in problems if p.startswith(kind)]
            verdict(bool(caught), f"{name}: {plant} is rejected by the {kind} check {caught[:1]}")

        if name == "ingest-1m":
            child = run_child(cli_argv(["validate", "--input", str(data.table)]))
            verdict(not checks.check_validate(data, child.stdout),
                    f"{name}: the real validate output passes")
            planted = child.stdout.replace(f"ok: {data.rows} ".encode(), f"ok: {data.rows - 1} ".encode())
            verdict(bool(checks.check_validate(data, planted)),
                    f"{name}: a wrong row count in validate is rejected")
    return failures
