"""The benchmark's tracer still runs against the library: every name it wraps exists.

perfbench/tracer.py replaces functions of `iitkit.cli` and `iitkit.sensitivity`
by their names and reads the spans back; a rename in the library would break
a traced benchmark run, so each report command is run through it here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iitkit
from iitkit.datasets import example_panel_path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.mark.parametrize("command, fmt", [
    ("compute", "csv"),
    ("sweep", "csv"),
    ("transitions", "json"),
])
def test_traced_run_writes_a_summary(tmp_path, command, fmt):
    summary, spans, report = tmp_path / "summary.json", tmp_path / "spans.json", tmp_path / "out"
    src = str(Path(iitkit.__file__).parent.parent)
    proc = subprocess.run(
        [
            sys.executable, str(TRACER), "traced", str(summary), str(spans), "--",
            command, "--input", str(example_panel_path()), "--format", fmt,
            "--output", str(report),
        ],
        capture_output=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    metrics = json.loads(summary.read_text())["metrics"]
    assert metrics["trade_data.rows_read"] == 4
    assert metrics["cli.main.s"] > 0
    assert report.stat().st_size > 0
