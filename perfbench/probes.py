"""Robustness probes: tiny inputs run through `compute`, each judged against
the input/output contract (ROADMAP item 4).

A probe's input does not depend on the seed. Each judge returns None when
the program met the contract, or the reason it did not; the benchmark
counts a probe that did not as a failed operation. None of them is timed.
"""

from __future__ import annotations

import json
from pathlib import Path

from inputs import HEADER

ROW = "2020,FRA,DEU,000001,100,100,100,100,kg\n"


def _no_traceback(child) -> str | None:
    if b"Traceback" in child.stderr:
        last = child.stderr.strip().splitlines()[-1].decode("utf-8", "replace")
        return f"traceback ending {last!r}"
    return None


def _clean_data_error(child, *needles: str) -> str | None:
    if child.code != 2:
        return _no_traceback(child) or f"exit {child.code}, expected 2"
    message = child.stderr.decode("utf-8", "replace")
    missing = [n for n in needles if n not in message]
    return f"error {message.strip()!r} does not name {missing}" if missing else _no_traceback(child)


def _partial_coverage(child, output: Path) -> str | None:
    # One key, quantities on one of its two rows: the merged flow has no
    # volume for all of its value, so its ratio cannot be formed.
    if child.code != 0:
        return f"exit {child.code}: {child.stderr[-200:]!r}"
    industry = json.loads(output.read_bytes())["reports"][0]["industries"][0]
    if industry["unclassifiable"] != "missing-volume":
        return f"label {industry['label']} at ratio {industry['ratio']}, expected unclassifiable missing-volume"
    return None


def _non_finite(child, output: Path) -> str | None:
    return _clean_data_error(child, "row 2", "export_value")


def _invalid_utf8(child, output: Path) -> str | None:
    return _clean_data_error(child, "row 2")


def _unwritable_output(child, output: Path) -> str | None:
    lines = child.stderr.decode("utf-8", "replace").strip().splitlines()
    if child.code == 0:
        return "exit 0 without writing the output"
    if len(lines) != 1 or not lines[0].startswith("error:"):
        return _no_traceback(child) or f"stderr {lines!r} is not one error: line"
    if output.parent.exists():
        return f"created {output.parent.name}/"
    return None


# name -> (table bytes, output path relative to the probe directory, judge)
PROBES = {
    "probe.partial-coverage": (
        (HEADER + ROW + "2020,FRA,DEU,000001,100,0,,,\n").encode(), "out.json", _partial_coverage,
    ),
    "probe.non-finite": (
        (HEADER + "2020,FRA,DEU,000001,1e999,100,,,\n").encode(), "out.json", _non_finite,
    ),
    "probe.invalid-utf8": (
        HEADER.encode() + b"2020,FRA,DEU,00000\xff,100,100,,,\n", "out.json", _invalid_utf8,
    ),
    "probe.unwritable-output": (
        (HEADER + ROW).encode(), "missing/out.json", _unwritable_output,
    ),
}


def run_probes(run_cli, workdir: Path) -> dict[str, str | None]:
    """Run every probe through `run_cli(args) -> Child`; name -> failure reason or None."""
    results = {}
    for name, (table, output, judge) in PROBES.items():
        probe_dir = workdir / name
        probe_dir.mkdir(parents=True, exist_ok=True)
        (probe_dir / "table.csv").write_bytes(table)
        out = probe_dir / output
        out.unlink(missing_ok=True)
        child = run_cli(["compute", "--input", str(probe_dir / "table.csv"),
                         "--format", "json", "--output", str(out)])
        results[name] = judge(child, out)
    return results
