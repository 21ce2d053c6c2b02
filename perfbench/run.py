"""The iitkit benchmark: seeded workloads run through the `iitkit` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the CLI runs from `src/` with no
install step. Each run writes its workload's input from the seed, then runs
whole rounds of operations for about S seconds, one child process at a
time (a closed loop with one client). Every output is checked against a
reference computed apart from the program (see checks.py). The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics, end to end with --trace 0 and per layer with --trace 1. See
README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs
import probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

CHILD_TIMEOUT_S = 150  # a run must end within 180 s; no sane child comes near this
SETUP_SAMPLES = 5  # fresh interpreters per round for setup_s
SETUP_CODE = "import iitkit.cli as cli; cli.build_parser()"
SWEEP_ALPHAS = [str(k * 25 / 1000) for k in range(1, 21)]  # 0.025 ... 0.5
AER_THRESHOLD = "0.1"  # the CLI's default, which no workload overrides

END_TO_END = {
    "setup_s": "s",
    "validate_s": "s",
    "report_s": "s",
    "validate_rss_mb": "MB",
    "report_rss_mb": "MB",
}
PER_LAYER = {
    "trade_data.read_flows.s": "s",
    "trade_data.read_flows.rows_per_s": "rows/s",
    "trade_data.read_flows.rss_mb": "MB",
    "trade_data.rows_read": "count",
    "trade_data.flows": "count",
    "trade_data.groups": "count",
    "trade_data.apply_grouping.s": "s",
    "trade_data.read_grouping_map.s": "s",
    "indices.classify_trade_type.s": "s",
    "differentiation.unit_value_ratio.s": "s",
    "differentiation.classify.s": "s",
    "differentiation.decompose_shares.s": "s",
    "differentiation.decompose_shares.calls": "count",
    "differentiation.decompose_shares.industries_per_s": "1/s",
    "differentiation.reports_to_csv.s": "s",
    "sensitivity.alpha_sweep.self_s": "s",
    "sensitivity.alpha_sweep.calls": "count",
    "sensitivity.alpha_sweep.decompose_calls": "count",
    "sensitivity.nature_transitions.self_s": "s",
    "sensitivity.nature_transitions.decompose_per_period": "ratio",
    "sensitivity.sweep_flips_to_csv.s": "s",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.output_mb": "MB",
    "trace.overhead_s": "s",
}


@dataclass
class Child:
    seconds: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


class Spawner:
    """Runs each child through spawner.py, started while this process is small.

    Its answer gives the child's wall time, from spawn to exit, and its peak
    RSS; see spawner.py for why the children are not started from here.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, cwd=workdir, env=dict(os.environ, PYTHONPATH=str(SRC)),
            text=True,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()  # the helper ends once its last child has
        self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)

    def run(self, argv: list[str]) -> Child:
        out, err = self.workdir / "child.stdout", self.workdir / "child.stderr"
        request = {"argv": argv, "stdout": str(out), "stderr": str(err), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited with {self.proc.wait()}")
        reply = json.loads(reply)
        return Child(reply["seconds"], reply["rss_kb"] / 1024,
                     os.waitstatus_to_exitcode(reply["status"]), out.read_bytes(), err.read_bytes())


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "iitkit.cli", *args]


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[Path, int], inputs.Inputs]
    command: str
    family: str
    type_method: str
    alpha: str
    probes: bool

    def report_args(self, data: inputs.Inputs, output: Path) -> list[str]:
        args = [self.command, "--input", str(data.table)]
        if data.group_map is not None:
            args += ["--group-map", str(data.group_map)]
        args += ["--family", self.family, "--type-method", self.type_method]
        if self.command == "sweep":
            args += ["--alphas", self.alpha, "--format", "csv"]
        else:
            args += ["--alpha", self.alpha, "--format", "json" if self.command == "transitions" else "csv"]
        return [*args, "--output", str(output)]

    def check(self, data: inputs.Inputs, output: bytes) -> list[str]:
        check, alpha = {
            "compute": (checks.check_compute_csv, self.alpha),
            "sweep": (checks.check_sweep_csv, self.alpha.split(",")),
            "transitions": (checks.check_transitions_json, self.alpha),
        }[self.command]
        return check(data, output, self.family, alpha, self.type_method, AER_THRESHOLD)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ingest-1m", inputs.ingest_table, "compute", "ghm", "aer", "0.15", probes=True),
        Workload("sweep-dense", inputs.sweep_table, "sweep", "ghm", "aer", ",".join(SWEEP_ALPHAS), probes=False),
        Workload("panel-transitions", inputs.panel_table, "transitions", "ff", "vona", "0.15", probes=False),
    )
}


class Run:
    """One benchmark run: operations attempted and failed, samples, problems."""

    def __init__(self, workload: Workload, data: inputs.Inputs, workdir: Path, trace: bool,
                 spawner: Spawner):
        self.workload, self.data, self.workdir, self.trace = workload, data, workdir, trace
        self.spawn = spawner.run
        self.attempted = 0
        self.failed: dict[str, int] = {}
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.report_digest: str | None = None

    def fail(self, operation: str, reason: str) -> None:
        if operation not in self.failed:
            print(f"{operation} failed: {reason}", file=sys.stderr)
        self.failed[operation] = self.failed.get(operation, 0) + 1

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def child(self, operation: str, argv: list[str]) -> Child | None:
        """Run one operation; a nonzero exit counts it as failed and returns None."""
        self.attempted += 1
        child = self.spawn(argv)
        if child.code != 0:
            self.fail(operation, f"exit {child.code}: {child.stderr[-300:]!r}")
            return None
        return child

    def check_report(self, output: Path) -> None:
        """Check the first report in full; later ones must repeat it byte for byte."""
        body = output.read_bytes()
        digest = hashlib.sha256(body).hexdigest()
        if self.report_digest is None:
            self.report_digest = digest
            self.problems += self.workload.check(self.data, body)
        elif digest != self.report_digest:
            self.problems.append(f"determinism: {output.name} differs from the first report")

    def round(self) -> None:
        self.attempted += 1
        for _ in range(SETUP_SAMPLES):
            child = self.spawn([sys.executable, "-c", SETUP_CODE])
            if child.code != 0 or child.stdout or child.stderr:
                self.fail("setup", f"exit {child.code}: {child.stderr[-300:]!r}")
                break
            self.sample("setup_s", child.seconds)
        if self.trace:
            self.traced_reports()
        else:
            self.timed_commands()
        if self.workload.probes:
            for name, reason in probes.run_probes(self.probe_cli, self.workdir / "probes").items():
                if reason is not None:
                    self.fail(name, reason)

    def probe_cli(self, args: list[str]) -> Child:
        self.attempted += 1
        return self.spawn(cli_argv(args))

    def timed_commands(self) -> None:
        child = self.child("validate", cli_argv(["validate", "--input", str(self.data.table)]))
        if child is not None:
            self.sample("validate_s", child.seconds)
            self.sample("validate_rss_mb", child.rss_mb)
            self.problems += checks.check_validate(self.data, child.stdout)
        output = self.workdir / "report.out"
        child = self.child("report", cli_argv(self.workload.report_args(self.data, output)))
        if child is not None:
            self.sample("report_s", child.seconds)
            self.sample("report_rss_mb", child.rss_mb)
            self.check_report(output)

    def traced_reports(self) -> None:
        tracer = str(HERE / "tracer.py")
        traced_round = len(self.samples.get("trace.overhead_s", [])) + 1
        summary, spans = self.workdir / "summary.json", self.workdir / f"spans-{traced_round}.json"
        traced_out, plain_out = self.workdir / "traced.out", self.workdir / "plain.out"
        argv = [sys.executable, tracer, "traced", str(summary), str(spans), "--",
                *self.workload.report_args(self.data, traced_out)]
        if self.child("report traced", argv) is None:
            return
        traced = json.loads(summary.read_text())
        self.check_report(traced_out)
        argv = [sys.executable, tracer, "plain", str(summary), "--",
                *self.workload.report_args(self.data, plain_out)]
        if self.child("report plain", argv) is None:
            return
        plain = json.loads(summary.read_text())
        self.check_report(plain_out)
        for name, value in traced["metrics"].items():
            self.sample(name, value)
        self.sample("trace.overhead_s", traced["metrics"]["cli.main.s"] - plain["main_s"])
        self.sample("trace.self_sum_s", sum(traced["self_s"].values()))
        with open(self.workdir / "self_s.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"round": traced_round, "cli.main.s": traced["metrics"]["cli.main.s"],
                                 "self_s": traced["self_s"]}) + "\n")

    def metrics(self) -> dict[str, dict]:
        units = PER_LAYER if self.trace else END_TO_END
        out = {}
        for name, unit in units.items():
            values = self.samples.get(name)
            if not values:
                self.problems.append(f"no sample of {name}")
                continue
            out[name] = {"value": statistics.median(values), "unit": unit}
        return out


def measure(workload: Workload, seed: int, seconds: int, trace: bool) -> int:
    workdir = WORK / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    with Spawner(workdir) as spawner:
        return measure_with(spawner, workload, workdir, seed, seconds, trace)


def measure_with(spawner: Spawner, workload: Workload, workdir: Path, seed: int, seconds: int,
                 trace: bool) -> int:
    data = workload.make(workdir, seed)
    # Compile the package's bytecode before anything is timed.
    warm = spawner.run([sys.executable, "-c", SETUP_CODE])
    if warm.code != 0:
        print(f"cannot import iitkit.cli: {warm.stderr[-500:]!r}", file=sys.stderr)
        return 2

    run = Run(workload, data, workdir, trace, spawner)
    start = time.perf_counter()
    longest = rounds = 0
    while True:
        begun = time.perf_counter()
        run.round()
        rounds += 1
        longest = max(longest, time.perf_counter() - begun)
        # Stop where another round would end nearer past the mark than this one ends short of it.
        if time.perf_counter() - start + longest / 2 > seconds:
            break

    metrics = run.metrics()
    for problem in run.problems:
        print(problem, file=sys.stderr)
    failed = sum(run.failed.values())
    print(f"{workload.name} seed {seed}: {rounds} rounds in {time.perf_counter() - start:.1f} s, "
          f"{run.attempted} operations attempted, {failed} failed "
          f"({', '.join(sorted(run.failed)) or 'none'})")
    for name, metric in metrics.items():
        values = run.samples[name]
        print(f"  {name} = {metric['value']:.6g} {metric['unit']} "
              f"(median of {len(values)}, {min(values):.6g} to {max(values):.6g})")
    if trace:
        main_s = statistics.median(run.samples["cli.main.s"])
        print(f"  self times sum to {statistics.median(run.samples['trace.self_sum_s']):.4f} s "
              f"of cli.main.s {main_s:.4f} s; spans in {workdir.relative_to(ROOT)}")
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show on small inputs that every check rejects planted errors")
    args = parser.parse_args(argv)
    if not (SRC / "iitkit" / "cli.py").is_file():
        print(f"no iitkit source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main(WORK / "self-test")
    if args.workload is None:
        parser.error("--workload is required")
    return measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
