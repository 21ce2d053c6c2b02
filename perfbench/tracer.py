"""Run `iitkit.cli.main` in this process, traced or plain, and summarise it.

    python3 perfbench/tracer.py traced SUMMARY_JSON SPANS_JSON -- CLI_ARGS...
    python3 perfbench/tracer.py plain SUMMARY_JSON -- CLI_ARGS...

`run.py` starts this as a child with `src` on PYTHONPATH. In traced mode
the public functions, as the names imported into `iitkit.cli` and
`iitkit.sensitivity`, are replaced by wrappers that record a span per call
(name, start, end, parent); no source file changes. Spans stay in memory
and are written out after `main` returns. The per-flow functions are too
hot to wrap per call, so after `main` each is timed as one loop over every
flow the run read. In plain mode only `main` is timed, so the difference
between the two is the cost of tracing.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import iitkit.cli as cli
import iitkit.sensitivity as sensitivity
from iitkit.differentiation import DifferentiationMethod, UnitValueRatio, unit_value_ratio
from iitkit.indices import TradeTypeMethod, classify_trade_type

TRACED_NAMES = {
    cli: (
        "read_flows", "read_grouping_map", "apply_grouping", "decompose_shares",
        "reports_to_csv", "alpha_sweep", "nature_transitions", "sweep_flips_to_csv",
        "transitions_to_csv",
    ),
    sensitivity: ("decompose_shares",),
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Recorder:
    """Spans of one run: [name, start_ns, end_ns, parent_index, work]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.flows = None  # the CleanResult read_flows returned
        self.read_flows_rss_mb = 0.0

    def wrap(self, fn, name: str, work=None):
        """`work(args, result)` gives a count of work done, kept on the span."""
        spans, stack, clock = self.spans, self._open, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, result)
            return result

        return traced

    def install(self) -> None:
        work = {
            "read_flows": self._keep_flows,
            "apply_grouping": lambda args, groups: len(groups),
            "decompose_shares": lambda args, report: len(args[0].members),
            "nature_transitions": lambda args, report: len(args[0]),
        }
        for module, names in TRACED_NAMES.items():
            for name in names:
                fn = getattr(module, name)
                layer = fn.__module__.removeprefix("iitkit.")
                wrapped = self._with_rss(fn) if name == "read_flows" else fn
                setattr(module, name, self.wrap(wrapped, f"{layer}.{name}", work.get(name)))

    def _with_rss(self, fn):
        def call(*args, **kwargs):
            before = _maxrss_mb()
            result = fn(*args, **kwargs)
            self.read_flows_rss_mb += _maxrss_mb() - before
            return result

        return call

    def _keep_flows(self, args, result):
        self.flows = result
        return result.rows_read

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, work, children by name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, work) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0, "children": {}})
            t["calls"] += 1
            t["s"] += (end - start) / 1e9
            t["self_s"] += (end - start - child_ns[i]) / 1e9
            t["work"] += work or 0
            if parent is not None:
                siblings = out[self.spans[parent][0]]["children"]
                siblings[name] = siblings.get(name, 0) + 1
        return out


def _loop_seconds(args, flows) -> dict[str, float]:
    """Time each per-flow function as one loop over every flow of the run."""
    type_method = (
        TradeTypeMethod.vona() if args.type_method == "vona"
        else TradeTypeMethod.abd_el_rahman(args.aer_threshold)
    )
    alphas = args.alphas if args.command == "sweep" else [args.alpha]
    methods = [DifferentiationMethod(args.family, a) for a in alphas]
    clock = time.perf_counter

    start = clock()
    for flow in flows:
        classify_trade_type(flow, type_method)
    trade_type_s = clock() - start

    start = clock()
    ratios = [unit_value_ratio(flow) for flow in flows]
    ratio_s = clock() - start
    ratios = [r.ratio for r in ratios if isinstance(r, UnitValueRatio)]

    start = clock()
    for method in methods:
        for ratio in ratios:
            method.classify(ratio)
    classify_s = clock() - start
    return {
        "indices.classify_trade_type.s": trade_type_s,
        "differentiation.unit_value_ratio.s": ratio_s,
        "differentiation.classify.s": classify_s,
    }


def traced_metrics(recorder: Recorder, argv: list[str]) -> tuple[dict[str, float], dict[str, float]]:
    """The per-layer metrics of one traced run, and the self seconds of every span name."""
    totals = recorder.totals()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0, "children": {}}

    def get(name: str) -> dict:
        return totals.get(name, empty)

    read, decompose = get("trade_data.read_flows"), get("differentiation.decompose_shares")
    sweep, transitions, main = get("sensitivity.alpha_sweep"), get("sensitivity.nature_transitions"), get("cli.main")
    args = cli.build_parser().parse_args(argv)
    flows = recorder.flows.flows
    metrics = {
        "trade_data.read_flows.s": read["s"],
        "trade_data.read_flows.rows_per_s": read["work"] / read["s"],
        "trade_data.read_flows.rss_mb": recorder.read_flows_rss_mb,
        "trade_data.rows_read": read["work"],
        "trade_data.flows": len(flows),
        "trade_data.groups": get("trade_data.apply_grouping")["work"],
        "trade_data.apply_grouping.s": get("trade_data.apply_grouping")["s"],
        "trade_data.read_grouping_map.s": get("trade_data.read_grouping_map")["s"],
        **_loop_seconds(args, flows),
        "differentiation.decompose_shares.s": decompose["s"],
        "differentiation.decompose_shares.calls": decompose["calls"],
        "differentiation.decompose_shares.industries_per_s": (
            decompose["work"] / decompose["s"] if decompose["s"] else 0.0
        ),
        "differentiation.reports_to_csv.s": get("differentiation.reports_to_csv")["s"],
        "sensitivity.alpha_sweep.self_s": sweep["self_s"],
        "sensitivity.alpha_sweep.calls": sweep["calls"],
        "sensitivity.alpha_sweep.decompose_calls": sweep["children"].get("differentiation.decompose_shares", 0),
        "sensitivity.nature_transitions.self_s": transitions["self_s"],
        "sensitivity.nature_transitions.decompose_per_period": (
            transitions["children"].get("differentiation.decompose_shares", 0) / transitions["work"]
            if transitions["work"] else 0.0
        ),
        "sensitivity.sweep_flips_to_csv.s": get("sensitivity.sweep_flips_to_csv")["s"],
        "cli.main.s": main["s"],
        "cli.main.self_s": main["self_s"],
        "cli.output_mb": os.path.getsize(args.output) / 2**20,
    }
    return metrics, {name: t["self_s"] for name, t in totals.items()}


def main(argv: list[str]) -> int:
    mode, summary_path = argv[0], argv[1]
    spans_path = argv[2] if mode == "traced" else None
    cli_argv = argv[argv.index("--") + 1:]
    if mode == "plain":
        start = time.perf_counter()
        code = cli.main(cli_argv)
        summary = {"main_s": time.perf_counter() - start}
    else:
        recorder = Recorder()
        recorder.install()
        code = recorder.wrap(cli.main, "cli.main")(cli_argv)
        if code == 0:
            metrics, self_s = traced_metrics(recorder, cli_argv)
            summary = {"metrics": metrics, "self_s": self_s}
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump([s[:4] for s in recorder.spans], fh)
    if code != 0:
        return code
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
