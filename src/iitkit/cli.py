"""Command-line entry point for reproducible trade-decomposition runs.

Subcommands mirror the library: `compute` writes the share decomposition per
(period, reporter, partner, group), `sweep` re-runs it over an alpha grid and
tabulates label flips, `transitions` tracks period-over-period label changes,
and `validate` is a parse-only dry run for data onboarding.

Exit codes: 0 success, 1 configuration error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from iitkit.differentiation import (
    FAMILIES,
    DifferentiationMethod,
    decompose_shares,
    reports_to_csv,
)
from iitkit.indices import TradeTypeMethod, check_fraction
from iitkit.sensitivity import (
    DEFAULT_ALPHA_GRID,
    _validate_alphas,
    alpha_sweep,
    nature_transitions,
    sweep_flips_to_csv,
    transitions_to_csv,
)
from iitkit.trade_data import (
    GROUP_POLICIES,
    CleanResult,
    FlowParseError,
    IndustryGroup,
    UnitConflictError,
    UnmappedCodeError,
    apply_grouping,
    read_flows,
    read_grouping_map,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2


class ConfigError(Exception):
    """Invalid flags or option values; maps to exit code 1."""


class DataError(Exception):
    """Unreadable or malformed input data; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(f"{message}\n{self.format_usage()}".rstrip())


def _fraction(name: str):
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be a number, got {text!r}")
        try:
            return check_fraction(name, value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _alpha_list(text: str) -> tuple[float, ...]:
    try:
        values = [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"--alphas must be a comma list of numbers, got {text!r}")
    try:
        return _validate_alphas(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_io_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="flow table CSV")
    sub.add_argument("--group-map", default=None, help="industry_code,group_id CSV")
    sub.add_argument(
        "--group-policy",
        choices=GROUP_POLICIES,
        default="own-code",
        help="fallback for industry codes absent from --group-map",
    )
    sub.add_argument("--output", default=None, help="report file (default: stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _add_method_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=FAMILIES, default="ghm")
    sub.add_argument("--type-method", choices=("vona", "aer"), default="aer")
    sub.add_argument(
        "--aer-threshold", type=_fraction("--aer-threshold"), default=0.10,
        help="minority/majority cutoff for the aer type method",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="iitkit", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    compute = subs.add_parser("compute", help="share decomposition per group")
    _add_io_options(compute)
    _add_method_options(compute)
    compute.add_argument("--alpha", type=_fraction("--alpha"), default=0.15)

    sweep = subs.add_parser("sweep", help="decomposition over an alpha grid with flip table")
    _add_io_options(sweep)
    _add_method_options(sweep)
    sweep.add_argument(
        "--alphas", type=_alpha_list,
        default=list(DEFAULT_ALPHA_GRID),
        help="comma list of alphas, strictly increasing",
    )

    transitions = subs.add_parser("transitions", help="period-over-period label flips")
    _add_io_options(transitions)
    _add_method_options(transitions)
    transitions.add_argument("--alpha", type=_fraction("--alpha"), default=0.15)

    validate = subs.add_parser("validate", help="parse-only dry run")
    validate.add_argument("--input", required=True, help="flow table CSV")

    return parser


def _read_input(args: argparse.Namespace) -> CleanResult:
    path = Path(args.input)
    if not path.is_file():
        raise DataError(f"input file not found: {path}")
    try:
        with open(path, "rb") as fh:
            return read_flows(fh)
    except (FlowParseError, UnitConflictError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def _load_groups(args: argparse.Namespace) -> list[IndustryGroup]:
    cleaned = _read_input(args)
    mapping = None
    if args.group_map is not None:
        map_path = Path(args.group_map)
        if not map_path.is_file():
            raise DataError(f"grouping file not found: {map_path}")
        try:
            with open(map_path, encoding="utf-8", newline="") as fh:
                mapping = read_grouping_map(fh)
        except FlowParseError as exc:
            raise DataError(f"{map_path}: {exc}") from exc
    try:
        return apply_grouping(cleaned.flows, mapping, args.group_policy)
    except UnmappedCodeError as exc:
        raise DataError(str(exc)) from exc


def _type_method(args: argparse.Namespace) -> TradeTypeMethod:
    if args.type_method == "vona":
        return TradeTypeMethod.vona()
    return TradeTypeMethod.abd_el_rahman(args.aer_threshold)


def _config_dict(args: argparse.Namespace) -> dict:
    config = {
        "command": args.command,
        "input": args.input,
        "group_map": args.group_map,
        "group_policy": args.group_policy,
        "family": args.family,
        "type_method": args.type_method,
        "aer_threshold": args.aer_threshold,
        "format": args.format,
    }
    if hasattr(args, "alpha"):
        config["alpha"] = args.alpha
    if hasattr(args, "alphas"):
        config["alphas"] = args.alphas
    return config


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            Path(output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {output}: {exc.strerror or exc}") from exc


def _json_document(config: dict, key: str, payload) -> str:
    return json.dumps({"config": config, key: payload}, indent=2) + "\n"


def _run_compute(args: argparse.Namespace) -> int:
    groups = _load_groups(args)
    method = DifferentiationMethod(args.family, args.alpha)
    type_method = _type_method(args)
    reports = [decompose_shares(g, method, type_method) for g in groups]
    if args.format == "json":
        text = _json_document(_config_dict(args), "reports", [r.to_dict() for r in reports])
    else:
        text = reports_to_csv(reports)
    _write_output(text, args.output)
    return EXIT_OK


def _run_sweep(args: argparse.Namespace) -> int:
    groups = _load_groups(args)
    type_method = _type_method(args)
    sweeps = [
        (g.group_id, alpha_sweep(g, args.alphas, args.family, type_method))
        for g in groups
    ]
    if args.format == "json":
        payload = [
            {
                "group_id": group_id,
                **dict(zip(("period", "reporter", "partner"), group.snapshot)),
                **sweep.to_dict(),
            }
            for (group_id, sweep), group in zip(sweeps, groups)
        ]
        text = _json_document(_config_dict(args), "sweeps", payload)
    else:
        text = sweep_flips_to_csv(sweeps)
    _write_output(text, args.output)
    return EXIT_OK


def _run_transitions(args: argparse.Namespace) -> int:
    groups = _load_groups(args)
    periods = {g.snapshot[0] for g in groups}
    if len(periods) < 2:
        raise ConfigError(
            f"transitions needs at least 2 periods in the input, found {len(periods)}"
        )
    type_method = _type_method(args)

    panels: dict[tuple[str, str, str], list[IndustryGroup]] = {}
    for group in groups:
        _, reporter, partner = group.snapshot
        panels.setdefault((reporter, partner, group.group_id), []).append(group)

    results = []
    single_period_panels = 0
    for (reporter, partner, group_id), series in sorted(panels.items()):
        if len({g.snapshot[0] for g in series}) < 2:
            single_period_panels += 1
            continue
        report = nature_transitions(series, args.alpha, args.family, type_method)
        results.append((reporter, partner, group_id, report))

    if args.format == "json":
        payload = [
            {
                "reporter": reporter,
                "partner": partner,
                "group_id": group_id,
                **report.to_dict(),
            }
            for reporter, partner, group_id, report in results
        ]
        config = _config_dict(args)
        config["single_period_panels_skipped"] = single_period_panels
        text = _json_document(config, "panels", payload)
    else:
        text = transitions_to_csv([(gid, rep) for _, _, gid, rep in results])
    _write_output(text, args.output)
    return EXIT_OK


def _run_validate(args: argparse.Namespace) -> int:
    cleaned = _read_input(args)
    print(
        f"ok: {cleaned.rows_read} rows, {len(cleaned.flows)} industry flows, "
        f"{cleaned.dropped_zero_trade} zero-trade industries dropped"
    )
    return EXIT_OK


_RUNNERS = {
    "compute": _run_compute,
    "sweep": _run_sweep,
    "transitions": _run_transitions,
    "validate": _run_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _RUNNERS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
