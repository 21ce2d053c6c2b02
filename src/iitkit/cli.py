"""Command-line entry point for reproducible trade-decomposition runs.

Subcommands mirror the library: `compute` writes the share decomposition per
(period, reporter, partner, group), `sweep` re-runs it over an alpha grid and
tabulates label flips, `transitions` tracks period-over-period label changes,
and `validate` is a dry run for data onboarding. Every command decides
whether the table's numbers can be reported with one check, `_check`:
`validate` on the merged sums, building no flow, and the reports on their
flows. So `validate` exits 0 exactly when each report command accepts the
table, apart from what only a report reads: its group map, and for
`transitions` the number of periods.

Exit codes: 0 success, 1 configuration error, 2 data error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import os
import shutil
import sys
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Sequence, TypeVar

from iitkit.differentiation import (
    FAMILIES,
    DifferentiationMethod,
    Rows,
    SharesReport,
    _CsvTable,
    _shares_values,
    _unit_values,
    _write_csv,
    decompose_shares,
)
from iitkit.indices import TradeTypeMethod, check_fraction
from iitkit.sensitivity import (
    DEFAULT_ALPHA_GRID,
    _flips_table,
    _transitions_table,
    _validate_alphas,
    alpha_sweep,
    nature_transitions,
    sweep_flips,
)
from iitkit.trade_data import (
    GROUP_POLICIES,
    FlowParseError,
    IndustryFlow,
    UnitConflictError,
    UnmappedCodeError,
    _group_order,
    _groups,
    _panel_order,
    _panels,
    _sum_records,
    _sums,
    read_flows,
    read_grouping_map,
)

# The CSV reports as one str each, and the groups as one list. The CLI writes
# its reports a row at a time and streams its groups, so it calls none of
# these, but perfbench/tracer.py wraps them by their names on this module, as
# it wraps decompose_shares and nature_transitions above.
from iitkit.differentiation import reports_to_csv  # noqa: F401
from iitkit.trade_data import apply_grouping  # noqa: F401
from iitkit.sensitivity import sweep_flips_to_csv, transitions_to_csv  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2

_T = TypeVar("_T")


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

    validate = subs.add_parser("validate", help="check the table as the reports read it")
    validate.add_argument("--input", required=True, help="flow table CSV")

    return parser


def _read(name: str, what: str, parse: Callable[[BinaryIO], _T]) -> _T:
    """`parse` applied to the file `name` opened "rb", each failure a DataError naming it.

    `name` may be any path that is not a directory: a file, a device or a pipe.
    """
    path = Path(name)
    if not path.exists() or path.is_dir():
        raise DataError(f"{what} not found: {path}")
    try:
        with open(path, "rb") as fh:
            return parse(fh)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    except (FlowParseError, UnitConflictError, OverflowError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def _load_groups(
    args: argparse.Namespace, group: Callable[..., _T]
) -> tuple[tuple[IndustryFlow, ...], dict[str, str] | None, _T]:
    """The run's flows and group map, and `group(flows, mapping, policy)` on them.

    An unreadable table or map, or an unmapped code, is a DataError.
    """
    flows = _read(args.input, "input file", read_flows).flows
    mapping = None
    if args.group_map is not None:
        mapping = _read(args.group_map, "grouping file", read_grouping_map)
    try:
        return flows, mapping, group(flows, mapping, args.group_policy)
    except UnmappedCodeError as exc:
        raise DataError(str(exc)) from exc


def _check(table: _T, records: Callable[[_T], Iterable[Sequence]] = iter) -> None:
    """Raise OverflowError unless every report can form its numbers from `table`.

    `records(table)` gives the nine fields of each flow in flow order: the
    flows themselves, for the reports, or `_sum_records` of the merged sums,
    for validate, so both decide by this one rule. In that order, raises on
    the first unit-value ratio out of range; then, only when the table's
    total trade overflows, takes the records again and raises on the first
    (period, reporter, partner) snapshot whose total does. Float sums of
    nonnegative values only grow along a sequence, so a finite fold bounds
    the fold of any subsequence: under any group map and policy, a group's
    members are a subsequence of its snapshot's flows, folded in that order
    by IndustryGroup.total_trade. Not so the compensated sum() of 3.12.
    """
    total = 0.0
    for record in records(table):
        _unit_values(record)
        total += record[4] + record[5]
    if total < math.inf:
        return
    totals: dict[tuple[str, ...], float] = {}
    for record in records(table):
        snapshot = record[:3]
        totals[snapshot] = totals.get(snapshot, 0.0) + (record[4] + record[5])
        if totals[snapshot] == math.inf:
            raise OverflowError(f"total trade of {snapshot} exceeds the float range")


def _type_method(args: argparse.Namespace) -> TradeTypeMethod:
    if args.type_method == "vona":
        return TradeTypeMethod.vona()
    return TradeTypeMethod.abd_el_rahman(args.aer_threshold)


# The options a JSON report echoes in its config, in order; a subcommand
# has either alpha or alphas.
_CONFIG_KEYS = (
    "command", "input", "group_map", "group_policy", "family", "type_method",
    "aer_threshold", "format", "alpha", "alphas",
)


def _finite(value: float) -> str:
    if value - value == 0.0:  # NaN for NaN and the infinities
        return float.__repr__(value)
    raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")


# The JSON text of each scalar type, as json.dump writes it.
_SCALAR: dict[type, Callable[[object], str]] = {
    str: encode_basestring_ascii,
    float: _finite,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): lambda _: "null",
}


# The JSON text of each value of a column of one type: as _SCALAR, but a float
# column that `_column` found finite needs no check per value.
_UNIFORM = {**_SCALAR, float: float.__repr__}


def _column(values: tuple) -> list[str]:
    """The JSON text of each of `values`, one column of a Rows.

    A column of one type is encoded by one map, a float column only when
    its sum is finite: sum() is NaN or infinite when a term is, and may be
    infinite when none is. Any other column is encoded a value at a time,
    by each value's type; a float that is not finite raises ValueError.
    """
    kinds = set(map(type, values))
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind is not float or math.isfinite(sum(values)):
            return list(map(_UNIFORM[kind], values))
    return [_SCALAR[type(v)](v) for v in values]


@functools.cache
def _template(fields: tuple[str, ...], depth: int) -> str:
    """%-template of a flat JSON object at nesting `depth`: one %s per field."""
    pad = "\n" + "  " * (depth + 1)
    names = [encode_basestring_ascii(name).replace("%", "%%") for name in fields]
    members = ",".join(f"{pad}{name}: %s" for name in names)
    return f"{{{members}{pad[:-2]}}}"


def _write_json(write: Callable[[str], object], value, depth: int) -> None:
    """Write `value` as json.dump(value, indent=2) writes it at nesting `depth`.

    A str, float, int, bool or None is a scalar; a dict or a report record
    (anything with items()) is an object; a Rows is a list of flat objects,
    encoded a column at a time by `_column` and each filled into one
    template; any other iterable, a generator included, is a list, each
    member written before the next is drawn. Raises ValueError on a float
    that is not finite, the first in the order json.dump meets them.
    """
    scalar = _SCALAR.get(type(value))
    if scalar is not None:
        write(scalar(value))
        return
    pad = "\n" + "  " * (depth + 1)
    if hasattr(value, "items"):
        sep = "{"
        for key, member in value.items():
            scalar = _SCALAR.get(type(member))
            if scalar is None:
                write(f"{sep}{pad}{encode_basestring_ascii(key)}: ")
                _write_json(write, member, depth + 1)
            else:
                write(f"{sep}{pad}{encode_basestring_ascii(key)}: {scalar(member)}")
            sep = ","
        write("{}" if sep == "{" else pad[:-2] + "}")
    elif isinstance(value, Rows):
        rows, template = list(value.values), pad + _template(value.fields, depth + 1)
        try:
            lines = [template % cells for cells in zip(*map(_column, zip(*rows)))]
        except ValueError:  # a float that is not finite: write the rows before it, then raise
            lines = (template % tuple([_SCALAR[type(v)](v) for v in row]) for row in rows)
        sep = "["
        for line in lines:
            write(sep + line)
            sep = ","
        write("[]" if sep == "[" else pad[:-2] + "]")
    else:
        sep = "["
        for member in value:
            write(sep + pad)
            _write_json(write, member, depth + 1)
            sep = ","
        write("[]" if sep == "[" else pad[:-2] + "]")


def _write_report(
    args: argparse.Namespace, key: str, records: Iterable,
    csv_table: Callable[[Iterable], _CsvTable], **extra,
) -> int:
    """Write the records as the CSV table `csv_table(records)` or as JSON under `key`.

    `records` is any iterable, iterated once; each record is written before
    the next is drawn, so a generator of records has one alive at a time.
    An error while writing leaves part of a report on stdout, which is why
    the runners check their table first. Either format is written a piece
    at a time: CSV a row at a time, with the bytes the library's `*_to_csv`
    gives; JSON starting with the run's config, extended by `extra`, with
    the bytes json.dump(indent=2) gives. With --output naming a file, the
    report goes to a temporary file beside it, which replaces it only once
    the report is complete.
    """

    def write(fh) -> None:
        if args.format == "csv":
            _write_csv(fh, *csv_table(records))
            return
        options = vars(args)
        config = {**{k: options[k] for k in _CONFIG_KEYS if k in options}, **extra}
        try:
            _write_json(fh.write, {"config": config, key: records}, 0)
        except ValueError as exc:
            raise DataError(f"report holds a number JSON cannot encode: {exc}") from exc
        fh.write("\n")

    if args.output is None:
        write(sys.stdout)
        return EXIT_OK
    output = Path(args.output)
    try:
        if output.exists() and not output.is_file():
            # A device or pipe, such as /dev/null, cannot be replaced: write it in place.
            with open(output, "w", encoding="utf-8") as fh:
                write(fh)
            return EXIT_OK
        path = Path(os.path.realpath(output))  # through a symlink, replace its target
        tmp = Path(f"{path}.{os.urandom(4).hex()}.tmp")
        try:
            with open(tmp, "x", encoding="utf-8") as fh:  # mode bits as open(path, "w") gives
                write(fh)
            if path.exists():
                shutil.copymode(path, tmp)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    return EXIT_OK


# Each runner first checks the table with `_check`, after any error of its
# group map or, for transitions, its periods, so a data error is raised, with
# the message validate gives, before the report's first byte; a table that
# passes fails no group. Validate checks the merged sums and builds no flow;
# each report reads the flows with `read_flows` and checks those. No runner
# lists its groups: compute and sweep build one group at a time from
# `_group_order`, transitions one panel's groups at a time from
# `_panel_order`. The records are then built one at a time as the report is
# written: the library's own, except in the CSV reports of compute, whose
# rows are `_shares_values` tuples, and of sweep, whose rows come from
# `sweep_flips`; neither builds an industry line.


def _run_compute(args: argparse.Namespace) -> int:
    flows, mapping, ordered = _load_groups(args, _group_order)
    _check(flows)
    groups = _groups(ordered, mapping)
    method = DifferentiationMethod(args.family, args.alpha)
    type_method = _type_method(args)
    if args.format == "csv":
        reports = (_shares_values(g, (method,), type_method)[0] for g in groups)
    else:
        reports = (decompose_shares(g, method, type_method) for g in groups)
    return _write_report(args, "reports", reports, lambda rows: (SharesReport.FIELDS, rows))


def _run_sweep(args: argparse.Namespace) -> int:
    flows, mapping, ordered = _load_groups(args, _group_order)
    _check(flows)
    groups = _groups(ordered, mapping)
    type_method = _type_method(args)
    if args.format == "csv":  # a CSV report holds only the flips
        sweeps = (
            (g.group_id, sweep_flips(g, args.alphas, args.family, type_method)) for g in groups
        )
    else:
        sweeps = (alpha_sweep(g, args.alphas, args.family, type_method) for g in groups)
    return _write_report(args, "sweeps", sweeps, _flips_table)


def _run_transitions(args: argparse.Namespace) -> int:
    flows, mapping, ordered = _load_groups(args, _panel_order)
    period = itemgetter(0)
    # A first pass over the panels counts what is written before the first
    # one: the periods, and the panels of one period, which are skipped.
    periods: set[str] = set()
    panels = series = 0
    for run in _panels(ordered, mapping):
        kept = set(map(period, run))
        periods |= kept
        panels += 1
        series += len(kept) > 1
    if len(periods) < 2:
        raise ConfigError(
            f"transitions needs at least 2 periods in the input, found {len(periods)}"
        )
    _check(flows)

    # One group per period in each panel, cut from its flows sorted and grouped on period;
    # nature_transitions puts the periods in their natural order. map and
    # filter hold no panel once they pass it on, so a run holds the groups of
    # one panel at a time.
    type_method = _type_method(args)
    groups = (
        list(_groups(sorted(run, key=period), mapping, period)) for run in _panels(ordered, mapping)
    )
    reports = map(
        lambda panel: nature_transitions(panel, args.alpha, args.family, type_method),
        filter(lambda panel: len(panel) > 1, groups),
    )
    return _write_report(
        args, "panels", reports, _transitions_table,
        single_period_panels_skipped=panels - series,
    )


def _run_validate(args: argparse.Namespace) -> int:
    sums, rows_read, dropped = _read(args.input, "input file", _sums)
    _check(sums, _sum_records)
    print(
        f"ok: {rows_read} rows, {len(sums)} industry flows, "
        f"{dropped} zero-trade industries dropped"
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
        code = _RUNNERS[args.command](args)
        sys.stdout.flush()
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError as exc:  # the reader of stdout closed it, as `| head` does
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point() -> None:
    # One run builds millions of objects that form no reference cycles, so the
    # cyclic collector would only cost time. Library callers keep theirs.
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # main said so already. The bytes left in the buffer go to the null
        # device, so the interpreter's last flush raises nothing more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entry_point()
