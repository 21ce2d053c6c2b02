"""Parse, validate, merge, and group raw bilateral trade records.

Input tables are UTF-8 comma-separated files with the mandatory header

    period,reporter,partner,industry_code,export_value,import_value,export_qty,import_qty,qty_unit

Lines end at LF, CRLF or a bare CR, and a byte-order mark at the very start
is ignored. A binary flow table is read in blocks of whole lines, about 16 KiB
each, and a block of plain lines is split into columns. The header block, a
block the split cannot read and a text source go through the csv reader, and
their rows are put into columns in batches. All columns pass one set of
checks; where it refuses, a walk in row order names the first fault, with the
same message and row number whatever the route. The caller's stream is never
closed or seeked.

Empty quantity/unit cells mean "not reported". Records sharing a
(period, reporter, partner, industry_code) key are merged by summation;
industries with zero trade on both sides are dropped at ingestion so that
every downstream ratio has a positive denominator.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from itertools import chain, compress, groupby
from operator import itemgetter, not_
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

EXPECTED_HEADER = (
    "period",
    "reporter",
    "partner",
    "industry_code",
    "export_value",
    "import_value",
    "export_qty",
    "import_qty",
    "qty_unit",
)

GROUP_POLICIES = ("own-code", "strict", "drop")


class FlowParseError(ValueError):
    """A malformed input row: its 1-based number, counting the header as row 1, and a reason.

    A row is a CSV record, so a quoted field that spans lines is one row.
    """

    def __init__(self, row_number: int, reason: str):
        super().__init__(f"row {row_number}: {reason}")
        self.row_number = row_number
        self.reason = reason


class UnitConflictError(ValueError):
    """Two records for the same key report volumes in different units."""

    def __init__(self, key: "FlowKey", units: tuple[str, str]):
        super().__init__(
            f"conflicting volume units {units[0]!r} vs {units[1]!r} for key {tuple(key)}"
        )
        self.key = key
        self.units = units


class UnmappedCodeError(ValueError):
    """Industry codes missing from the grouping map under the strict policy.

    `codes` holds every one, in the order the caller gives them (sorted, from
    apply_grouping); past ten, the message gives their count and the first
    ten, so that it stays one short line.
    """

    def __init__(self, codes: list[str]):
        named = (
            ", ".join(codes) if len(codes) <= 10
            else f"{len(codes)} codes, the first 10: {', '.join(codes[:10])}"
        )
        super().__init__(f"unmapped industry codes under strict policy: {named}")
        self.codes = codes


class FlowKey(NamedTuple):
    period: str
    reporter: str
    partner: str
    industry_code: str


class _FlowFields(NamedTuple):
    period: str
    reporter: str
    partner: str
    industry_code: str
    export_value: float
    import_value: float
    export_volume: float | None = None
    import_volume: float | None = None
    volume_unit: str | None = None


class IndustryFlow(_FlowFields):
    """Paired export/import observation for one industry x period x partner.

    One flat record of nine fields: the four key fields, then X, M, x, m
    and the volume unit. It compares and orders as the tuple of its fields;
    `_replace` and `_make` take the fields by name or in order. The
    constructor is IndustryFlow(key, X, M, x=None, m=None, unit=None), the
    key one FlowKey (any 4-sequence) and the rest by position or by field
    name; `key` builds a FlowKey on demand.
    """

    __slots__ = ()

    def __new__(cls, key: Sequence[str], *values, **named) -> IndustryFlow:
        period, reporter, partner, code = key  # a key of another length raises ValueError
        return super().__new__(cls, period, reporter, partner, code, *values, **named)

    def __getnewargs__(self) -> tuple:
        return (self[:4], *self[4:])

    @property
    def key(self) -> FlowKey:
        return tuple.__new__(FlowKey, self[:4])  # FlowKey's __new__ and _make are Python code

    @property
    def total_trade(self) -> float:
        return self.export_value + self.import_value


@dataclass(frozen=True, slots=True)
class IndustryGroup:
    """A nonempty set of industries observed in one (period, reporter, partner) snapshot.

    The public constructor checks both conditions and raises ValueError on
    empty members or mixed snapshots. `apply_grouping` builds its groups
    through their slots, without the check: members cut from one sorted
    run of flows meet both.
    """

    group_id: str
    members: tuple[IndustryFlow, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError(f"group {self.group_id!r} has no members")
        snapshots = {m[:3] for m in self.members}
        if len(snapshots) > 1:
            raise ValueError(
                f"group {self.group_id!r} mixes snapshots: {sorted(snapshots)}"
            )

    @property
    def snapshot(self) -> tuple[str, str, str]:
        """(period, reporter, partner) shared by every member."""
        return self.members[0][:3]

    @property
    def total_trade(self) -> float:
        """Members' trade summed left to right, as every total here is.

        Not `sum()`: from Python 3.12 it compensates float rounding, so the
        bytes of a report would depend on the Python version.
        """
        total = 0.0
        for member in self.members:  # by index: cheaper on a flow than an unpack or a name
            total += member[4] + member[5]
        return total


# The setter of each of IndustryGroup's slots, in field order. `object.__new__`
# and one call of each fill a group as `__init__` would, at under half the
# cost, but skip `__post_init__`: use them only where the caller ensures what
# it checks.
_GROUP_SETTERS = tuple(getattr(IndustryGroup, f.name).__set__ for f in fields(IndustryGroup))


@dataclass(frozen=True)
class CleanResult:
    """Merged flows plus the tallies of one ingestion pass.

    `rows_read` counts the table's non-blank data rows; `dropped_zero_trade`
    counts the keys whose merged trade was zero on both sides.
    """

    flows: tuple[IndustryFlow, ...]
    dropped_zero_trade: int
    rows_read: int


# One checked row, ready to merge: (key, X, M, x, m, unit). The key is the
# four key fields joined by NULs, one string to hash and compare: `_split` and
# `_without_nul` refuse a NUL, so no field holds one, even a quoted field that
# holds a comma.
_Row = tuple[str, float, float, float | None, float | None, str | None]


def _check_value(cell: str, column: str, row_number: int) -> None:
    try:
        value = float(cell)
    except ValueError:
        raise FlowParseError(row_number, f"{column} {cell!r} is not a number") from None
    if value != value:  # NaN
        raise FlowParseError(row_number, f"{column} is NaN")
    if value < 0:
        raise FlowParseError(row_number, f"{column} is negative ({cell})")
    if value == math.inf:
        raise FlowParseError(row_number, f"{column} is not finite ({cell})")


_BLOCK = 1 << 14  # bytes a read asks for; larger blocks read no faster and hold more at once
_BATCH = 1024  # rows of a span or a text source checked at once


def _blocks(binary: IO[bytes]) -> Iterator[bytes]:
    """The bytes of `binary` in blocks of whole lines, about `_BLOCK` bytes each.

    Lines end as a text stream opened with newline="" ends them: at LF, CRLF
    or a bare CR, and a CR at the end of a read waits for the next read, which
    may begin with its LF. Only the last block may end inside a line. Each
    read takes at least as many bytes as the partial line carried over, so a
    long line costs time linear in its length.
    """
    rest = b""
    while chunk := binary.read(max(len(rest), _BLOCK)):
        rest += chunk
        cut = max(rest.rfind(b"\n"), rest.rfind(b"\r", 0, -1)) + 1
        if cut:
            yield rest[:cut]
            rest = rest[cut:]
    if rest:
        yield rest


class _Span:
    """The lines of `block` and of the blocks after it, each decoded when it is reached.

    `lines` counts the lines of the blocks taken so far. Given a span,
    `_table` ends it at the end of the first of its blocks where no quoted
    field is open, so a quoted field that spans lines costs the csv reader
    only the blocks it touches, and sets `row_number` to its last row's.
    """

    def __init__(self, block: bytes, blocks: Iterator[bytes]):
        self.block, self.blocks = block, blocks
        self.lines = self.row_number = 0

    def __iter__(self) -> Iterator[str]:
        block = self.block
        while block:
            lines = block.splitlines(keepends=True)
            self.lines += len(lines)
            yield from map(bytes.decode, lines)
            block = next(self.blocks, b"")


def _without_nul(lines: Iterable[str]) -> Iterator[str]:
    """`lines`, raising csv.Error on the first that holds a NUL.

    The csv module refuses a NUL itself only before Python 3.11; this makes
    it an error, with the same message, on every version.
    """
    for line in lines:
        if "\0" in line:
            raise csv.Error("line contains NUL")
        yield line


def _is_binary(source: IO[bytes] | IO[str] | Iterable[str]) -> bool:
    return hasattr(source, "read") and isinstance(source.read(0), bytes)


def _table(
    source: IO[bytes] | IO[str] | Iterable[str], header: tuple[str, ...], row_number: int = 0
) -> Iterator[tuple[int, list[str]]]:
    """Check a CSV table's header, then yield (row number, fields) for each non-blank row.

    `source` is a binary stream, read by `_blocks` and decoded by `_Span`,
    or text. One U+FEFF (the byte-order mark of "CSV UTF-8" exports) at the
    very start is dropped; anywhere else it is data. Rows count from 1 at
    the header. A `row_number` above 0 says that `source` holds the rest of
    a table whose header and rows up to that number were read: it has no
    header, and its first row is numbered `row_number + 1`. A `source`
    that is a `_Span` ends after the first row, blank or not, whose last
    line is the last line of the span's blocks so far. Raises
    FlowParseError naming the row at fault: a missing or wrong header, a
    wrong number of fields, a record the csv module rejects (a field past
    its size limit), a line holding a NUL or bytes that are not UTF-8. The
    cells are left to the caller: `read_flows` checks them in `_batches`.
    """
    span = source if isinstance(source, _Span) else None
    if _is_binary(source):
        blocks = _blocks(source)
        source = _Span(next(blocks, b""), blocks)
    lines = _without_nul(source)
    try:
        if row_number:
            reader = csv.reader(lines)
        else:
            first = next(lines, None)
            if first is None:
                raise FlowParseError(1, "empty input, header row missing")
            reader = csv.reader(chain((first.removeprefix("\ufeff"),), lines))
            names = next(reader)
            if tuple(name.strip() for name in names) != header:
                raise FlowParseError(1, f"bad header {names!r}, expected {','.join(header)}")
            row_number = 1
        width = len(header)
        for row_number, row in enumerate(reader, start=row_number + 1):
            if row:  # tolerate a trailing blank line
                if len(row) != width:
                    raise FlowParseError(row_number, f"expected {width} fields, got {len(row)}")
                yield row_number, row
            if span is not None and reader.line_num == span.lines:
                span.row_number = row_number
                return
    except (csv.Error, UnicodeDecodeError) as exc:  # raised reading the record after row_number
        reason = str(exc) if isinstance(exc, csv.Error) else "not valid UTF-8"
        raise FlowParseError(row_number + 1, reason) from None


def _sums(source: IO[bytes] | IO[str] | Iterable[str]) -> tuple[dict[str, tuple], int, int]:
    """The merged sums of the keys with trade of `source`, its rows read and its keys dropped.

    The sums are one (X, M, x, m, unit) tuple per NUL-joined key with
    trade, in the order the keys are first seen, replaced by each later row
    of the key. Each sum runs in row order, so the result depends only on
    the sequence of rows. A side's volume is the sum of its quantities only
    when every row of the key reports one; otherwise it is None, since
    summing values over all rows but quantities over some would bias the
    unit value. One walk over the merged keys, the only place that decides
    whether a key has trade, drops and counts those whose X + M is 0. Raises
    what `read_flows` raises, in its order: a row fault or unit conflict,
    the first in row order, then OverflowError on the first key with trade
    whose trade or volume total leaves the float range. Equal units are one
    string, shared through a table private to the call.
    """
    if _is_binary(source):
        rows = _row_blocks(_blocks(source))
    else:
        rows = _batches(_table(source, EXPECTED_HEADER))
    acc: dict[str, tuple] = {}
    get, share = acc.get, {}.setdefault
    rows_read = 0
    for key, xv, mv, xq, mq, unit in chain.from_iterable(rows):
        rows_read += 1
        slot = get(key)
        if slot is None:
            acc[key] = (xv, mv, xq, mq, share(unit, unit))
            continue
        sx, sm, sxq, smq, sunit = slot
        if unit is not None and sunit is not None and unit != sunit:
            raise UnitConflictError(FlowKey(*key.split("\0")), (sunit, unit))
        acc[key] = (
            sx + xv, sm + mv,
            None if xq is None or sxq is None else sxq + xq,
            None if mq is None or smq is None else smq + mq,
            share(unit, unit) if sunit is None else sunit,
        )
    # Every row is finite and nonnegative, so a sum that overflowed is inf.
    inf, zero_trade = math.inf, []
    for key, (xv, mv, xq, mq, _) in acc.items():
        if not (xv or mv):
            zero_trade.append(key)
        elif xv + mv == inf or xq == inf or mq == inf:
            fields = tuple(key.split("\0"))
            raise OverflowError(f"trade or volume total of key {fields} exceeds the float range")
    for key in zero_trade:
        del acc[key]
    return acc, rows_read, len(zero_trade)


def _sum_records(sums: dict[str, tuple]) -> Iterator[tuple]:
    """The nine fields of the flow of each key of `_sums`' `sums`, in the flows' order.

    Each is a plain tuple, made when it is asked for: no flow is built.
    """
    for key, (xv, mv, xq, mq, unit) in sums.items():
        period, reporter, partner, code = key.split("\0")
        yield period, reporter, partner, code, xv, mv, xq, mq, unit


def _flows(sums: dict[str, tuple], rows_read: int, dropped: int) -> CleanResult:
    """The flows of `_sums`' keys, in their order, with its counts of rows and dropped keys.

    The flows are made last key first: each key is split at its NULs, and
    it and its slot are freed, as its flow is made, so the joined keys are
    never alive beside the flows; `sums` is left empty. Each flow is one
    `tuple.__new__`, which skips `IndustryFlow.__new__`, Python code, and
    holds the nine fields the constructor would give it. Equal key fields
    are one string, shared through a table private to the call. Not
    sys.intern: its strings are global, and never freed on some Python
    versions.
    """
    share, new = {}.setdefault, tuple.__new__
    flows: list[IndustryFlow] = []
    while sums:
        key, (xv, mv, xq, mq, unit) = sums.popitem()
        period, reporter, partner, code = key.split("\0")
        flows.append(new(IndustryFlow, (
            share(period, period), share(reporter, reporter),
            share(partner, partner), share(code, code), xv, mv, xq, mq, unit,
        )))
    sums.clear()  # frees its table before the tuple of flows is made
    flows.reverse()
    return CleanResult(tuple(flows), dropped, rows_read)


def _row_blocks(blocks: Iterator[bytes]) -> Iterator[Iterable[_Row]]:
    """The checked rows of a binary flow table, one iterable per split block or batch.

    Each block but the first is offered to `_split`, and its columns go to
    `_checked` with the row number carried. The first block, which holds the
    header, and each block that `_split` refuses go to `_table` as a `_Span`.
    """
    span = _Span(next(blocks, b""), blocks)
    yield from _batches(_table(span, EXPECTED_HEADER))
    limit, row_number = csv.field_size_limit(), span.row_number
    for block in blocks:
        split = _split(block, limit)
        if split is None:
            span = _Span(block, blocks)
            yield from _batches(_table(span, EXPECTED_HEADER, row_number))
            row_number = span.row_number
            continue
        lines, columns = split
        yield _checked(range(row_number + 1, row_number + lines + 1), columns)
        row_number += lines


def _split(block: bytes, limit: int) -> tuple[int, list[list[str]]] | None:
    """A block of whole lines as (its line count, its nine columns), split at each comma.

    The block is decoded and split once. None when the csv reader could read
    a line otherwise than a split at each comma does, or would refuse one: a
    quote, a NUL, bytes that are not UTF-8, a line that is not nine fields
    (a blank one included) or a field of at least the csv field size
    `limit`.
    """
    if b'"' in block or b"\0" in block:
        return None
    try:
        text = block.decode()
    except UnicodeDecodeError:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not text.endswith("\n"):
        text += "\n"
    # One split for the block: each line gives its fields, then a "\n" cell.
    fields = text.replace("\n", ",\n,").split(",")
    fields.pop()  # the empty cell after the last line
    lines, width = text.count("\n"), len(EXPECTED_HEADER) + 1
    if len(fields) != lines * width or fields[width - 1::width].count("\n") != lines:
        return None
    if len(text) >= limit and max(map(len, fields)) >= limit:
        return None
    return lines, [fields[i::width] for i in range(width - 1)]


def _batches(table: Iterator[tuple[int, list[str]]]) -> Iterator[Iterable[_Row]]:
    """The rows `_table` yields, checked `_BATCH` at a time.

    When `table` raises, the rows it yielded before are given first, so that
    a fault or a unit conflict among them is the one reported.
    """

    def checked(batch: list[tuple[int, list[str]]]) -> Iterable[_Row]:
        numbers, rows = zip(*batch)
        return _checked(numbers, list(zip(*rows)))

    batch = []
    try:
        for numbered in table:
            batch.append(numbered)
            if len(batch) == _BATCH:
                yield checked(batch)
                batch = []
    except FlowParseError:
        if batch:
            yield checked(batch)
        raise
    if batch:
        yield checked(batch)


def _checked(numbers: Sequence[int], columns: Sequence[Sequence[str]]) -> Iterable[_Row]:
    """The rows of nine columns, numbered `numbers`, for the merge.

    Where `_column_rows` refuses them, `_first_fault` gives the rows before
    the first fault, then raises it.
    """
    rows = _column_rows(*columns)
    return _first_fault(numbers, columns) if rows is None else rows


def _column_rows(*columns: Sequence[str]) -> Iterator[_Row] | None:
    """The rows of nine columns of cells, as one zip over the columns, or None.

    Each row rule is decided here, a column at a time, in C. None when a key
    field is empty, a value or quantity is not a number in 0 <= v < inf, or
    a quantity has no unit. An empty quantity or unit cell is not reported:
    None.
    """
    period, reporter, partner, code, xv, mv, xq, mq, unit = columns
    if "" in period or "" in reporter or "" in partner or "" in code:
        return None
    try:
        values = [list(map(float, xv)), list(map(float, mv))]
        for cells in xq, mq:
            values.append(
                list(map(float, cells)) if "" not in cells
                else [float(cell) if cell else None for cell in cells]
            )
    except ValueError:
        return None
    for cells, column in zip((xv, mv, xq, mq), values):
        if "" in cells:
            column = list(compress(column, cells))
        total = sum(column)  # NaN if a value is; inf if one is, or if the values overflow
        if total != total or not 0 <= min(column, default=0) or (
            total == math.inf and max(column) == math.inf
        ):
            return None
    if "" in unit:
        unitless = list(map(not_, unit))
        if any(compress(xq, unitless)) or any(compress(mq, unitless)):
            return None
        unit = map({"": None}.get, unit, unit)
    return zip(map("\0".join, zip(period, reporter, partner, code)), *values, unit)


def _first_fault(numbers: Sequence[int], columns: Sequence[Sequence[str]]) -> Iterator[_Row]:
    """The rows before the first fault in columns `_column_rows` refused, then the fault.

    The FlowParseError names the row and its first faulty column. Raises
    RuntimeError, before any row, where the walk finds no fault.
    """
    for at, row in enumerate(zip(*columns)):
        period, reporter, partner, code, xv, mv, xq, mq, unit = row
        row_number = numbers[at]
        try:
            _check_value(xv, "export_value", row_number)
            _check_value(mv, "import_value", row_number)
            for cell, column in (xq, "export_qty"), (mq, "import_qty"):
                if cell:
                    _check_value(cell, column, row_number)
            if not (period and reporter and partner and code):
                raise FlowParseError(row_number, "empty key field")
            if (xq or mq) and not unit:
                raise FlowParseError(row_number, "quantity present without qty_unit")
        except FlowParseError as exc:
            fault = exc
            break
    else:
        raise RuntimeError("the column checks refused rows in which the walk finds no fault")
    yield from _checked(numbers, [column[:at] for column in columns])
    raise fault


def read_flows(source: IO[bytes] | IO[str] | Iterable[str]) -> CleanResult:
    """Parse, validate and merge a trade table in one pass.

    This is the one ingestion entry point; `_sums`, its first half, gives
    the merged sums without the flows. `source` is a binary stream,
    decoded as UTF-8, or text; it is left open. Records sharing a key are
    merged by summation: values always sum; a side's volume sums only when
    every record of the key reports it. Raises FlowParseError on the first
    malformed row (bytes that are not UTF-8 included), UnitConflictError on
    a key whose records disagree on the volume unit and OverflowError on a
    key whose totals exceed the float range.

    Every row passes one set of checks, `_column_rows`, and the first fault
    in row order, between a bad row and a unit conflict too, is the one
    reported, with the same message and row number whatever the route.

    The merge keys each row by its key fields joined by NULs, one string to
    hash and compare. Equal key fields of the flows are one shared object,
    and so are equal units, so a flow costs one record of nine fields and
    its numbers: 265-285 B at the peak on a table of a few periods,
    reporters and partners, 320-350 B where every key has its own code; no
    string copies.
    """
    return _flows(*_sums(source))


def apply_grouping(
    flows: Iterable[IndustryFlow],
    mapping: dict[str, str] | None = None,
    policy: str = "own-code",
) -> list[IndustryGroup]:
    """Partition flows into IndustryGroups within each (period, reporter, partner).

    Codes absent from `mapping` fall back per `policy`: "own-code" makes each
    unmapped industry its own group, "drop" removes it, "strict" raises
    UnmappedCodeError listing every offending code. Groups come in order of
    (period, reporter, partner, group_id); a group's members keep their
    order in `flows`.
    """
    return list(_groups(_group_order(flows, mapping, policy), mapping))


def _group_order(
    flows: Iterable[IndustryFlow], mapping: dict[str, str] | None, policy: str
) -> list[IndustryFlow]:
    """The flows `apply_grouping` keeps, in its order; raises what it raises.

    A stable sort of `_panel_order` on period leaves the flows ordered by
    (period, reporter, partner, group_id), ties in their order in `flows`.
    """
    ordered = _panel_order(flows, mapping, policy)
    ordered.sort(key=itemgetter(0))
    return ordered


def _panel_order(
    flows: Iterable[IndustryFlow], mapping: dict[str, str] | None, policy: str
) -> list[IndustryFlow]:
    """The flows `apply_grouping` keeps, in panels; raises what it raises.

    Stable sorts on group_id, then partner and reporter leave the flows
    ordered by (reporter, partner, group_id), ties in their order in
    `flows`, so each panel is one run. Each sort is keyed on a string the
    flow or the map already holds: one sort on a tuple key would build a
    tuple per flow, all alive at once.
    """
    if policy not in GROUP_POLICIES:
        raise ValueError(f"unknown grouping policy {policy!r}, expected one of {GROUP_POLICIES}")
    mapping = mapping or {}
    if policy == "drop":
        flows = (flow for flow in flows if flow[3] in mapping)
    get = mapping.get
    ordered = sorted(flows, key=lambda flow: get(flow[3], flow[3]))
    if policy == "strict":
        missing = sorted(set(map(itemgetter(3), ordered)) - mapping.keys())
        if missing:
            raise UnmappedCodeError(missing)
    for field in (2, 1):  # partner, then reporter
        ordered.sort(key=itemgetter(field))
    return ordered


def _panels(
    ordered: Iterable[IndustryFlow], mapping: dict[str, str] | None
) -> Iterator[Iterator[IndustryFlow]]:
    """The flows of each panel of `_panel_order`, one run each."""
    get = (mapping or {}).get  # a run's key: reporter, partner and group id
    runs = groupby(ordered, lambda f: (f[1], f[2], get(f[3], f[3])))
    return (run for _, run in runs)


def _groups(
    ordered: Iterable[IndustryFlow], mapping: dict[str, str] | None, key: Callable | None = None
) -> Iterator[IndustryGroup]:
    """The groups of flows in `_group_order`, each built only when it is asked for.

    So are the groups of one panel of `_panel_order` once its flows are
    stably sorted on period; there `key`, the period getter, cuts the runs,
    since a panel's reporter, partner and group id are one. Without `key`,
    a run's key is its snapshot and group id. Each is built through its
    slots: a run of either order under one group key is nonempty and of
    one snapshot, so the constructor's check could not fail.
    """
    get = (mapping or {}).get  # a flow's group id: the code if unmapped
    new, (set_group_id, set_members) = object.__new__, _GROUP_SETTERS
    runs = groupby(ordered, key or (lambda f: (f[0], f[1], f[2], get(f[3], f[3]))))
    for _, members in runs:
        group, members = new(IndustryGroup), tuple(members)
        set_group_id(group, get(members[0][3], members[0][3]))
        set_members(group, members)
        yield group


def read_grouping_map(source: IO[bytes] | IO[str] | Iterable[str]) -> dict[str, str]:
    """Read a two-column industry_code,group_id CSV (with header) into a dict.

    `source` is read as read_flows reads it. Raises FlowParseError on a
    malformed row, bytes that are not UTF-8 included, and on a row that puts
    an industry code in another group than an earlier row did; a repeat of
    the same pair is accepted. Equal group ids are one string, shared
    through a table private to the call, as `_flows` shares key fields.
    """
    mapping: dict[str, str] = {}
    share = {}.setdefault
    for row_number, row in _table(source, ("industry_code", "group_id")):
        code, group_id = row
        if not (code and group_id):
            raise FlowParseError(row_number, f"bad grouping row {row!r}")
        earlier = mapping.setdefault(code, share(group_id, group_id))
        if earlier != group_id:
            raise FlowParseError(
                row_number,
                f"industry_code {code!r} is in group {earlier!r} by an earlier row, "
                f"not {group_id!r}",
            )
    return mapping
