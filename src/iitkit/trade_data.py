"""Parse, validate, merge, and group raw bilateral trade records.

Input tables are UTF-8 comma-separated files with the mandatory header

    period,reporter,partner,industry_code,export_value,import_value,export_qty,import_qty,qty_unit

Lines end at LF, CRLF or a bare CR, and a byte-order mark at the very start
is ignored. A binary stream is decoded one line at a time, as the csv reader
asks for it, so the first fault in row order is the one reported, whether it
is a bad value or a byte that is not UTF-8. The caller's stream is never
closed or seeked.

Empty quantity/unit cells mean "not reported". Records sharing a
(period, reporter, partner, industry_code) key are merged by summation;
industries with zero trade on both sides are dropped at ingestion so that
every downstream ratio has a positive denominator.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable, Iterator, NamedTuple

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
    """Industry codes missing from the grouping map under the strict policy."""

    def __init__(self, codes: list[str]):
        super().__init__(f"unmapped industry codes under strict policy: {', '.join(codes)}")
        self.codes = codes


class FlowKey(NamedTuple):
    period: str
    reporter: str
    partner: str
    industry_code: str


@dataclass(frozen=True, slots=True)
class IndustryFlow:
    """Paired export/import observation for one industry x period x partner."""

    key: FlowKey
    export_value: float
    import_value: float
    export_volume: float | None = None
    import_volume: float | None = None
    volume_unit: str | None = None

    @property
    def total_trade(self) -> float:
        return self.export_value + self.import_value


@dataclass(frozen=True, slots=True)
class IndustryGroup:
    """A nonempty set of industries observed in one (period, reporter, partner) snapshot."""

    group_id: str
    members: tuple[IndustryFlow, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError(f"group {self.group_id!r} has no members")
        snapshots = {m.key[:3] for m in self.members}
        if len(snapshots) > 1:
            raise ValueError(
                f"group {self.group_id!r} mixes snapshots: {sorted(snapshots)}"
            )

    @property
    def snapshot(self) -> tuple[str, str, str]:
        """(period, reporter, partner) shared by every member."""
        return self.members[0].key[:3]

    @property
    def total_trade(self) -> float:
        """Members' trade summed left to right, as every total here is.

        Not `sum()`: from Python 3.12 it compensates float rounding, so the
        bytes of a report would depend on the Python version.
        """
        total = 0.0
        for member in self.members:
            total += member.total_trade
        return total


@dataclass(frozen=True)
class CleanResult:
    """Merged flows plus the tallies of one ingestion pass.

    `rows_read` counts the table's non-blank data rows; `dropped_zero_trade`
    counts the keys whose merged trade was zero on both sides.
    """

    flows: tuple[IndustryFlow, ...]
    dropped_zero_trade: int
    rows_read: int


# One validated row, ready to merge: (key, X, M, x, m, unit).
_Row = tuple[tuple[str, str, str, str], float, float, float | None, float | None, str | None]


def _parse_value(cell: str, column: str, row_number: int) -> float:
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
    return value


def _parse_optional_value(cell: str, column: str, row_number: int) -> float | None:
    if cell == "":
        return None
    return _parse_value(cell, column, row_number)


def _lines(binary: IO[bytes]) -> Iterator[str]:
    """The lines of `binary`, each decoded as UTF-8 only when it is asked for.

    Lines end as a text stream opened with newline="" ends them, and keep
    their ending. Each read takes at least as many bytes as the partial line
    carried over, so a long line costs time linear in its length.
    """
    rest = b""
    while block := binary.read(max(len(rest), 1 << 16)):
        lines = (rest + block).splitlines(keepends=True)
        rest = lines.pop()
        yield from map(bytes.decode, lines)
    if rest:
        yield rest.decode()


def _table(
    source: IO[bytes] | IO[str] | Iterable[str], header: tuple[str, ...]
) -> Iterator[tuple[int, list[str]]]:
    """Check a CSV table's header, then yield (row number, fields) for each non-blank row.

    `source` is a binary stream, decoded by `_lines`, or text. One U+FEFF
    (the byte-order mark of "CSV UTF-8" exports) at the very start is
    dropped; anywhere else it is data. Rows count from 1 at the header.
    Raises FlowParseError naming the row at fault: a missing or wrong
    header, a wrong number of fields, a record the csv module rejects (a
    field past its size limit) or bytes that are not UTF-8.
    """
    if hasattr(source, "read") and isinstance(source.read(0), bytes):
        source = _lines(source)
    lines = iter(source)
    row_number = 0
    try:
        first = next(lines, None)
        if first is None:
            raise FlowParseError(1, "empty input, header row missing")
        reader = csv.reader(chain((first.removeprefix("\ufeff"),), lines))
        names = next(reader)
        if tuple(name.strip() for name in names) != header:
            raise FlowParseError(1, f"bad header {names!r}, expected {','.join(header)}")
        row_number, width = 1, len(header)
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue  # tolerate a trailing blank line
            if len(row) != width:
                raise FlowParseError(row_number, f"expected {width} fields, got {len(row)}")
            yield row_number, row
    except (csv.Error, UnicodeDecodeError) as exc:  # raised reading the record after row_number
        reason = str(exc) if isinstance(exc, csv.Error) else "not valid UTF-8"
        raise FlowParseError(row_number + 1, reason) from None


def _validated_rows(source: IO[bytes] | IO[str] | Iterable[str]) -> Iterator[_Row]:
    """Validate each data row of a flow table and yield it as a plain tuple.

    Raises FlowParseError with the offending 1-based row number on any
    malformed row.
    """
    inf = math.inf
    for row_number, row in _table(source, EXPECTED_HEADER):
        period, reporter, partner, code, xv, mv, xq, mq, unit = row
        try:
            # Fast path: `not 0 <= v < inf` catches negatives, NaN and
            # infinities. The slow path re-parses field by field so the error
            # names the offending column.
            export_value = float(xv)
            import_value = float(mv)
            export_volume = float(xq) if xq else None
            import_volume = float(mq) if mq else None
            ok = (
                0 <= export_value < inf
                and 0 <= import_value < inf
                and (export_volume is None or 0 <= export_volume < inf)
                and (import_volume is None or 0 <= import_volume < inf)
            )
        except ValueError:
            ok = False
        if not ok:
            _parse_value(xv, "export_value", row_number)
            _parse_value(mv, "import_value", row_number)
            _parse_optional_value(xq, "export_qty", row_number)
            _parse_optional_value(mq, "import_qty", row_number)
            raise FlowParseError(row_number, f"unparseable row {row!r}")
        if not (period and reporter and partner and code):
            raise FlowParseError(row_number, "empty key field")
        if not unit:
            if export_volume is not None or import_volume is not None:
                raise FlowParseError(row_number, "quantity present without qty_unit")
            unit = None
        yield (
            (period, reporter, partner, code),
            export_value,
            import_value,
            export_volume,
            import_volume,
            unit,
        )


def _merge(rows: Iterable[_Row]) -> CleanResult:
    """Merge rows sharing a key by summation and drop zero-trade industries.

    Keys keep their first-seen order and each sum runs in row order, so the
    result depends only on the sequence of rows. A side's volume is the sum
    of its quantities only when every row of the key reports one; otherwise
    it is None, since summing values over all rows but quantities over some
    would bias the unit value. Raises OverflowError on a key whose trade or
    volume total leaves the float range.

    The csv reader makes a new string per cell; equal key fields and units
    are shared through a table private to the call. Not sys.intern: its
    strings are global, and never freed on some Python versions.
    """
    # FlowKey -> [X, M, x, m, unit]; a plain-tuple key finds its FlowKey, as they compare equal.
    acc: dict[FlowKey, list] = {}
    get = acc.get
    share, new_key = {}.setdefault, tuple.__new__
    rows_read = 0
    for key, xv, mv, xq, mq, unit in rows:
        rows_read += 1
        slot = get(key)
        if slot is None:
            # tuple.__new__ builds the FlowKey without its __new__, which is Python code.
            period, reporter, partner, code = key
            key = new_key(FlowKey, (
                share(period, period), share(reporter, reporter),
                share(partner, partner), share(code, code),
            ))
            acc[key] = [xv, mv, xq, mq, share(unit, unit)]
            continue
        slot[0] += xv
        slot[1] += mv
        if unit is not None and slot[4] is not None and unit != slot[4]:
            raise UnitConflictError(FlowKey(*key), (slot[4], unit))
        if slot[4] is None:
            slot[4] = share(unit, unit)
        if xq is None or slot[2] is None:
            slot[2] = None
        else:
            slot[2] += xq
        if mq is None or slot[3] is None:
            slot[3] = None
        else:
            slot[3] += mq

    flows: list[IndustryFlow] = []
    dropped = 0
    for key, slot in acc.items():
        xv, mv, xq, mq, unit = slot
        slot.clear()  # the flow below holds the values; the list need not
        if xv == 0 and mv == 0:
            dropped += 1
            continue
        # Every row is finite and nonnegative, so a sum that overflowed is inf.
        if xv + mv == math.inf or xq == math.inf or mq == math.inf:
            raise OverflowError(
                f"trade or volume total of key {tuple(key)} exceeds the float range"
            )
        flows.append(IndustryFlow(key, xv, mv, xq, mq, unit))
    return CleanResult(tuple(flows), dropped, rows_read)


def read_flows(source: IO[bytes] | IO[str] | Iterable[str]) -> CleanResult:
    """Parse, validate and merge a trade table in one pass.

    This is the one ingestion entry point. `source` is a binary stream,
    decoded as UTF-8, or text; it is left open. Records sharing a key are
    merged by summation: values always sum; a side's volume sums only when
    every record of the key reports it. Raises FlowParseError on the first
    malformed row (bytes that are not UTF-8 included), UnitConflictError on
    a key whose records disagree on the volume unit and OverflowError on a
    key whose totals exceed the float range.

    Equal strings among the key fields and units of the flows are one shared
    object, so a flow costs its numbers and its key, not copies of the few
    distinct periods, reporters, partners, codes and units.
    """
    return _merge(_validated_rows(source))


def apply_grouping(
    flows: Iterable[IndustryFlow],
    mapping: dict[str, str] | None = None,
    policy: str = "own-code",
) -> list[IndustryGroup]:
    """Partition flows into IndustryGroups within each (period, reporter, partner).

    Codes absent from `mapping` fall back per `policy`: "own-code" makes each
    unmapped industry its own group, "drop" removes it, "strict" raises
    UnmappedCodeError listing every offending code.
    """
    if policy not in GROUP_POLICIES:
        raise ValueError(f"unknown grouping policy {policy!r}, expected one of {GROUP_POLICIES}")
    mapping = mapping or {}

    flows = list(flows)
    if policy == "strict":
        missing = sorted({f.key.industry_code for f in flows} - mapping.keys())
        if missing:
            raise UnmappedCodeError(missing)

    buckets: dict[tuple[str, str, str, str], list[IndustryFlow]] = {}
    for flow in flows:
        code = flow.key.industry_code
        group_id = mapping.get(code)
        if group_id is None:
            if policy == "drop":
                continue
            group_id = code  # own-code fallback
        buckets.setdefault((*flow.key[:3], group_id), []).append(flow)

    return [
        IndustryGroup(group_id, tuple(members))
        for (_, _, _, group_id), members in sorted(buckets.items())
    ]


def read_grouping_map(source: IO[bytes] | IO[str] | Iterable[str]) -> dict[str, str]:
    """Read a two-column industry_code,group_id CSV (with header) into a dict.

    `source` is read as read_flows reads it. Raises FlowParseError on a
    malformed row, bytes that are not UTF-8 included, and on a row that puts
    an industry code in another group than an earlier row did; a repeat of
    the same pair is accepted.
    """
    mapping: dict[str, str] = {}
    for row_number, row in _table(source, ("industry_code", "group_id")):
        code, group_id = row
        if not (code and group_id):
            raise FlowParseError(row_number, f"bad grouping row {row!r}")
        earlier = mapping.setdefault(code, group_id)
        if earlier != group_id:
            raise FlowParseError(
                row_number,
                f"industry_code {code!r} is in group {earlier!r} by an earlier row, "
                f"not {group_id!r}",
            )
    return mapping
