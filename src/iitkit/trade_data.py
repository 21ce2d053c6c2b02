"""Parse, validate, merge, and group raw bilateral trade records.

Input tables are UTF-8 comma-separated files with the mandatory header

    period,reporter,partner,industry_code,export_value,import_value,export_qty,import_qty,qty_unit

Empty quantity/unit cells mean "not reported". Records sharing a
(period, reporter, partner, industry_code) key are merged by summation;
industries with zero trade on both sides are dropped at ingestion so that
every downstream ratio has a positive denominator.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator, NamedTuple, TypeVar

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

_T = TypeVar("_T")


class FlowParseError(ValueError):
    """A malformed input row; carries the 1-based row number, or None if unknown, and a reason."""

    def __init__(self, row_number: int | None, reason: str):
        super().__init__(reason if row_number is None else f"row {row_number}: {reason}")
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


@dataclass(frozen=True)
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


# What errors="surrogateescape" decodes each byte that is not UTF-8 to.
_SURROGATE = re.compile("[\udc80-\udcff]")

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


def _validated_rows(source: IO[str] | Iterable[str]) -> Iterator[_Row]:
    """Check the header, then validate each data row and yield it as a plain tuple.

    Raises FlowParseError with the offending 1-based row number on any
    malformed row.
    """
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise FlowParseError(1, "empty input, header row missing") from None
    except csv.Error as exc:  # e.g. a field past the csv module's size limit
        raise FlowParseError(1, str(exc)) from None
    if tuple(h.strip() for h in header) != EXPECTED_HEADER:
        raise FlowParseError(
            1, f"bad header {header!r}, expected {','.join(EXPECTED_HEADER)}"
        )

    inf = math.inf
    row_number = 1
    try:
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue  # tolerate a trailing blank line
            if len(row) != 9:
                raise FlowParseError(row_number, f"expected 9 fields, got {len(row)}")
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
    except csv.Error as exc:  # raised while reading the record after row_number
        raise FlowParseError(row_number + 1, str(exc)) from None


def _undecodable_row(binary: IO[bytes]) -> int:
    """Row number of the first record of `binary` holding bytes that are not UTF-8.

    For the error path only: the decoder reads ahead of the csv reader, so
    the stream is parsed again from its start, each bad byte kept as a lone
    surrogate, which valid UTF-8 never decodes to.
    """
    binary.seek(0)
    text = io.TextIOWrapper(binary, encoding="utf-8", errors="surrogateescape", newline="")
    row_number = 0
    try:
        for row_number, row in enumerate(csv.reader(text), start=1):
            if _SURROGATE.search("".join(row)):
                break
    except csv.Error:  # a record too long to read; decoding stopped inside or just past it
        row_number += 1
    return row_number


def _merge(rows: Iterable[_Row]) -> CleanResult:
    """Merge rows sharing a key by summation and drop zero-trade industries.

    Keys keep their first-seen order and each sum runs in row order, so the
    result depends only on the sequence of rows. A side's volume is the sum
    of its quantities only when every row of the key reports one; otherwise
    it is None, since summing values over all rows but quantities over some
    would bias the unit value. Raises OverflowError on a key whose trade or
    volume total leaves the float range.
    """
    # key -> [X, M, x, m, unit]
    acc: dict[tuple[str, str, str, str], list] = {}
    get = acc.get
    rows_read = 0
    for key, xv, mv, xq, mq, unit in rows:
        rows_read += 1
        slot = get(key)
        if slot is None:
            acc[key] = [xv, mv, xq, mq, unit]
            continue
        slot[0] += xv
        slot[1] += mv
        if unit is not None and slot[4] is not None and unit != slot[4]:
            raise UnitConflictError(FlowKey(*key), (slot[4], unit))
        if slot[4] is None:
            slot[4] = unit
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
    for key, (xv, mv, xq, mq, unit) in acc.items():
        if xv == 0 and mv == 0:
            dropped += 1
            continue
        # Every row is finite and nonnegative, so a sum that overflowed is inf.
        if xv + mv == math.inf or xq == math.inf or mq == math.inf:
            raise OverflowError(f"trade or volume total of key {key} exceeds the float range")
        flows.append(IndustryFlow(FlowKey(*key), xv, mv, xq, mq, unit))
    return CleanResult(tuple(flows), dropped, rows_read)


def _read_csv(
    source: IO[bytes] | IO[str] | Iterable[str], parse: Callable[[Iterable[str]], _T]
) -> _T:
    """`parse(source)`, with a binary stream decoded as UTF-8 first.

    Bytes that are not UTF-8 raise FlowParseError, which names their row when
    the stream can seek back to its start; a pipe cannot, and is read once.
    """
    if hasattr(source, "read") and isinstance(source.read(0), bytes):
        try:
            return parse(io.TextIOWrapper(source, encoding="utf-8", newline=""))
        except UnicodeDecodeError:
            row_number = _undecodable_row(source) if source.seekable() else None
            raise FlowParseError(row_number, "not valid UTF-8") from None
    return parse(source)


def read_flows(source: IO[bytes] | IO[str] | Iterable[str]) -> CleanResult:
    """Parse, validate and merge a trade table in one pass.

    This is the one ingestion entry point. `source` is a binary or text
    stream (binary is decoded as UTF-8). Records sharing a key are merged by
    summation: values always sum; a side's volume sums only when every record
    of the key reports it. Raises FlowParseError on a malformed row
    (including bytes that are not UTF-8, whose row is named when the stream
    can seek),
    UnitConflictError on a key whose records disagree on the volume unit and
    OverflowError on a key whose totals exceed the float range.
    """
    return _read_csv(source, lambda text: _merge(_validated_rows(text)))


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

    `source` is decoded as read_flows decodes it. Raises FlowParseError on a
    malformed row, bytes that are not UTF-8 included.
    """
    return _read_csv(source, _grouping_map)


def _grouping_map(source: Iterable[str]) -> dict[str, str]:
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise FlowParseError(1, "empty grouping file") from None
    except csv.Error as exc:
        raise FlowParseError(1, str(exc)) from None
    if [h.strip() for h in header] != ["industry_code", "group_id"]:
        raise FlowParseError(1, f"bad grouping header {header!r}")
    mapping: dict[str, str] = {}
    row_number = 1
    try:
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2 or not row[0] or not row[1]:
                raise FlowParseError(row_number, f"bad grouping row {row!r}")
            mapping[row[0]] = row[1]
    except csv.Error as exc:  # raised while reading the record after row_number
        raise FlowParseError(row_number + 1, str(exc)) from None
    return mapping
