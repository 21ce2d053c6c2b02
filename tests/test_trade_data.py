import copy
import csv
import dataclasses
import gc
import io
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from iitkit import trade_data
from iitkit.trade_data import (
    CleanResult,
    FlowKey,
    FlowParseError,
    IndustryFlow,
    IndustryGroup,
    UnitConflictError,
    UnmappedCodeError,
    _BLOCK,
    _table,
    apply_grouping,
    read_flows,
    read_grouping_map,
)

HEADER = "period,reporter,partner,industry_code,export_value,import_value,export_qty,import_qty,qty_unit"


def parse(text: str):
    return read_flows(io.StringIO(text))


class TestParseFlowRecords:
    """Row validation, through read_flows."""

    def test_full_row(self):
        result = parse(f"{HEADER}\n2020,FRA,DEU,870321,100.0,80.0,10,8,unit\n")
        assert result.flows == (
            IndustryFlow(FlowKey("2020", "FRA", "DEU", "870321"), 100.0, 80.0, 10.0, 8.0, "unit"),
        )

    def test_empty_qty_cells_mean_absent(self):
        (flow,) = parse(f"{HEADER}\n2020,FRA,DEU,870321,100.0,80.0,,,\n").flows
        assert flow.export_volume is None
        assert flow.import_volume is None
        assert flow.volume_unit is None

    def test_negative_value_rejected_with_row_number(self):
        with pytest.raises(FlowParseError) as exc:
            parse(f"{HEADER}\n2020,FRA,DEU,870321,-5,80,,,\n")
        assert exc.value.row_number == 2
        assert "export_value" in str(exc.value)

    def test_non_numeric_value_rejected(self):
        with pytest.raises(FlowParseError, match="import_value"):
            parse(f"{HEADER}\n2020,FRA,DEU,870321,5,abc,,,\n")

    def test_volume_without_unit_rejected(self):
        with pytest.raises(FlowParseError, match="qty_unit"):
            parse(f"{HEADER}\n2020,FRA,DEU,870321,5,8,10,,\n")

    def test_bad_header_rejected(self):
        with pytest.raises(FlowParseError, match="header"):
            parse("a,b,c\n1,2,3\n")

    def test_wrong_field_count_rejected(self):
        with pytest.raises(FlowParseError, match="9 fields"):
            parse(f"{HEADER}\n2020,FRA,DEU,870321,5\n")

    def test_byte_stream_and_crlf(self):
        raw = f"{HEADER}\r\n2020,FRA,DEU,870321,1,2,,,\r\n".encode()
        (flow,) = read_flows(io.BytesIO(raw)).flows
        assert flow.import_value == 2.0

    @pytest.mark.parametrize("binary", [False, True], ids=["text", "bytes"])
    def test_empty_input_rejected_at_row_1(self, binary):
        with pytest.raises(FlowParseError) as exc:
            read_flows(io.BytesIO(b"") if binary else io.StringIO(""))
        assert str(exc.value) == "row 1: empty input, header row missing"

    def test_text_source_past_one_batch(self):
        # 1,500 data rows fill a whole batch of the csv route and part of the next.
        assert trade_data._BATCH < 1_500
        body = "".join(f"2020,FRA,DEU,{code},{code + 1},1,,,\n" for code in range(1_500))
        text = f"{HEADER}\n{body}"
        assert parse(text) == read_flows(io.BytesIO(text.encode()))
        faulty = text.replace("2020,FRA,DEU,1498,1499,", "2020,FRA,DEU,1498,x,")  # row 1,500
        for source in (io.StringIO(faulty), io.BytesIO(faulty.encode())):
            with pytest.raises(FlowParseError) as exc:
                read_flows(source)
            assert str(exc.value) == "row 1500: export_value 'x' is not a number"

    def test_row_numbers_count_from_header(self):
        text = f"{HEADER}\n2020,FRA,DEU,1,1,1,,,\n2020,FRA,DEU,2,x,1,,,\n"
        with pytest.raises(FlowParseError) as exc:
            parse(text)
        assert exc.value.row_number == 3

    @pytest.mark.parametrize(
        "row, column",
        [
            ("1e999,80,,,", "export_value"),
            ("5,inf,,,", "import_value"),
            ("5,8,Infinity,1,kg", "export_qty"),
            ("5,8,1,1E400,kg", "import_qty"),
        ],
    )
    def test_non_finite_rejected_with_row_and_column(self, row, column):
        with pytest.raises(FlowParseError) as exc:
            parse(f"{HEADER}\n2020,FRA,DEU,1,1,1,,,\n2020,FRA,DEU,2,{row}\n")
        assert exc.value.row_number == 3
        assert exc.value.reason.startswith(f"{column} is not finite")

    @pytest.mark.parametrize("good_rows", [0, 1, 3000])
    def test_invalid_utf8_rejected_with_row_number(self, good_rows):
        # 3000 rows put the bad byte well past the decoder's first read-ahead chunk.
        raw = (
            f"{HEADER}\n".encode()
            + b"2020,FRA,DEU,1,1,1,,,\n" * good_rows
            + b"2020,FRA,DEU,\xff,1,1,,,\n2020,FRA,DEU,2,1,1,,,\n"
        )
        with pytest.raises(FlowParseError) as exc:
            read_flows(io.BytesIO(raw))
        assert exc.value.row_number == 2 + good_rows
        assert exc.value.reason == "not valid UTF-8"


    @pytest.mark.parametrize("good_rows, row_number", [(None, 1), (0, 2), (1, 3)])
    def test_oversized_field_rejected_with_row_number(self, good_rows, row_number):
        # An unterminated quote makes the rest of the input one field, past
        # the csv module's limit of 131,072 characters.
        head = "" if good_rows is None else f"{HEADER}\n" + "2020,FRA,DEU,1,1,1,,,\n" * good_rows
        with pytest.raises(FlowParseError) as exc:
            parse(head + '2020,FRA,DEU,"' + "x" * 140_000 + "\n")
        assert exc.value.row_number == row_number
        assert "field limit" in exc.value.reason

    def test_invalid_utf8_in_oversized_field_rejected_with_row_number(self):
        # The decoder meets the bad byte before the csv module meets its limit.
        raw = f"{HEADER}\n2020,FRA,DEU,1,1,1,,,\n2020,FRA,DEU,\"".encode() + b"x\xff" * 70_000
        with pytest.raises(FlowParseError) as exc:
            read_flows(io.BytesIO(raw))
        assert (exc.value.row_number, exc.value.reason) == (3, "not valid UTF-8")

    def test_invalid_utf8_in_stream_that_cannot_seek_rejected_with_row_number(self):
        raw = f"{HEADER}\n2020,FRA,DEU,1,1,1,,,\n2020,FRA,DEU,\xff,1,1,,,\n".encode("latin-1")
        with pytest.raises(FlowParseError) as exc:
            read_flows(_Pipe(raw))
        assert (exc.value.row_number, str(exc.value)) == (3, "row 3: not valid UTF-8")
        assert read_flows(_Pipe(raw.replace(b"\xff", b"2"))).rows_read == 2

    @pytest.mark.parametrize("good_rows", [5, 3000])
    def test_first_fault_in_row_order_is_reported(self, good_rows):
        # Row 2 holds a bad value and a later row a bad byte, near or far.
        raw = (
            f"{HEADER}\n2020,FRA,DEU,1,x,1,,,\n".encode()
            + b"2020,FRA,DEU,1,1,1,,,\n" * good_rows
            + b"2020,FRA,DEU,\xff,1,1,,,\n"
        )
        with pytest.raises(FlowParseError) as exc:
            read_flows(io.BytesIO(raw))
        assert str(exc.value) == "row 2: export_value 'x' is not a number"

    def test_long_line_read_in_growing_blocks(self):
        # A 32 MiB unterminated quote: reads of a fixed size would copy the
        # carried-over line once per read, in time quadratic in its length.
        stream = _CountingReads(f'{HEADER}\n2020,FRA,DEU,"'.encode() + b"x" * (32 << 20))
        with pytest.raises(FlowParseError) as exc:
            read_flows(stream)
        assert exc.value.row_number == 2
        assert "field limit" in exc.value.reason
        assert stream.reads <= 20

    def test_field_size_limit_read_at_call_time(self):
        # No quote in the table, so only the limit sends row 3 to the csv reader.
        raw = f"{HEADER}\n2020,FRA,DEU,1,1,1,,,\n2020,FRA,DEU,{'7' * 17},1,1,,,\n".encode()
        limit = csv.field_size_limit(16)
        try:
            with pytest.raises(FlowParseError) as exc:
                read_flows(io.BytesIO(raw))
        finally:
            csv.field_size_limit(limit)
        assert (exc.value.row_number, exc.value.reason) == (3, "field larger than field limit (16)")
        assert read_flows(io.BytesIO(raw)).rows_read == 2


class _Pipe(io.BytesIO):
    """A binary stream that, like a pipe, is read once and cannot seek."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")


class _CountingReads(io.BytesIO):
    """A binary stream that counts the calls to its read()."""

    reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)


class TestPairAndClean:
    """Key-level merging, through read_flows."""

    def test_additive_merge(self):
        result = parse(
            f"{HEADER}\n2020,FRA,DEU,1,50,0,,,\n2020,FRA,DEU,1,0,30,,,\n"
        )
        (flow,) = result.flows
        assert (flow.export_value, flow.import_value) == (50.0, 30.0)
        assert result.dropped_zero_trade == 0

    def test_zero_trade_dropped_and_tallied(self):
        result = parse(f"{HEADER}\n2020,FRA,DEU,1,0,0,,,\n2020,FRA,DEU,2,1,0,,,\n")
        assert [f.key.industry_code for f in result.flows] == ["2"]
        assert result.dropped_zero_trade == 1

    def test_unit_conflict_rejected(self):
        with pytest.raises(UnitConflictError) as exc:
            parse(f"{HEADER}\n2020,FRA,DEU,1,5,0,10,,kg\n2020,FRA,DEU,1,0,5,,10,unit\n")
        assert exc.value.key == FlowKey("2020", "FRA", "DEU", "1")
        assert type(exc.value.key) is FlowKey
        assert exc.value.units == ("kg", "unit")
        assert str(exc.value) == (
            "conflicting volume units 'kg' vs 'unit' for key ('2020', 'FRA', 'DEU', '1')"
        )

    def test_partial_quantity_coverage_gives_no_volume(self):
        # Values sum over both rows; a volume summed over the first alone would
        # give a unit-value ratio of 2.0 where the reporting row has 1.0.
        (flow,) = parse(
            f"{HEADER}\n2020,FRA,DEU,1,100,100,100,100,kg\n2020,FRA,DEU,1,100,0,,,\n"
        ).flows
        assert flow == IndustryFlow(FlowKey("2020", "FRA", "DEU", "1"), 200.0, 100.0, None, None, "kg")

    @pytest.mark.parametrize(
        "rows",
        [
            "2020,FRA,DEU,1,1e308,5,1,1,kg\n2020,FRA,DEU,1,1e308,5,1,1,kg\n",
            "2020,FRA,DEU,1,1e308,1e308,1,1,kg\n",
            "2020,FRA,DEU,1,5,5,1e308,1,kg\n2020,FRA,DEU,1,5,5,1e308,1,kg\n",
        ],
    )
    def test_total_beyond_float_range_rejected(self, rows):
        with pytest.raises(OverflowError) as exc:
            parse(f"{HEADER}\n{rows}")
        assert str(exc.value) == (
            "trade or volume total of key ('2020', 'FRA', 'DEU', '1') exceeds the float range"
        )

    def test_volumes_merge_when_units_agree(self):
        (flow,) = parse(
            f"{HEADER}\n2020,FRA,DEU,1,5,0,10,,kg\n2020,FRA,DEU,1,0,5,2,3,kg\n"
        ).flows
        # Both rows report an export quantity, only the second an import one.
        assert (flow.export_volume, flow.import_volume) == (12.0, None)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["1", "2", "3"]),
                st.floats(0, 1e6, allow_nan=False),
                st.floats(0, 1e6, allow_nan=False),
            ),
            max_size=30,
        )
    )
    def test_value_totals_conserved(self, rows):
        # repr round-trips a float exactly, so the table holds the drawn values.
        body = "".join(f"2020,FRA,DEU,{code},{xv!r},{mv!r},,,\n" for code, xv, mv in rows)
        result = parse(f"{HEADER}\n{body}")
        assert sum(f.export_value for f in result.flows) == pytest.approx(
            sum(xv for _, xv, _ in rows), abs=1e-6
        )
        assert sum(f.import_value for f in result.flows) == pytest.approx(
            sum(mv for _, _, mv in rows), abs=1e-6
        )


def _reference_value(cell: str, column: str, row_number: int) -> float:
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


def _reference_optional_value(cell: str, column: str, row_number: int) -> float | None:
    if cell == "":
        return None
    return _reference_value(cell, column, row_number)


def _reference_rows(source, row_number: int = 0):
    """The row path of read_flows as it stood before its checks ran on columns: the oracle.

    Frozen here, so that it does not follow the code it checks. Yields each
    row as (key, X, M, x, m, unit), the key its fields joined by commas, or
    their tuple if one holds a comma.
    """
    inf = math.inf
    for row_number, row in _table(source, trade_data.EXPECTED_HEADER, row_number):
        period, reporter, partner, code, xv, mv, xq, mq, unit = row
        try:
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
            _reference_value(xv, "export_value", row_number)
            _reference_value(mv, "import_value", row_number)
            _reference_optional_value(xq, "export_qty", row_number)
            _reference_optional_value(mq, "import_qty", row_number)
            raise FlowParseError(row_number, f"unparseable row {row!r}")
        if not (period and reporter and partner and code):
            raise FlowParseError(row_number, "empty key field")
        if not unit:
            if export_volume is not None or import_volume is not None:
                raise FlowParseError(row_number, "quantity present without qty_unit")
            unit = None
        if "," in period or "," in reporter or "," in partner or "," in code:
            key = period, reporter, partner, code
        else:
            key = f"{period},{reporter},{partner},{code}"
        yield key, export_value, import_value, export_volume, import_volume, unit


def _reference_merge(rows):
    """read_flows' merge as a dict of row lists, each folded at the end: the oracle.

    A unit conflict is raised as its row arrives, so before any later row's fault.
    A row's key is its fields joined by commas, or their tuple if one holds a comma.
    """
    keys: dict = {}
    rows_read = 0
    for key, xv, mv, xq, mq, unit in rows:
        if isinstance(key, str):
            key = tuple(key.split(","))
        rows_read += 1
        seen = keys.setdefault(key, [])
        known = next((row[4] for row in seen if row[4] is not None), None)
        if None not in (unit, known) and unit != known:
            raise UnitConflictError(FlowKey(*key), (known, unit))
        seen.append((xv, mv, xq, mq, unit))
    flows, dropped = [], 0
    for key, seen in keys.items():
        sums = []
        for column in range(4):
            cells = [row[column] for row in seen]
            total = 0.0
            for cell in cells:
                total += cell if cell is not None else 0.0
            sums.append(None if None in cells else total)
        xv, mv, xq, mq = sums
        if xv == 0 and mv == 0:
            dropped += 1
            continue
        if math.inf in (xv + mv, xq, mq):
            raise OverflowError(f"trade or volume total of key {key} exceeds the float range")
        unit = next((row[4] for row in seen if row[4] is not None), None)
        flows.append(IndustryFlow(FlowKey(*key), xv, mv, xq, mq, unit))
    return tuple(flows), dropped, rows_read


_MERGE_VALUE = st.one_of(
    st.sampled_from(["0", "0", "1", "2.5", "1e-300", "8e307", "1e308"]),
    st.floats(0, 1e6).map(repr),
)
_MERGE_FAULTS = ["2020,FRA,DEU,1,-1,0,,,", "2020,FRA,DEU,1,1,1,5,,", "2020,FRA,,1,1,1,,,"]


@st.composite
def _merge_tables(draw) -> str:
    """Up to 14 rows over 6 keys, quantities only beside a unit, at most one faulty row."""
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        unit = draw(st.sampled_from(["", "kg", "unit"]))
        qty = st.one_of(st.just(""), _MERGE_VALUE) if unit else st.just("")
        rows.append(",".join([
            draw(st.sampled_from(["2020", "2021"])), "FRA", "DEU",
            draw(st.sampled_from(["1", "2", "3"])),
            draw(_MERGE_VALUE), draw(_MERGE_VALUE), draw(qty), draw(qty), unit,
        ]))
    fault = draw(st.none() | st.integers(0, len(rows)))
    if fault is not None:
        rows.insert(fault, draw(st.sampled_from(_MERGE_FAULTS)))
    return "".join(f"{row}\n" for row in rows)


def _outcome(merge):
    """The merge's (flows, dropped, rows_read), or its exception's type and message."""
    try:
        return merge()
    except (FlowParseError, UnitConflictError, OverflowError) as exc:
        return type(exc), str(exc)


@given(_merge_tables())
@settings(max_examples=300)
@example("2020,FRA,DEU,1,0,0,,,\n2020,FRA,DEU,2,1e308,0,,,\n2020,FRA,DEU,1,0,0,1,1,kg\n")
@example("2020,FRA,DEU,1,1e308,5,1,,kg\n2020,FRA,DEU,2,1,1,,,\n2020,FRA,DEU,1,8e307,5,1,,kg\n")
# Two keys overflow: the first in row order is the one named.
@example("2020,FRA,DEU,1,1e308,0,,,\n2020,FRA,DEU,2,1e308,0,,,\n" * 2)
def test_merge_matches_the_reference(body):
    """Same flows, drops and rows read, or the same first error."""
    result = _outcome(lambda: read_flows(io.StringIO(f"{HEADER}\n{body}")))
    if isinstance(result, CleanResult):
        result = result.flows, result.dropped_zero_trade, result.rows_read
    assert result == _outcome(
        lambda: _reference_merge(_reference_rows(io.StringIO(f"{HEADER}\n{body}")))
    )


@pytest.mark.parametrize("body, error", [
    # A unit conflict at row 3, a negative value at row 5.
    ("2020,FRA,DEU,1,1,1,1,1,kg\n2020,FRA,DEU,1,1,1,1,1,unit\n"
     "2020,FRA,DEU,2,1,1,,,\n2020,FRA,DEU,2,-1,1,,,\n", UnitConflictError),
    # A negative value at row 3, a unit conflict at row 5.
    ("2020,FRA,DEU,1,1,1,1,1,kg\n2020,FRA,DEU,2,-1,1,,,\n"
     "2020,FRA,DEU,2,1,1,,,\n2020,FRA,DEU,1,1,1,1,1,unit\n", FlowParseError),
])
def test_first_fault_in_row_order_wins_between_merge_and_parse(body, error):
    with pytest.raises(error) as exc:
        parse(f"{HEADER}\n{body}")
    assert _outcome(
        lambda: _reference_merge(_reference_rows(io.StringIO(f"{HEADER}\n{body}")))
    ) == (error, str(exc.value))


_ENDINGS = st.sampled_from([b"\n", b"\r\n", b"\r"])
# Rows that the row path refuses, or reads otherwise than a split at each comma.
_ODD_ROWS = [
    b'"2020",FRA,DEU,1,5,1,,,',  # a quoted key field, its quotes not part of the key
    b'2020,FRA,DEU,"1\n2",1,1,,,',  # a quoted field over two lines: one row
    b"",  # a blank line, counted as a row and skipped
    b"2020,FRA,DEU,\x00,1,1,,,",  # a NUL, which the row path refuses on every Python version
    b"2020,FRA,DEU,\xff,1,1,,,",  # not UTF-8
    b"2020,FRA,DEU,1," + b"7" * 131_073 + b",1,,,",  # a field past csv's default limit
    b"2020,FRA,DEU,1,1,1,,",  # eight fields
    b"2020,FRA,DEU,1,1,1,,,,",  # ten fields
    b"2020,FRA,DEU,1,,1,,,",  # an empty value
    b"2020,FRA,DEU,1,nan,1,,,",
    b"2020,FRA,DEU,1,1,1,inf,1,kg",
    b"2020,FRA,DEU,1,1,1e999,,,",
    *(fault.encode() for fault in _MERGE_FAULTS),
]


@st.composite
def _block_tables(draw) -> bytes:
    """`_merge_tables`' rows as bytes, with -0 values, mixed line endings and one odd row.

    A padding row after the header may put the first read's block edge a
    few bytes either side of the start of one of the rows, the odd one if
    there is one.
    """
    value = st.one_of(_MERGE_VALUE, st.just("-0"))
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        unit = draw(st.sampled_from(["", "kg", "unit"]))
        qty = st.one_of(st.just(""), value) if unit else st.just("")
        rows.append(",".join([
            draw(st.sampled_from(["2020", "2021"])), "FRA", "DEU",
            draw(st.sampled_from(["1", "2", "3"])),
            draw(value), draw(value), draw(qty), draw(qty), unit,
        ]).encode())
    at = draw(st.integers(0, len(rows)))
    odd = draw(st.none() | st.sampled_from(_ODD_ROWS))
    if odd is not None:
        rows.insert(at, odd)
    lines = [row + draw(_ENDINGS) for row in rows]
    if lines and draw(st.booleans()):
        lines[-1] = rows[-1]  # the last line has no ending
    head = HEADER.encode() + draw(_ENDINGS)
    shift = draw(st.none() | st.integers(-40, 8))
    if shift is not None:
        prefix, suffix = b"2020,FRA,DEU,", b",1,1,,,\n"
        start = _BLOCK + shift  # where row `at` starts
        pad = start - len(head) - len(prefix) - len(suffix) - sum(map(len, lines[:at]))
        head += prefix + b"p" * pad + suffix
    return head + b"".join(lines)


@given(_block_tables())
@settings(max_examples=400)
@example(f"{HEADER}\n".encode() + b"2020,FRA,DEU,1,1,1,,,\n" * 1000 + b"2020,FRA,DEU,1,-0,1,1,,\n")
@example(f"{HEADER}\n2020,FRA,DEU,1,1,1,,,,\n".encode())
@example(f"{HEADER}\n1,1,1,1,1,1,1,1\n1,1,1,1,1,1,1,1,1,1\n".encode())
def test_blocks_match_the_row_path(raw):
    """A binary table read in blocks gives what the row path gives: flows, tallies or first error."""
    result = _outcome(lambda: read_flows(io.BytesIO(raw)))
    if isinstance(result, CleanResult):
        result = result.flows, result.dropped_zero_trade, result.rows_read
    assert result == _outcome(lambda: _reference_merge(_reference_rows(io.BytesIO(raw))))


# Odd rows the block reader refuses but the row path accepts, and a fault.
_SPAN_ROWS = [
    b'2020,FRA,DEU,"1\n2",1,1,,,',  # a quoted field over two lines
    b'2020,FRA,DEU,"1\r\n\r\n2",1,1,,,',  # over three, with CRLF and a blank line inside
    b'2020,"FRA,DEU",1,1,1,1,,,',  # a key field holding a comma
    b'2020,FRA,DEU,1,"5",1,,,',  # a quoted value
    b"",  # a blank line
    b"2020,FRA,DEU,\x00,1,1,,,",
    *_ODD_ROWS[4:9],  # not UTF-8, an oversized field, 8 and 10 fields, an empty value
    _MERGE_FAULTS[0].encode(),
]


@st.composite
def _spanning_tables(draw) -> bytes:
    """Tables of several blocks, up to three odd rows each starting near a read's end.

    Before each odd row, a padding row puts its start `shift` bytes after
    the end of the next read that is far enough ahead, so that a block
    edge falls just before the row, in it or just after it. Plain rows
    over four keys, in mixed line endings, come between and after.
    """
    value = st.one_of(_MERGE_VALUE, st.just("-0"))
    endings = _ENDINGS

    def plain() -> bytes:
        unit = draw(st.sampled_from(["", "kg", "unit"]))
        qty = st.one_of(st.just(""), value) if unit else st.just("")
        return ",".join([
            "2020", "FRA", "DEU", draw(st.sampled_from(["1", "2", "3", "4"])),
            draw(value), draw(value), draw(qty), draw(qty), unit,
        ]).encode() + draw(endings)

    table = HEADER.encode() + draw(endings)
    prefix, suffix = b"2020,FRA,DEU,", b",1,1,,,\n"
    for _ in range(draw(st.integers(1, 3))):
        rows = b"".join(plain() for _ in range(draw(st.integers(0, 3))))
        odd = draw(st.sampled_from(_SPAN_ROWS)) + draw(endings)
        start = (len(table) // _BLOCK + 2) * _BLOCK + draw(st.integers(-40, 8))
        pad = start - len(table) - len(prefix) - len(suffix) - len(rows)
        table += prefix + b"p" * pad + suffix + rows + odd
    return table + b"".join(plain() for _ in range(draw(st.integers(0, 3))))


@given(_spanning_tables())
@settings(max_examples=150, deadline=None)
@example(  # the edge falls inside a quoted field, the next block holds only plain rows
    HEADER.encode() + b"\n2020,FRA,DEU," + b"p" * (_BLOCK - 134) + b",1,1,,,\n"
    + b'2020,FRA,DEU,"1\n2",1,1,1,1,kg\n' + b"2020,FRA,DEU,1,1,1,1,1,unit\n" * 2000
)
def test_spans_match_the_row_path(raw):
    """After a block the row path reads, the next ones give what the row path gives."""
    result = _outcome(lambda: read_flows(io.BytesIO(raw)))
    if isinstance(result, CleanResult):
        result = result.flows, result.dropped_zero_trade, result.rows_read
    assert result == _outcome(lambda: _reference_merge(_reference_rows(io.BytesIO(raw))))


def test_blocks_after_a_quoted_field_are_read_in_columns(monkeypatch):
    # The quoted field spans the second block's end, so the csv reader reads
    # the first block, with the header, then the second and third; `_split`
    # refuses the second and splits every block after the third.
    plain = b"".join(b"2020,FRA,DEU,%d,1,1,,,\n" % (i % 50) for i in range(1000))
    head = HEADER.encode() + b"\n" + plain
    raw = (
        head + b"2020,FRA,DEU," + b"p" * (2 * _BLOCK - len(head) - 39) + b",1,1,,,\n"
        + b'2020,FRA,DEU,"1\n2",1,1,,,\n' + plain * 5
    )
    assert list(trade_data._blocks(io.BytesIO(raw)))[1].endswith(b'"1\n')
    split, offered = trade_data._split, []

    def offer(block, limit):
        accepted = split(block, limit)
        offered.append(accepted is not None)
        return accepted

    monkeypatch.setattr(trade_data, "_split", offer)
    result = read_flows(io.BytesIO(raw))
    assert (result.rows_read, len(result.flows)) == (6002, 52)
    assert offered[0] is False and len(offered) > 5 and all(offered[1:])


_SOUND_VALUES = ["0", "-0", "1", "2.5", " 3 ", "1_0", "1e308"]
_FAULTY_VALUES = ["", "-1", "-1e-300", "nan", "-nan", "inf", "1e999", "x"]


@st.composite
def _cell_batches(draw) -> list[tuple[str, ...]]:
    """Up to 12 rows of nine cells, some with faulty cells of every kind.

    A row is sound until up to two of its cells are replaced: a key cell by
    "", a value or quantity cell by a faulty value, the unit by "".
    """
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(st.sampled_from(["2020", "FRA", "1"])) for _ in range(4)]
        row += [draw(st.sampled_from(_SOUND_VALUES)) for _ in range(2)]
        row += [draw(st.sampled_from(["", *_SOUND_VALUES])) for _ in range(2)]
        row.append(draw(st.sampled_from(["kg", " "])) if row[6] or row[7] else
                   draw(st.sampled_from(["", "kg"])))
        for at in draw(st.lists(st.integers(0, 8), max_size=2)):
            row[at] = draw(st.sampled_from(_FAULTY_VALUES)) if 4 <= at < 8 else ""
        rows.append(tuple(row))
    return rows


def _drain(rows, separator: str = "\0") -> tuple[list, tuple | None]:
    """The rows an iterator gives, each key split at `separator`, and the error it ends with."""
    taken = []
    try:
        for key, *cells in rows:
            taken.append((tuple(key.split(separator)), *cells))
    except (FlowParseError, RuntimeError) as exc:
        return taken, (type(exc), str(exc))
    return taken, None


@given(_cell_batches())
@settings(max_examples=400)
def test_column_checks_and_fault_walk_agree(rows):
    """The column checks refuse a batch exactly when the walk finds a fault, the reference's."""
    columns = [list(column) for column in zip(*rows)] or [[] for _ in range(9)]
    numbers = range(2, len(rows) + 2)
    table = f"{HEADER}\n" + "".join(",".join(row) + "\n" for row in rows)
    expected = _drain(_reference_rows(io.StringIO(table)), ",")
    assert (trade_data._column_rows(*columns) is None) == (expected[1] is not None)
    assert _drain(trade_data._checked(numbers, columns)) == expected
    walked = _drain(trade_data._first_fault(numbers, columns))
    if expected[1] is None:
        assert walked[0] == [] and walked[1][0] is RuntimeError
    else:
        assert walked == expected


def test_refusal_without_a_fault_is_an_internal_error(monkeypatch):
    # Column checks that refuse sound rows disagree with the walk: no row is given.
    monkeypatch.setattr(trade_data, "_column_rows", lambda *columns: None)
    sound = [["2020"]] * 4 + [["1"], ["1"], [""], [""], [""]]
    error = RuntimeError, "the column checks refused rows in which the walk finds no fault"
    assert _drain(trade_data._checked(range(2, 3), sound)) == ([], error)
    # A sound row, then a faulty one: the walk names row 3, but the sound row is refused too.
    faulty = [column + [cell] for column, cell in zip(sound, ["2020"] * 4 + ["-1", "1", "", "", ""])]
    assert _drain(trade_data._checked(range(2, 4), faulty)) == ([], error)
    with pytest.raises(RuntimeError):
        read_flows(io.StringIO(f"{HEADER}\n2020,FRA,DEU,1,1,1,,,\n"))


class TestReadFlows:
    def test_key_order_drops_and_rows_read(self):
        raw = (
            f"{HEADER}\r\n"
            "2020,FRA,DEU,1,5,1,10,2,kg\r\n"
            "2020,FRA,DEU,2,0,0,,,\r\n"
            "2020,FRA,DEU,1,2,3,,,\r\n"
            "2020,FRA,DEU,3,7,7,,,\r\n"
            "2020,FRA,DEU,1,0.1,0.2,1,,kg\r\n"
            "\r\n"
        ).encode()
        result = read_flows(io.BytesIO(raw))
        assert [f.key.industry_code for f in result.flows] == ["1", "3"]
        one = result.flows[0]
        assert (one.export_value, one.import_value) == (5 + 2 + 0.1, 1 + 3 + 0.2)
        # The second row of key 1 reports no quantities, so neither side's covers every row.
        assert (one.export_volume, one.import_volume, one.volume_unit) == (None, None, "kg")
        assert result.dropped_zero_trade == 1
        assert result.rows_read == 5

    @pytest.mark.parametrize("binary", [True, False], ids=["blocks", "csv-reader"])
    def test_sums_decide_has_trade_once(self, binary, monkeypatch):
        # Rows of a key with trade fill the first block, so that the binary
        # route splits the rows under test in columns.
        padding = "2019,FRA,DEU,0,1,1,,,\n" * (_BLOCK // 20)
        body = "".join(f"2020,FRA,DEU,{row}\n" for row in (
            "3,0,0,,,",  # key 3 trades 0 first, then trades: kept
            "1,0,0,,,", "1,0,0,,,",  # key 1 trades 0 throughout: dropped
            # key 2 has no trade and its quantities overflow: dropped, not refused
            "2,0,0,1e308,1e308,kg", "2,0,0,1e308,1e308,kg",
            "3,116,100,100,100,kg",
            "5,0,7,,,",  # key 5 only imports: kept
        ))
        # A later key with trade whose value sum overflows is refused by name.
        overflow = "2020,FRA,DEU,4,1e308,0,,,\n" * 2
        table = f"{HEADER}\n{padding}{body}"

        def source(text):
            return io.BytesIO(text.encode()) if binary else io.StringIO(text)

        splits = []

        def split(block, limit):
            splits.append(real_split(block, limit))
            return splits[-1]

        real_split = trade_data._split
        monkeypatch.setattr(trade_data, "_split", split)
        sums, rows_read, dropped = trade_data._sums(source(table))
        assert any(splits) == binary
        kept = "\0".join(("2020", "FRA", "DEU", "3"))
        assert list(sums) == [
            "\0".join(("2019", "FRA", "DEU", "0")), kept, "\0".join(("2020", "FRA", "DEU", "5")),
        ]
        assert sums[kept] == (116.0, 100.0, None, None, "kg")
        assert (rows_read, dropped) == (_BLOCK // 20 + 7, 2)
        result = read_flows(source(table))
        assert [flow[:4] for flow in result.flows] == [
            ("2019", "FRA", "DEU", "0"), ("2020", "FRA", "DEU", "3"), ("2020", "FRA", "DEU", "5"),
        ]
        assert (result.rows_read, result.dropped_zero_trade) == (rows_read, dropped)
        message = r"total of key \('2020', 'FRA', 'DEU', '4'\) exceeds the float range"
        with pytest.raises(OverflowError, match=message):
            trade_data._sums(source(table + overflow))
        with pytest.raises(OverflowError, match=message):
            read_flows(source(table + overflow))

    def test_key_fields_holding_commas(self):
        # Joined by commas, the two keys would be one string.
        raw = (
            f'{HEADER}\n2020,"Korea, Rep.",DEU,1,1,1,,,\n2020,Korea," Rep.,DEU",1,2,2,,,\n'
            f'2020,"Korea, Rep.",DEU,1,3,3,1,,kg\n2020,Korea,DEU,1,4,4,,,\n'
        ).encode()
        result = read_flows(io.BytesIO(raw))
        assert [(tuple(f.key), f.export_value) for f in result.flows] == [
            (("2020", "Korea, Rep.", "DEU", "1"), 4.0),
            (("2020", "Korea", " Rep.,DEU", "1"), 2.0),
            (("2020", "Korea", "DEU", "1"), 4.0),
        ]
        assert all(type(f.key) is FlowKey for f in result.flows)
        with pytest.raises(UnitConflictError) as exc:
            read_flows(io.BytesIO(raw + b'2020,"Korea, Rep.",DEU,1,1,1,1,,t\n'))
        assert exc.value.key == FlowKey("2020", "Korea, Rep.", "DEU", "1")


def _panel_table(codes: int) -> bytes:
    """8 periods x 3 reporters x 4 partners x `codes` industries, 2% of keys absent.

    About 5% of rows carry no quantities and so no unit.
    """
    rng = random.Random(1)
    lines = [HEADER + "\n"]
    for reporter in ("DEU", "FRA", "ITA"):
        for partner in ("CHN", "GBR", "JPN", "USA"):
            for code in range(codes):
                for period in range(2016, 2024):
                    roll = rng.random()
                    if roll < 0.02:
                        continue
                    values = f"{rng.randrange(1, 10**9) / 100},{rng.randrange(1, 10**9) / 100}"
                    qty = ",," if roll > 0.95 else (
                        f"{rng.randrange(10, 10**5) / 10},{rng.randrange(10, 10**5) / 10},kg"
                    )
                    lines.append(f"{period},{reporter},{partner},{code:06d},{values},{qty}\n")
    return "".join(lines).encode()


class TestSharedStrings:
    """One object per distinct key field and unit; the merged table held once."""

    @pytest.fixture(scope="class")
    def table(self) -> bytes:
        return _panel_table(codes=400)

    def test_equal_key_fields_and_units_are_one_object(self, table):
        flows = read_flows(io.BytesIO(table)).flows
        assert len(flows) > 37_000
        first: dict = {}
        for flow in flows:
            for value in (*flow.key, flow.volume_unit):
                assert first.setdefault(value, value) is value
        assert "kg" in first and None in first

    @pytest.fixture(scope="class")
    def repeated(self, table) -> bytes:
        """`table` followed by 80% of its rows again: 1.8 rows per key."""
        header, *rows = table.decode().splitlines(keepends=True)
        rng = random.Random(2)
        return (header + "".join(rows) + "".join(r for r in rows if rng.random() < 0.8)).encode()

    def test_peak_memory_per_key(self, table):
        # Each flow costs 265-285 B at the peak. A merge slot alive beside
        # its flow (about 60 B), a copy of each key's strings (about 53 B
        # apiece) or of the merged table exceeds the bound.
        assert _peak_per_flow(table) < 340

    def test_peak_memory_per_key_repeated(self, repeated):
        # A repeated row replaces its key's slot: the slots do not grow.
        assert _peak_per_flow(repeated) < 340

    def test_peak_memory_per_key_quoted(self, table):
        # Key fields holding a comma are kept as a tuple, not joined: its
        # fields are shared too, or each key would hold its own copies.
        assert _peak_per_flow(table.replace(b",DEU,", b',"Germany, FR",')) < 340

    @pytest.fixture(scope="class")
    def unique_codes(self) -> bytes:
        """The criterion-8 layout: 20,000 keys, each with its own code, each in 3 rows."""
        rng = random.Random(8)
        rows = (
            f"2020,FRA,P{i % 20:02d},{i % 20_000:06d},{rng.uniform(0, 1e6):.2f},"
            f"{rng.uniform(0, 1e6):.2f},{rng.uniform(1, 1e4):.1f},{rng.uniform(1, 1e4):.1f},kg\n"
            for i in range(60_000)
        )
        return (HEADER + "\n" + "".join(rows)).encode()

    def test_peak_memory_per_unique_key(self, unique_codes):
        # No code is shared, so the flows' build sets the peak: 320-348 B a
        # flow on Python 3.10-3.13. A FlowKey beside each flow (about 70 B)
        # exceeds the bound.
        assert _peak_per_flow(unique_codes) < 350


def _peak_per_flow(table: bytes) -> float:
    """read_flows' traced peak memory over the table, per merged flow."""
    source = io.BytesIO(table)
    tracemalloc.start()
    try:
        result = read_flows(source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / len(result.flows)


class TestApplyGrouping:
    def _flows(self):
        return parse(
            f"{HEADER}\n2020,FRA,DEU,1,1,1,,,\n2020,FRA,DEU,2,2,2,,,\n2020,FRA,DEU,3,3,3,,,\n"
        ).flows

    def test_all_mapped_to_one_group(self):
        groups = apply_grouping(self._flows(), {"1": "G1", "2": "G1", "3": "G1"})
        assert len(groups) == 1
        assert len(groups[0].members) == 3

    def test_own_code_policy(self):
        groups = apply_grouping(self._flows(), {}, policy="own-code")
        assert sorted(g.group_id for g in groups) == ["1", "2", "3"]

    def test_strict_policy_names_missing_codes(self):
        with pytest.raises(UnmappedCodeError) as exc:
            apply_grouping(self._flows(), {"1": "G1"}, policy="strict")
        assert exc.value.codes == ["2", "3"]

    def test_unmapped_code_message_names_the_first_ten(self):
        codes = [f"{code:02d}" for code in range(1, 31)]  # sorted, as apply_grouping gives them
        exc = UnmappedCodeError(codes)
        assert exc.codes == codes
        assert str(exc) == (
            "unmapped industry codes under strict policy: 30 codes, the first 10: "
            "01, 02, 03, 04, 05, 06, 07, 08, 09, 10"
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError) as exc:
            apply_grouping(self._flows(), {}, policy="loose")
        assert str(exc.value) == (
            f"unknown grouping policy 'loose', expected one of {trade_data.GROUP_POLICIES}"
        )

    def test_drop_policy(self):
        groups = apply_grouping(self._flows(), {"1": "G1"}, policy="drop")
        assert [g.group_id for g in groups] == ["G1"]

    def test_partition(self):
        flows = self._flows()
        groups = apply_grouping(flows, {"1": "G1", "2": "G2"}, policy="own-code")
        seen = [m.key for g in groups for m in g.members]
        assert sorted(seen) == sorted(f.key for f in flows)
        assert len(seen) == len(set(seen))

    def test_snapshots_not_mixed(self):
        flows = parse(
            f"{HEADER}\n2020,FRA,DEU,1,1,1,,,\n2021,FRA,DEU,1,1,1,,,\n"
        ).flows
        groups = apply_grouping(flows, {"1": "G1"})
        assert len(groups) == 2
        assert {g.snapshot[0] for g in groups} == {"2020", "2021"}


def _bucket_grouping(flows, mapping, policy):
    """apply_grouping as a dict of buckets, sorted by key at the end: the oracle."""
    if policy == "strict":
        missing = sorted({f.key.industry_code for f in flows} - mapping.keys())
        if missing:
            raise UnmappedCodeError(missing)
    buckets = {}
    for flow in flows:
        group_id = mapping.get(flow.key.industry_code)
        if group_id is None:
            if policy == "drop":
                continue
            group_id = flow.key.industry_code
        buckets.setdefault((*flow.key[:3], group_id), []).append(flow)
    return [IndustryGroup(key[3], tuple(members)) for key, members in sorted(buckets.items())]


_CODES = ["1", "2", "3", "10"]


@st.composite
def _flows_and_maps(draw):
    """Flows over 2 periods x 2 partners, in drawn order, each with its own export value.

    A key may repeat, and a map may send a code to a group named by another code.
    """
    keys = draw(st.lists(st.tuples(
        st.sampled_from(["2021", "2020"]), st.just("FRA"),
        st.sampled_from(["USA", "DEU"]), st.sampled_from(_CODES),
    ), max_size=24))
    flows = [IndustryFlow(FlowKey(*key), float(i + 1), 1.0) for i, key in enumerate(keys)]
    mapping = draw(st.dictionaries(st.sampled_from(_CODES), st.sampled_from(["G", *_CODES])))
    return flows, mapping


@given(_flows_and_maps(), st.sampled_from(["own-code", "strict", "drop"]))
# Code 1 is mapped to group 2 and code 2 is not, so own-code puts both in group 2.
@example(([
    IndustryFlow(FlowKey("2020", "FRA", "DEU", code), value, 1.0)
    for code, value in (("2", 1.0), ("1", 2.0), ("2", 3.0), ("3", 4.0))
], {"1": "2"}), "own-code")
def test_grouping_matches_the_bucket_oracle(flows_and_map, policy):
    """Same groups, in the same order, with their members in the same order."""
    flows, mapping = flows_and_map
    try:
        expected = _bucket_grouping(flows, mapping, policy)
    except UnmappedCodeError as exc:
        with pytest.raises(UnmappedCodeError) as raised:
            apply_grouping(iter(flows), mapping, policy)
        assert raised.value.codes == exc.codes
        return
    assert apply_grouping(iter(flows), mapping, policy) == expected


def _constructed(record):
    """`record` built again by its class's constructor, from its fields."""
    return type(record)(*(getattr(record, f.name) for f in dataclasses.fields(record)))


@given(_block_tables(), st.booleans())
@settings(max_examples=200)
def test_merged_flows_equal_constructed_ones(raw, binary):
    """Each flow `_flows` builds with tuple.__new__ equals the one
    IndustryFlow(flow.key, ...) builds, with the same hash and repr, from a
    binary or a text source."""
    try:
        source = io.BytesIO(raw) if binary else io.StringIO(raw.decode(), newline="")
        flows = read_flows(source).flows
    except (UnicodeDecodeError, FlowParseError, UnitConflictError, OverflowError):
        return
    for flow in flows:
        key = flow.key
        built = IndustryFlow(key, flow.export_value, flow.import_value,
                             flow.export_volume, flow.import_volume, flow.volume_unit)
        assert type(flow) is IndustryFlow
        assert type(key) is FlowKey and key == flow[:4]
        assert (flow, hash(flow), repr(flow)) == (built, hash(built), repr(built))


def test_flow_is_one_flat_record():
    key = FlowKey("2020", "FRA", "DEU", "1")
    flow = IndustryFlow(key, 5.0, 8.0, 2.0, None, "kg")
    assert flow == ("2020", "FRA", "DEU", "1", 5.0, 8.0, 2.0, None, "kg")
    assert IndustryFlow._fields == (*FlowKey._fields, "export_value", "import_value",
                                    "export_volume", "import_volume", "volume_unit")
    assert IndustryFlow(key, 5.0, 8.0) == (*key, 5.0, 8.0, None, None, None)
    assert flow.key == key and type(flow.key) is FlowKey
    assert flow.total_trade == 13.0
    assert IndustryFlow(FlowKey("2020", "FRA", "DEU", "2"), 1.0, 1.0) > flow
    assert not hasattr(flow, "__dict__")
    assert IndustryFlow(key, import_value=8.0, export_value=5.0, volume_unit="kg") == (
        *key, 5.0, 8.0, None, None, "kg"
    )
    with pytest.raises(ValueError):
        IndustryFlow(("2020", "FRA", "DEU"), 5.0, 8.0)
    with pytest.raises(TypeError):
        IndustryFlow(key, 5.0)
    with pytest.raises(TypeError):
        IndustryFlow(key, 5.0, 8.0, 2.0, None, "kg", "extra")


def test_flow_round_trips():
    """_replace, _make, pickle and copy give back an IndustryFlow equal to the one they took."""
    (flow,) = parse(f"{HEADER}\n2020,FRA,DEU,1,5,8,2,,kg\n").flows
    changed = flow._replace(export_value=6.0)
    assert type(changed) is IndustryFlow
    assert changed == IndustryFlow(flow.key, 6.0, 8.0, 2.0, None, "kg")
    copies = [
        IndustryFlow._make(flow), flow._replace(), copy.copy(flow), copy.deepcopy(flow),
        *(pickle.loads(pickle.dumps(flow, protocol))
          for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ]
    for copied in copies:
        assert type(copied) is IndustryFlow
        assert (copied, hash(copied), repr(copied)) == (flow, hash(flow), repr(flow))


@given(_flows_and_maps())
def test_slot_built_groups_equal_constructed_ones(flows_and_map):
    flows, mapping = flows_and_map
    for group in apply_grouping(flows, mapping):
        built = _constructed(group)
        assert type(group) is IndustryGroup
        assert (group, hash(group), repr(group)) == (built, hash(built), repr(built))


def test_group_slot_setters_fill_all_that_init_would():
    """The grouping skips __init__: the setters must cover every field, and
    __post_init__ may only check. Every slot is a field, so a __post_init__
    could only rewrite a field, which would show here."""
    cls, setters = IndustryGroup, trade_data._GROUP_SETTERS
    names = tuple(f.name for f in dataclasses.fields(cls))
    assert cls.__slots__ == names
    assert tuple(setter.__self__.__name__ for setter in setters) == names
    group = next(trade_data._groups(parse(f"{HEADER}\n2020,FRA,DEU,1,5,8,,,\n").flows, None))
    fields = [getattr(group, name) for name in names]
    assert group.__post_init__() is None
    assert all(getattr(group, name) is field for name, field in zip(names, fields))


def test_public_group_construction_checks_its_members():
    a, b = (IndustryFlow(FlowKey(period, "FRA", "DEU", "1"), 1.0, 1.0) for period in ("2020", "2021"))
    with pytest.raises(ValueError, match="group 'G' has no members"):
        IndustryGroup("G", ())
    with pytest.raises(ValueError, match="group 'G' mixes snapshots"):
        IndustryGroup("G", (a, b))


def test_group_total_is_a_left_fold():
    # sum() compensates float rounding from Python 3.12 and would give
    # 1.0000000000000002e16 here; each 1.0 added to 1e16 rounds away.
    members = [
        IndustryFlow(FlowKey("2020", "FRA", "DEU", code), value, 0.0)
        for code, value in (("1", 1e16), ("2", 1.0), ("3", 1.0))
    ]
    assert IndustryGroup("G", tuple(members)).total_trade == 1e16


def test_read_grouping_map():
    mapping = read_grouping_map(io.StringIO("industry_code,group_id\n1,G1\n2,G2\n"))
    assert mapping == {"1": "G1", "2": "G2"}
    with pytest.raises(FlowParseError):
        read_grouping_map(io.StringIO("wrong,header\n"))


def test_grouping_map_code_in_two_groups_rejected_naming_the_later_row():
    with pytest.raises(FlowParseError) as exc:
        read_grouping_map(io.StringIO("industry_code,group_id\n1,A\n2,A\n1,B\n"))
    assert exc.value.row_number == 4
    assert exc.value.reason == "industry_code '1' is in group 'A' by an earlier row, not 'B'"


@pytest.mark.parametrize("row", [",G1", "2,"], ids=["empty code", "empty group"])
def test_grouping_map_row_with_an_empty_field_rejected(row):
    with pytest.raises(FlowParseError) as exc:
        read_grouping_map(io.StringIO(f"industry_code,group_id\n1,G1\n{row}\n"))
    assert str(exc.value) == f"row 3: bad grouping row {row.split(',')!r}"


def test_grouping_map_repeated_pair_accepted():
    mapping = read_grouping_map(io.StringIO("industry_code,group_id\n1,A\n2,B\n1,A\n"))
    assert mapping == {"1": "A", "2": "B"}


@pytest.mark.parametrize("binary", [False, True], ids=["text", "bytes"])
def test_grouping_map_holds_one_string_per_group_id(binary):
    text = "industry_code,group_id\n" + "".join(
        f"{code},group{code % 7}\n" for code in [*range(2000), 3, 5]  # two repeated pairs
    )
    mapping = read_grouping_map(io.BytesIO(text.encode()) if binary else io.StringIO(text))
    assert len(mapping) == 2000
    assert len({id(g) for g in mapping.values()}) == len(set(mapping.values())) == 7


@pytest.mark.parametrize("head, row_number", [("", 1), ("industry_code,group_id\n1,G1\n", 3)])
def test_grouping_map_oversized_field_rejected_with_row_number(head, row_number):
    with pytest.raises(FlowParseError) as exc:
        read_grouping_map(io.StringIO(head + '"' + "y" * 140_000 + "\n"))
    assert exc.value.row_number == row_number
    assert "field limit" in exc.value.reason


@pytest.mark.parametrize("binary", [False, True], ids=["text", "bytes"])
@pytest.mark.parametrize("read, table", [
    (read_flows, f"{HEADER}\n2020,F\0RA,DEU,1,1,1,,,\n2020,FRA,DEU,2,1,1,,,\n"),
    (read_flows, f'{HEADER}\n2020,FRA,DEU,"1\n\0",1,1,,,\n'),  # in a quoted field's second line
    (read_grouping_map, "industry_code,group_id\n1,\0G\n"),
])
def test_nul_rejected_with_row_number_on_every_version(binary, read, table):
    """The csv module accepts a NUL from Python 3.11 on; the row path refuses it."""
    with pytest.raises(FlowParseError) as exc:
        read(io.BytesIO(table.encode()) if binary else io.StringIO(table))
    assert (exc.value.row_number, exc.value.reason) == (2, "line contains NUL")


def test_grouping_map_bytes_decoded_and_invalid_utf8_rejected_with_row_number():
    assert read_grouping_map(io.BytesIO("industry_code,group_id\n1,Gé\n".encode())) == {"1": "Gé"}
    with pytest.raises(FlowParseError) as exc:
        read_grouping_map(io.BytesIO(b"industry_code,group_id\n1,G1\n2,\xff\n"))
    assert (exc.value.row_number, exc.value.reason) == (3, "not valid UTF-8")


@pytest.mark.parametrize("binary", [False, True], ids=["text", "bytes"])
@pytest.mark.parametrize("first", ["period", '"period"'])
def test_leading_byte_order_mark_ignored(binary, first):
    def source(text: str):
        return io.BytesIO(text.encode()) if binary else io.StringIO(text)

    table = f"{first}{HEADER.removeprefix('period')}\n2020,FRA,DEU,1,5,8,,,\n"
    assert read_flows(source("\ufeff" + table)) == read_flows(source(table))
    grouping = "industry_code,group_id\n1,G1\n"
    assert read_grouping_map(source("\ufeff" + grouping)) == {"1": "G1"}


def test_byte_order_mark_elsewhere_is_data():
    with pytest.raises(FlowParseError, match="bad header"):
        parse(f"\ufeff\ufeff{HEADER}\n")
    (flow,) = parse(f"\ufeff{HEADER}\n\ufeff2020,FRA,DEU,1,5,8,,,\n").flows
    assert flow.key.period == "\ufeff2020"
    assert read_grouping_map(io.StringIO("industry_code,group_id\n\ufeff1,G1\n")) == {
        "\ufeff1": "G1"
    }


@pytest.mark.parametrize("read, raw", [
    (read_flows, f"{HEADER}\n2020,FRA,DEU,1,1,1,,,\n".encode()),
    (read_flows, f"{HEADER}\n2020,FRA,DEU,\xff,1,1,,,\n".encode("latin-1")),
    (read_grouping_map, b"industry_code,group_id\n1,G1\n"),
])
def test_caller_stream_left_open(read, raw):
    stream = io.BytesIO(raw)
    try:
        read(stream)
    except FlowParseError:
        pass
    gc.collect()
    assert not stream.closed


# Cells with commas, quotes, line breaks and characters of 2, 3 and 4 UTF-8 bytes.
_CELLS = st.text(st.sampled_from('a ,"\r\né€𝄞'), max_size=6)


def _csv_line(cells: list[str], ending: str) -> str:
    quoted = [
        '"' + cell.replace('"', '""') + '"' if any(c in cell for c in ',"\r\n') else cell
        for cell in cells
    ]
    return ",".join(quoted) + ending


@st.composite
def _byte_tables(draw) -> bytes:
    """A CSV table with mixed line endings, some longer than the first read.

    In those, a first data row of padding puts the edge of the first read, at
    `_BLOCK` bytes, a few bytes before or after its end, among the short rows
    that follow.
    """
    width = draw(st.integers(1, 3))
    header = [f"c{i}" for i in range(width)]
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    text = _csv_line(header, draw(endings))
    shift = draw(st.one_of(st.none(), st.integers(-8, 48)))
    if shift is not None:
        pad = _BLOCK - shift - len(text) - width
        text += _csv_line(["p" * pad] + [""] * (width - 1), draw(endings))
    rows = draw(st.lists(st.lists(_CELLS, min_size=width, max_size=width), max_size=12))
    for cells in rows:
        text += _csv_line(cells, draw(endings))
    return text.encode()


@given(_byte_tables())
@settings(max_examples=200)
# The first read ends on the CR of a CRLF: the LF, in the next read, ends the same line.
@example(b"c0\n" + b"p" * (_BLOCK - 4) + b"\r\na\n")
def test_table_rows_match_a_text_stream(raw):
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="") as text:
        reference = list(enumerate(csv.reader(text), start=1))
    header = tuple(reference[0][1])
    assert list(_table(io.BytesIO(raw), header)) == [
        (row_number, row) for row_number, row in reference[1:] if row
    ]
