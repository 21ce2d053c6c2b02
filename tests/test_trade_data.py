import csv
import gc
import io
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from iitkit.trade_data import (
    FlowKey,
    FlowParseError,
    IndustryFlow,
    IndustryGroup,
    UnitConflictError,
    UnmappedCodeError,
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

    def test_peak_memory_per_key(self, table):
        # Each flow costs about 360 B at the peak; a copy of each key's
        # strings (about 53 B apiece) or of the merged table exceeds the bound.
        source = io.BytesIO(table)
        tracemalloc.start()
        try:
            result = read_flows(source)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / len(result.flows) < 500


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


def test_grouping_map_repeated_pair_accepted():
    mapping = read_grouping_map(io.StringIO("industry_code,group_id\n1,A\n2,B\n1,A\n"))
    assert mapping == {"1": "A", "2": "B"}


@pytest.mark.parametrize("head, row_number", [("", 1), ("industry_code,group_id\n1,G1\n", 3)])
def test_grouping_map_oversized_field_rejected_with_row_number(head, row_number):
    with pytest.raises(FlowParseError) as exc:
        read_grouping_map(io.StringIO(head + '"' + "y" * 140_000 + "\n"))
    assert exc.value.row_number == row_number
    assert "field limit" in exc.value.reason


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
    """A CSV table with mixed line endings, some over 64 KiB.

    In those, a first data row of padding puts the 64 KiB block edge a few
    bytes before or after its end, among the short rows that follow.
    """
    width = draw(st.integers(1, 3))
    header = [f"c{i}" for i in range(width)]
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    text = _csv_line(header, draw(endings))
    shift = draw(st.one_of(st.none(), st.integers(-8, 48)))
    if shift is not None:
        pad = (1 << 16) - shift - len(text) - width
        text += _csv_line(["p" * pad] + [""] * (width - 1), draw(endings))
    rows = draw(st.lists(st.lists(_CELLS, min_size=width, max_size=width), max_size=12))
    for cells in rows:
        text += _csv_line(cells, draw(endings))
    return text.encode()


@given(_byte_tables())
@settings(max_examples=200)
def test_table_rows_match_a_text_stream(raw):
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="") as text:
        reference = list(enumerate(csv.reader(text), start=1))
    header = tuple(reference[0][1])
    assert list(_table(io.BytesIO(raw), header)) == [
        (row_number, row) for row_number, row in reference[1:] if row
    ]
