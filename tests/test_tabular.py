import hashlib
import json
import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays, floating_dtypes, integer_dtypes

from resplite import tabular
from resplite.tabular import (
    _pack_strings,
    _unpack_strings,
    ColumnRole,
    MISSING_TOKEN,
    Schema,
    SplitPlan,
    Table,
    TabularError,
    code_dtype,
    first_occurrence_codes,
    ingest_csv_group,
    load_binary,
    save_binary,
)


from conftest import MALFORMED_SCHEMAS, dictionary_of, ingest_csv, split, with_header


class _DictBuilder:
    """First-occurrence-order dictionary with the reserved missing code 0."""

    def __init__(self) -> None:
        self.index: dict[str, int] = {MISSING_TOKEN: 0}
        self.tokens: list[str] = [MISSING_TOKEN]

    def code(self, token: str) -> int:
        if token == "":
            return 0
        c = self.index.get(token)
        if c is None:
            c = len(self.tokens)
            self.index[token] = c
            self.tokens.append(token)
        return c


def _parse_file(path, schema, dict_builders):
    """Reference row-at-a-time parser: the raw column lists of one file."""
    path = Path(path)
    names = schema.names
    roles = [role for _, role in schema.columns]
    n_cols = len(names)
    raw: list[list] = [[] for _ in range(n_cols)]

    with open(path, "r", encoding="utf-8", newline="") as fh:
        line_no = 0
        if schema.has_header:
            fh.readline()
            line_no = 1
        for line in fh:
            line_no += 1
            fields = line.rstrip("\r\n").split(schema.delimiter)
            if len(fields) != n_cols:
                raise TabularError(
                    f"{path.name}: line {line_no}: expected {n_cols} fields, got {len(fields)}"
                )
            for i, token in enumerate(fields):
                role = roles[i]
                if role is ColumnRole.ROW_ID:
                    raw[i].append(token)
                elif role is ColumnRole.CATEGORICAL:
                    raw[i].append(dict_builders[names[i]].code(token))
                elif role in (ColumnRole.CONTINUOUS, ColumnRole.BINARY):
                    if token == "" or token == "NaN":
                        raw[i].append(np.nan)
                    else:
                        try:
                            raw[i].append(float(token))
                        except ValueError:
                            raise TabularError(
                                f"{path.name}: line {line_no}: non-numeric value "
                                f"{token!r} in column {names[i]!r}"
                            ) from None
                elif role is ColumnRole.DAY:
                    try:
                        raw[i].append(int(token))
                    except ValueError:
                        raise TabularError(
                            f"{path.name}: line {line_no}: non-numeric value "
                            f"{token!r} in day column {names[i]!r}"
                        ) from None
                else:  # labels
                    if token == "":
                        raise TabularError(
                            f"{path.name}: line {line_no}: missing label value "
                            f"in column {names[i]!r}"
                        )
                    try:
                        value = int(float(token))
                    except ValueError:
                        raise TabularError(
                            f"{path.name}: line {line_no}: non-numeric value "
                            f"{token!r} in label column {names[i]!r}"
                        ) from None
                    if value not in (0, 1):
                        raise TabularError(
                            f"{path.name}: line {line_no}: label value {token!r} "
                            f"outside {{0,1}} in column {names[i]!r}"
                        )
                    raw[i].append(value)
    return dict(zip(names, raw))


def _reference_ingest(paths, schema):
    """The row-loop ingest that the block parser replaced: dictionaries built
    token by token over the files in path order."""
    builders = {name: _DictBuilder() for name, role in schema.columns
                if role is ColumnRole.CATEGORICAL}
    raws = [_parse_file(p, schema, builders) for p in paths]
    dicts = {name: b.tokens for name, b in builders.items()}
    return [Table.from_columns(schema, raw, dicts) for raw in raws]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(TabularError, match="unique"):
            Schema((("a", ColumnRole.DAY), ("a", ColumnRole.CONTINUOUS)))

    def test_two_day_columns_rejected(self):
        with pytest.raises(TabularError, match="at most one day"):
            Schema((("a", ColumnRole.DAY), ("b", ColumnRole.DAY)))

    def test_json_round_trip_preserves_order(self):
        schema = Schema(
            (
                ("z", ColumnRole.ROW_ID),
                ("a", ColumnRole.DAY),
                ("m", ColumnRole.CONTINUOUS),
                ("y", ColumnRole.LABEL_INSTALL),
            ),
            delimiter=",",
        )
        again = Schema.from_json(schema.to_json())
        assert again == schema
        assert again.names == ("z", "a", "m", "y")

    def test_bare_mapping_accepted(self):
        schema = Schema.from_json({"f1": "day", "x": "continuous"})
        assert schema.delimiter == "\t"
        assert schema.role("f1") is ColumnRole.DAY

    def test_unknown_role_rejected(self):
        with pytest.raises(TabularError, match="unknown column role"):
            Schema.from_json({"f1": "date"})

    @pytest.mark.parametrize("doc, match", [
        *MALFORMED_SCHEMAS,
        ([["day", "day"]], "a schema must be a JSON object, not list"),
        ({3: "day"}, "columns must be a JSON object mapping names to roles"),
    ])
    def test_malformed_document_rejected(self, doc, match):
        with pytest.raises(TabularError, match=match):
            Schema.from_json(doc)


class TestIngest:
    def test_three_row_file_first_occurrence_dictionary(self, tmp_path, small_schema):
        path = write(
            tmp_path,
            "t.tsv",
            "r1\t45\tbeta\t1.5\t0\n"
            "r2\t45\talpha\t2.5\t1\n"
            "r3\t46\tbeta\t0.5\t0\n",
        )
        table = ingest_csv(path, small_schema)
        assert table.n_rows == 3
        assert table.dictionary("c1") == (MISSING_TOKEN, "beta", "alpha")
        assert table.col("c1").tolist() == [1, 2, 1]
        assert table.col("x1").tolist() == [1.5, 2.5, 0.5]
        assert table.col("id").tolist() == [b"r1", b"r2", b"r3"]

    def test_empty_continuous_field_becomes_missing(self, tmp_path, small_schema):
        path = write(tmp_path, "t.tsv", "r1\t45\ta\t\t0\nr2\t45\ta\tNaN\t1\n")
        table = ingest_csv(path, small_schema)
        assert np.isnan(table.col("x1")).all()

    def test_empty_categorical_field_is_code_zero(self, tmp_path, small_schema):
        path = write(tmp_path, "t.tsv", "r1\t45\t\t1.0\t0\nr2\t45\tq\t2.0\t1\n")
        table = ingest_csv(path, small_schema)
        assert table.col("c1").tolist() == [0, 1]

    def test_field_count_mismatch_names_line(self, tmp_path, small_schema):
        path = write(
            tmp_path, "t.tsv", "r1\t45\ta\t1.0\t0\nr2\t45\ta\t1.0\t0\textra\n"
        )
        with pytest.raises(TabularError, match="line 2"):
            ingest_csv(path, small_schema)

    def test_non_numeric_continuous_names_column_and_line(self, tmp_path, small_schema):
        path = write(tmp_path, "t.tsv", "r1\t45\ta\toops\t0\n")
        with pytest.raises(TabularError, match=r"line 1.*'x1'"):
            ingest_csv(path, small_schema)

    def test_missing_label_errors(self, tmp_path, small_schema):
        path = write(tmp_path, "t.tsv", "r1\t45\ta\t1.0\t\n")
        with pytest.raises(TabularError, match="missing label"):
            ingest_csv(path, small_schema)

    def test_label_outside_01_errors(self, tmp_path, small_schema):
        path = write(tmp_path, "t.tsv", "r1\t45\ta\t1.0\t2\n")
        with pytest.raises(TabularError, match="outside"):
            ingest_csv(path, small_schema)

    @pytest.mark.parametrize("line, message", [
        ("r2\t45\ta\t1.0\tinf", "line 2: label value 'inf' outside {0,1} in column 'y'"),
        ("r2\t45\ta\t1.0\t1e400", "line 2: label value '1e400' outside {0,1} in column 'y'"),
        ("r2\t99999999999\ta\t1.0\t0",
         "line 2: day value '99999999999' outside the int32 range in day column 'f1'"),
    ])
    def test_overflowing_value_names_file_line_and_column(
        self, tmp_path, small_schema, line, message
    ):
        path = write(tmp_path, "t.tsv", "r1\t45\ta\t1.0\t0\n" + line + "\n")
        with pytest.raises(TabularError) as exc:
            ingest_csv(path, small_schema)
        assert str(exc.value) == f"t.tsv: {message}"

    @pytest.mark.parametrize("line, message", [
        ("r1\x00\t45\ta\t1.0\t0", "line 2: NUL character in row_id column 'id'"),
        ("r2\t45\ta\x00\x00\t1.0\t0", "line 2: NUL character in categorical column 'c1'"),
        ("r2\t45\ta\x00b\t1.0\t0", "line 2: NUL character in categorical column 'c1'"),
    ])
    def test_nul_in_id_or_category_names_file_line_and_column(
        self, tmp_path, small_schema, line, message
    ):
        # numpy strings drop trailing NULs, so "r1\0" would be stored as "r1"
        path = write(tmp_path, "t.tsv", "r1\t45\ta\t1.0\t0\n" + line + "\n")
        with pytest.raises(TabularError) as exc:
            ingest_csv(path, small_schema)
        assert str(exc.value) == f"t.tsv: {message}"

    def test_dictionary_stability(self, tmp_path, small_schema):
        path = write(
            tmp_path, "t.tsv", "r1\t45\tc\t1.0\t0\nr2\t45\ta\t1.0\t1\nr3\t45\tc\t1.0\t0\n"
        )
        t1 = ingest_csv(path, small_schema)
        t2 = ingest_csv(path, small_schema)
        assert t1.dictionary("c1") == t2.dictionary("c1")
        assert np.array_equal(t1.col("c1"), t2.col("c1"))

    def test_group_ingest_shares_dictionaries(self, tmp_path, small_schema):
        a = write(tmp_path, "a.tsv", "r1\t45\tfoo\t1.0\t0\n")
        b = write(tmp_path, "b.tsv", "r2\t46\tbar\t1.0\t1\nr3\t46\tfoo\t1.0\t0\n")
        ta, tb = ingest_csv_group([a, b], small_schema)
        assert ta.dictionary("c1") == tb.dictionary("c1") == (MISSING_TOKEN, "foo", "bar")
        assert tb.col("c1").tolist() == [2, 1]

    def test_header_row_skipped(self, tmp_path):
        schema = Schema(
            (("f1", ColumnRole.DAY), ("y", ColumnRole.LABEL_INSTALL)),
            has_header=True,
        )
        path = write(tmp_path, "t.tsv", "f1\ty\n45\t1\n")
        table = ingest_csv(path, schema)
        assert table.n_rows == 1

    def test_columns_are_immutable(self, tmp_path, small_schema):
        path = write(tmp_path, "t.tsv", "r1\t45\ta\t1.0\t0\n")
        table = ingest_csv(path, small_schema)
        with pytest.raises(ValueError):
            table.col("x1")[0] = 9.0


_COLUMNS = (
    ("id", ColumnRole.ROW_ID),
    ("day", ColumnRole.DAY),
    ("c1", ColumnRole.CATEGORICAL),
    ("c2", ColumnRole.CATEGORICAL),
    ("x", ColumnRole.CONTINUOUS),
    ("b", ColumnRole.BINARY),
    ("y", ColumnRole.LABEL_INSTALL),
)
# no delimiter, line break or NUL (numpy strings drop trailing NULs)
_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t,;\r\n\x00"),
    max_size=4,
)
_TOKENS = {
    ColumnRole.ROW_ID: _TEXT,
    ColumnRole.DAY: st.integers(0, 2**31 - 1).map(str),
    ColumnRole.CATEGORICAL: st.one_of(
        st.sampled_from(["", "NaN", MISSING_TOKEN, "é", "日本"]), _TEXT),
    ColumnRole.CONTINUOUS: st.one_of(
        st.sampled_from(["", "NaN", "nan", "-0.0", "inf", "1e400"]),
        st.floats(allow_nan=False).map(repr)),
    ColumnRole.BINARY: st.sampled_from(["", "NaN", "0", "1", "0.0", "1.0"]),
    ColumnRole.LABEL_INSTALL: st.sampled_from(["0", "1", "0.0", "1.0", "-0.5", "1.9"]),
}
#: one bad field: a row with an extra or a missing field, a non-numeric
#: continuous value or day, a missing label, a label of 2 (the label is last)
_CORRUPTIONS = {
    "extra field": lambda row: row.append("z"),
    "missing field": lambda row: row.pop(),
    "non-numeric": lambda row: row.__setitem__(4, "oops"),
    "non-numeric day": lambda row: row.__setitem__(1, "d1"),
    "missing label": lambda row: row.__setitem__(-1, ""),
    "label 2": lambda row: row.__setitem__(-1, "2"),
}


@st.composite
def delimited_files(draw):
    """1-3 files of one schema, with or without a header, mixed line
    endings, and up to two corrupted fields."""
    schema = Schema(_COLUMNS, delimiter=draw(st.sampled_from("\t,;")),
                    has_header=draw(st.booleans()))
    row = st.tuples(*(_TOKENS[role] for _, role in _COLUMNS)).map(list)
    files = draw(st.lists(st.lists(row, max_size=12), min_size=1, max_size=3))
    filled = [rows for rows in files if rows]
    for corruption in draw(st.lists(st.sampled_from(list(_CORRUPTIONS)), max_size=2)):
        if filled:
            rows = draw(st.sampled_from(filled))
            _CORRUPTIONS[corruption](rows[draw(st.integers(0, len(rows) - 1))])
    texts = []
    for rows in files:
        lines = [schema.names] * schema.has_header + rows
        ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                             min_size=len(lines), max_size=len(lines)))
        if ends and draw(st.booleans()):
            ends[-1] = ""  # no line break at the end of the file
        texts.append("".join(schema.delimiter.join(line) + end
                             for line, end in zip(lines, ends)))
    return schema, texts


@settings(max_examples=300, deadline=None)
@given(case=delimited_files(), block_lines=st.integers(1, 4))
def test_block_parser_matches_the_row_loop_reference(case, block_lines):
    schema, texts = case
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(tabular, "_BLOCK_LINES", block_lines):
        paths = [Path(tmp) / f"f{k}.csv" for k in range(len(texts))]
        for path, text in zip(paths, texts):
            path.write_bytes(text.encode("utf-8"))
        try:
            want = _reference_ingest(paths, schema)
        except TabularError as exc:
            with pytest.raises(TabularError) as got:
                ingest_csv_group(paths, schema)
            assert str(got.value) == str(exc)
            return
        got = ingest_csv_group(paths, schema)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.equals(w)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-5, 40), max_size=60))
def test_integer_categories_code_like_their_strings(values):
    ints = np.array(values, dtype=np.int64)
    codes, dictionary = first_occurrence_codes(ints)
    builder = _DictBuilder()
    assert codes.dtype == np.int32
    assert codes.tolist() == [builder.code(str(v)) for v in values]
    assert dictionary == builder.tokens
    str_codes, str_dictionary = first_occurrence_codes(ints.astype(np.str_))
    assert np.array_equal(str_codes, codes) and str_dictionary == dictionary


def _reference_unpack_strings(buf: bytes) -> list[str]:
    """The string-by-string decode of a well-formed block, as
    ``_unpack_strings`` did it before its fixed-width ASCII path."""
    (count,) = struct.unpack_from("<Q", buf, 0)
    offsets = np.frombuffer(buf, dtype="<u8", count=count + 1, offset=8).tolist()
    blob = buf[8 + 8 * (count + 1):]
    return [blob[a:b].decode("utf-8") for a, b in zip(offsets, offsets[1:])]


#: any text UTF-8 can hold (no lone surrogates), NUL and non-ASCII included
_STRINGS = st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=6), max_size=12)
_ASCII_STRINGS = st.lists(st.text(st.characters(max_codepoint=127), max_size=6), max_size=12)


@settings(max_examples=300, deadline=None)
@given(strings=st.one_of(_STRINGS, _ASCII_STRINGS))
def test_string_block_round_trips(strings):
    # a block holding NUL is rejected: the S array would drop a trailing one
    buf = _reference_pack_strings(strings)
    if any("\0" in s for s in strings):
        with pytest.raises(TabularError, match="in a block holds a NUL byte"):
            _unpack_strings(buf, "a block")
        return
    assert _pack_strings(strings, "a block") == buf
    got = _unpack_strings(buf, "a block")
    assert got.dtype.kind == "S"
    assert got.tolist() == [s.encode() for s in strings]
    assert _reference_unpack_strings(buf) == strings


def _reference_pack_strings(values) -> bytes:
    """The string-by-string ``_pack_strings`` from before its ``<U`` path."""
    blobs = [s.encode("utf-8") for s in values]
    offsets = np.zeros(len(blobs) + 1, dtype="<u8")
    np.cumsum([len(b) for b in blobs], out=offsets[1:])
    return struct.pack("<Q", len(blobs)) + offsets.tobytes() + b"".join(blobs)


@settings(max_examples=300, deadline=None)
@given(strings=st.one_of(_STRINGS, _ASCII_STRINGS))
@example(strings=["a\0b", "", "\0", "ab"])  # NULs inside, and an S pad
@example(strings=["12", "é", "3"])
def test_id_array_packs_like_its_strings(strings):
    # an S array drops trailing NULs: its strings are what tolist() returns,
    # and one still holding a NUL is refused, as no block holding one loads
    arr = np.array([s.encode() for s in strings], dtype=np.bytes_)
    held = arr.tolist()
    if any(b"\0" in b for b in held):
        with pytest.raises(TabularError, match="NUL byte in a string of an id column"):
            _pack_strings(arr, "an id column")
        return
    assert _pack_strings(arr, "an id column") == _reference_pack_strings(
        [b.decode() for b in held]
    )


@settings(max_examples=300, deadline=None)
@given(strings=st.one_of(_STRINGS, _ASCII_STRINGS), data=st.data())
def test_truncated_string_block_errors(strings, data):
    buf = _reference_pack_strings(strings)
    cut = data.draw(st.integers(0, len(buf) - 1))
    with pytest.raises(TabularError, match="in a block"):
        _unpack_strings(buf[:cut], "a block")


@settings(max_examples=500, deadline=None)
@given(strings=st.one_of(_STRINGS, _ASCII_STRINGS).filter(len), data=st.data())
def test_string_block_with_other_offsets_errors_or_splits_the_same_bytes(strings, data):
    buf = _reference_pack_strings(strings)
    count = len(strings)
    offsets = np.frombuffer(buf, dtype="<u8", count=count + 1, offset=8).copy()
    i = data.draw(st.integers(0, count))
    new = data.draw(st.one_of(st.integers(0, int(offsets[-1]) + 2), st.integers(0, 2**64 - 1)))
    assume(new != offsets[i])
    offsets[i] = new
    bad = buf[:8] + offsets.tobytes() + buf[8 + 8 * (count + 1):]
    blob_len = len(buf) - 8 - 8 * (count + 1)
    ends = offsets.tolist()
    if not (ends[0] == 0 and ends == sorted(ends) and ends[-1] == blob_len):
        with pytest.raises(TabularError, match="in a block"):
            _unpack_strings(bad, "a block")
        return
    if any("\0" in s for s in strings):  # any split of a NUL byte is rejected
        with pytest.raises(TabularError, match="in a block holds a NUL byte"):
            _unpack_strings(bad, "a block")
        return
    try:
        got = _unpack_strings(bad, "a block")
    except TabularError as exc:  # only a split UTF-8 character is left to reject
        assert "not UTF-8" in str(exc)
        return
    assert _pack_strings(got, "a block") == bad


class TestSplit:
    def make(self, days):
        n = len(days)
        return Table.from_columns(
            Schema((("day", ColumnRole.DAY), ("y", ColumnRole.LABEL_INSTALL))),
            {"day": np.asarray(days), "y": np.zeros(n, dtype=np.uint8)},
        )

    def test_basic_partition(self):
        table = self.make([64, 65, 66, 64, 66])
        parts = split(table, SplitPlan(frozenset({64, 65}), 66))
        assert parts.train.day_values.tolist() == [64, 65, 64]
        assert parts.valid.day_values.tolist() == [66, 66]

    def test_absent_valid_day_errors(self):
        table = self.make([64, 65])
        with pytest.raises(TabularError, match="zero rows"):
            split(table, SplitPlan(frozenset({64, 65}), 70))

    def test_plan_invariants(self):
        with pytest.raises(TabularError):
            SplitPlan(frozenset({66}), 66)
        with pytest.raises(TabularError):
            SplitPlan(frozenset({67}), 66)

    def test_thousand_rows_against_brute_force(self):
        rng = np.random.Generator(np.random.PCG64(42))
        days = rng.integers(45, 68, size=1000)
        table = self.make(days)
        plan = SplitPlan(frozenset(range(45, 66)), 66)
        parts = split(table, plan)

        # independent oracle: plain row scan
        want_train = [i for i, d in enumerate(days) if 45 <= d <= 65]
        want_valid = [i for i, d in enumerate(days) if d == 66]
        assert parts.train.n_rows == len(want_train)
        assert parts.valid.n_rows == len(want_valid)
        assert parts.train.day_values.tolist() == [days[i] for i in want_train]
        assert set(parts.train.day_values.tolist()) <= set(range(45, 66))
        assert set(parts.valid.day_values.tolist()) == {66}
        total = parts.train.n_rows + parts.valid.n_rows
        assert total == np.isin(days, list(range(45, 67))).sum()

    def test_partition_property_uncovered_days_excluded(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for trial in range(5):
            days = rng.integers(0, 10, size=200)
            table = self.make(days)
            plan = SplitPlan(frozenset({1, 2, 3}), 5)
            parts = split(table, plan) if (days == 5).any() else None
            if parts is None:
                continue
            counts = np.zeros(200, dtype=int)
            for part, day_set in (
                (parts.train, {1, 2, 3}),
                (parts.valid, {5}),
            ):
                assert set(part.day_values.tolist()) <= day_set
            covered = np.isin(days, [1, 2, 3, 5])
            total = parts.train.n_rows + parts.valid.n_rows
            assert total == covered.sum()

    def test_empty_train_days_mean_every_day_before_valid(self):
        table = self.make([63, 67, 64, 66, 65, 66, 62])
        parts = split(table, SplitPlan(frozenset(), 66))
        assert parts.train.day_values.tolist() == [63, 64, 65, 62]
        assert parts.valid.day_values.tolist() == [66, 66]


class TestBinaryPersistence:
    def test_round_trip_structural_equality(self, tmp_path, small_schema):
        path = write(
            tmp_path, "t.tsv",
            "r1\t45\tbeta\t1.5\t0\nr2\t45\t\t\t1\nr3\t46\tbeta\t-0.5\t0\n",
        )
        table = ingest_csv(path, small_schema)
        dest = tmp_path / "t.rlt"
        save_binary(table, dest)
        again = load_binary(dest)
        assert again.equals(table)

    @pytest.mark.parametrize("ids", [["r1", "", "r33"], ["r1", "é", "", "日本", "r5"]])
    def test_row_ids_round_trip(self, tmp_path, ids):
        # ASCII and non-ASCII ids alike load as their UTF-8 bytes
        schema = Schema((("id", ColumnRole.ROW_ID), ("y", ColumnRole.LABEL_INSTALL)))
        table = Table.from_columns(schema, {"id": ids, "y": np.zeros(len(ids))})
        dest = tmp_path / "t.rlt"
        save_binary(table, dest)
        assert load_binary(dest).col("id").tolist() == [i.encode() for i in ids]

    def test_loaded_ids_are_as_wide_as_the_longest_in_utf8(self, tmp_path):
        ids = ["é", "abc", "日本x", ""]
        longest = max(len(i.encode()) for i in ids)
        schema = Schema((("id", ColumnRole.ROW_ID), ("y", ColumnRole.LABEL_INSTALL)))
        path = write(tmp_path, "t.tsv", "".join(f"{i}\t0\n" for i in ids))
        ingested = ingest_csv(path, schema)
        dest = tmp_path / "t.rlt"
        save_binary(ingested, dest)
        for table in (ingested, load_binary(dest)):
            col = table.col("id")
            assert col.dtype.kind == "S" and col.itemsize == longest == 7
            assert col.tolist() == [i.encode() for i in ids]

    @pytest.mark.parametrize("column", ["id", "c"])
    def test_cache_whose_string_block_holds_a_nul_byte_errors(self, tmp_path, column):
        # an S array would drop the NUL of "idA\0" silently, as ingest guards against
        schema = Schema((("id", ColumnRole.ROW_ID), ("c", ColumnRole.CATEGORICAL)))
        table = Table.from_columns(
            schema, {"id": ["idAA", "idBB"], "c": [1, 2]},
            {"c": [MISSING_TOKEN, "tokA", "tokB"]},
        )
        dest = tmp_path / "t.rlt"
        save_binary(table, dest)
        good = b"idAAidBB" if column == "id" else b"tokAtokB"
        blob = dest.read_bytes()
        assert blob.count(good) == 1
        dest.write_bytes(blob.replace(good, good[:3] + b"\0" + good[4:]))
        with pytest.raises(TabularError, match=f"string block in column '{column}'.* NUL byte"):
            load_binary(dest)

    def test_saving_an_id_with_a_nul_byte_errors(self, tmp_path):
        schema = Schema((("id", ColumnRole.ROW_ID),))
        table = Table.from_columns(schema, {"id": ["a\0b", "c"]})
        with pytest.raises(TabularError, match="NUL byte in a string of column 'id'"):
            save_binary(table, tmp_path / "t.rlt")

    @pytest.mark.parametrize("offsets", [(0, 5, 2, 6), (1, 2, 5, 6), (0, 2, 2, 1, 6)])
    def test_corrupt_id_offsets_error(self, tmp_path, offsets):
        # "ab", "cde", "f"; (0, 5, 2, 6) once decoded as "abcde", "", "cdef"
        # and a first offset of 1 dropped a byte
        schema = Schema((("id", ColumnRole.ROW_ID),))
        table = Table.from_columns(schema, {"id": ["ab", "cde", "f"] + [""] * (len(offsets) - 4)})
        dest = tmp_path / "t.rlt"
        save_binary(table, dest)
        good = _pack_strings(table.col("id"), "column 'id'")
        bad = good[:8] + np.array(offsets, dtype="<u8").tobytes() + good[8 + 8 * len(offsets):]
        dest.write_bytes(dest.read_bytes().replace(good, bad))
        with pytest.raises(TabularError, match="string block in column 'id' has offsets"):
            load_binary(dest)

    def test_wrong_magic_errors(self, tmp_path):
        path = tmp_path / "bad.rlt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(TabularError, match="magic"):
            load_binary(path)

    def test_truncated_file_errors(self, tmp_path, small_schema):
        path = write(tmp_path, "t.tsv", "r1\t45\ta\t1.0\t0\n")
        table = ingest_csv(path, small_schema)
        dest = tmp_path / "t.rlt"
        save_binary(table, dest)
        blob = dest.read_bytes()
        dest.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(TabularError, match="truncated"):
            load_binary(dest)

    @staticmethod
    def _four_row_cache(tmp_path):
        schema = Schema((
            ("day", ColumnRole.DAY),
            ("x", ColumnRole.CONTINUOUS),
            ("y", ColumnRole.LABEL_INSTALL),
        ))
        table = Table.from_columns(schema, {
            "day": [45, 45, 46, 46],
            "x": [0.5, np.nan, 1.5, 2.5],
            "y": np.array([0, 1, 0, 1], dtype=np.uint8),
        })
        dest = tmp_path / "t.rlt"
        save_binary(table, dest)
        return dest, dest.read_bytes()

    def test_header_claiming_fewer_rows_errors(self, tmp_path):
        dest, blob = self._four_row_cache(tmp_path)
        dest.write_bytes(blob.replace(b'"n_rows": 4', b'"n_rows": 2'))
        with pytest.raises(TabularError, match="header's 2 rows"):
            load_binary(dest)

    @pytest.mark.parametrize("edit, match", [
        (lambda h: [h], "no schema object"),
        (lambda h: 4, "no schema object"),
        (lambda h: {"n_rows": h["n_rows"]}, "no schema object"),
        (lambda h: {**h, "schema": ["day", "x", "y"]}, "no schema object"),
        (lambda h: {"schema": h["schema"]}, "n_rows None"),
        (lambda h: {**h, "n_rows": "4"}, "n_rows '4'"),
        (lambda h: {**h, "n_rows": 4.0}, "n_rows 4.0"),
        (lambda h: {**h, "n_rows": True}, "n_rows True"),
        (lambda h: {**h, "n_rows": -1}, "n_rows -1"),
    ])
    def test_malformed_header_errors(self, tmp_path, edit, match):
        dest, blob = self._four_row_cache(tmp_path)
        dest.write_bytes(with_header(blob, edit))
        with pytest.raises(TabularError, match=match):
            load_binary(dest)

    @pytest.mark.parametrize("doc, match", MALFORMED_SCHEMAS)
    def test_malformed_header_schema_errors(self, tmp_path, doc, match):
        dest, blob = self._four_row_cache(tmp_path)
        dest.write_bytes(with_header(blob, lambda h: {**h, "schema": doc}))
        with pytest.raises(TabularError, match=match):
            load_binary(dest)

    def test_label_byte_outside_01_errors(self, tmp_path):
        dest, blob = self._four_row_cache(tmp_path)
        dest.write_bytes(blob[:-1] + bytes([7]))  # the label column is last
        with pytest.raises(TabularError, match="outside"):
            load_binary(dest)

    def test_trailing_bytes_error(self, tmp_path):
        dest, blob = self._four_row_cache(tmp_path)
        dest.write_bytes(blob + b"\x00")
        with pytest.raises(TabularError, match="trailing"):
            load_binary(dest)

    def test_corrupt_length_prefix_errors_before_reading(self, tmp_path):
        dest, blob = self._four_row_cache(tmp_path)
        (hlen,) = struct.unpack_from("<Q", blob, 8)
        first = 16 + hlen  # the first column's length prefix
        dest.write_bytes(blob[:first] + struct.pack("<Q", 2**62) + blob[first + 8:])
        with pytest.raises(TabularError, match="truncated"):
            load_binary(dest)

    def test_large_round_trip_checksums(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(3))
        n = 100_000
        x = rng.standard_normal(n)
        x[rng.random(n) < 0.05] = np.nan
        codes = rng.integers(1, 50, size=n).astype(np.int32)
        schema = Schema(
            (
                ("id", ColumnRole.ROW_ID),
                ("day", ColumnRole.DAY),
                ("c", ColumnRole.CATEGORICAL),
                ("x", ColumnRole.CONTINUOUS),
                ("y", ColumnRole.LABEL_INSTALL),
            )
        )
        table = Table.from_columns(
            schema,
            {
                "id": [str(i) for i in range(n)],
                "day": rng.integers(45, 68, size=n),
                "c": codes,
                "x": x,
                "y": rng.integers(0, 2, size=n).astype(np.uint8),
            },
            {"c": (MISSING_TOKEN,) + tuple(f"t{i}" for i in range(1, 50))},
        )
        # checksum oracle computed pre-save
        want = {
            name: hashlib.sha256(table.col(name).tobytes()).hexdigest()
            for name in schema.names
        }
        dest = tmp_path / "big.rlt"
        save_binary(table, dest)
        again = load_binary(dest)
        for name in schema.names:
            got = hashlib.sha256(again.col(name).tobytes()).hexdigest()
            assert got == want[name], name

    def test_nan_payloads_are_canonicalized(self):
        weird = np.frombuffer(
            np.uint64(0xFFF8000000000123).tobytes(), dtype=np.float64
        )
        table = Table.from_columns(
            Schema((("x", ColumnRole.CONTINUOUS),)), {"x": weird.copy()}
        )
        canonical = np.array([np.nan]).tobytes()
        assert table.col("x").tobytes() == canonical


class TestColumnOps:
    def test_drop_columns(self, small_schema, tmp_path):
        path = write(tmp_path, "t.tsv", "r1\t45\ta\t1.0\t0\n")
        table = ingest_csv(path, small_schema)
        out = table.drop_columns({"x1"})
        assert out.schema.names == ("id", "f1", "c1", "y")
        assert out.n_rows == 1

    def test_binary_column_values_validated(self):
        schema = Schema((("b", ColumnRole.BINARY),))
        with pytest.raises(TabularError, match="outside"):
            Table.from_columns(schema, {"b": np.array([0.0, 2.0])})
        table = Table.from_columns(schema, {"b": np.array([0.0, 1.0, np.nan])})
        assert table.n_rows == 3

    @pytest.mark.parametrize("role, values, match", [
        (ColumnRole.CONTINUOUS, [1.0, 2.0], "length mismatch"),
        (ColumnRole.BINARY, [0.0, 2.0, 1.0], "outside"),
        (ColumnRole.LABEL_INSTALL, [0, 7, 1], "outside"),
    ])
    def test_appended_column_is_checked_like_from_columns(self, role, values, match):
        table = Table.from_columns(Schema((("x", ColumnRole.CONTINUOUS),)),
                                   {"x": [0.5, np.nan, 1.5]})
        with pytest.raises(TabularError, match=match):
            table.append_columns([("new", role, np.asarray(values))])


@pytest.mark.parametrize("role, values, match", [
    (ColumnRole.DAY, [45, 2**32 + 45], "day column 'v' holds values outside 0..2147483647"),
    (ColumnRole.DAY, [-1], "day column 'v' holds values outside"),
    (ColumnRole.DAY, np.array([2**31], dtype=np.float32), "day column 'v' holds values outside"),
    (ColumnRole.DAY, [45.5], "day column 'v' holds values that are not integers"),
    (ColumnRole.LABEL_INSTALL, [256], "label_install column 'v' holds values outside 0..1"),
    (ColumnRole.LABEL_CLICK, [0.6], "label_click column 'v' holds values that are not integers"),
    (ColumnRole.LABEL_CLICK, [np.nan], "label_click column 'v' holds values that are not integers"),
    (ColumnRole.CATEGORICAL, [2**32 + 1], "categorical column 'v' holds values outside 0..2"),
    (ColumnRole.CATEGORICAL, [1.7], "categorical column 'v' holds values that are not integers"),
    (ColumnRole.CATEGORICAL, ["1"], "categorical column 'v' holds <U1 values, not integers"),
    (ColumnRole.CATEGORICAL, [2**70], "categorical column 'v' holds object values, not integers"),
])
def test_integer_column_values_it_cannot_hold_error(role, values, match):
    # each of these once became another integer: 2**32 + 45 -> 45, 0.6 -> 0
    dicts = {"v": (MISSING_TOKEN, "a", "b")} if role is ColumnRole.CATEGORICAL else None
    with pytest.raises(TabularError, match=match):
        Table.from_columns(Schema((("v", role),)), {"v": values}, dicts)


#: a dictionary of each code width's largest size, and one entry past it
_DICTIONARIES = {n: dictionary_of(n) for n in (3, 256, 257, 65536, 65537)}


@settings(max_examples=300, deadline=None)
@given(role=st.sampled_from([ColumnRole.DAY, ColumnRole.LABEL_INSTALL, ColumnRole.CATEGORICAL]),
       n_codes=st.sampled_from(sorted(_DICTIONARIES)),
       values=st.one_of(
           arrays(st.one_of(integer_dtypes(), floating_dtypes()), st.integers(0, 8)),
           st.lists(st.one_of(st.integers(-(2**66), 2**66), st.floats()), max_size=8)))
def test_integer_columns_hold_exactly_the_integers_given(role, n_codes, values):
    top = {ColumnRole.DAY: 2**31 - 1, ColumnRole.LABEL_INSTALL: 1}.get(role, n_codes - 1)
    dicts = {"v": _DICTIONARIES[n_codes]} if role is ColumnRole.CATEGORICAL else None
    given = np.asarray(values).tolist()
    fits = all((isinstance(v, int) or isinstance(v, float) and v.is_integer()) and 0 <= v <= top
               for v in given)
    try:
        table = Table.from_columns(Schema((("v", role),)), {"v": values}, dicts)
    except TabularError:
        assert not fits  # rejected only when some value is no integer in 0..top
        return
    assert fits and table.col("v").tolist() == [int(v) for v in given]


class TestNarrowCodes:
    @pytest.mark.parametrize("n_codes, dtype", [
        (3, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16), (65537, np.int32),
    ])
    def test_dictionary_size_sets_the_code_dtype(self, n_codes, dtype):
        assert code_dtype(n_codes) == dtype
        codes = np.array([0, 1, n_codes - 1, 1], dtype=np.int64)
        table = Table.from_columns(Schema((("c", ColumnRole.CATEGORICAL),)), {"c": codes},
                                   {"c": _DICTIONARIES[n_codes]})
        assert table.col("c").dtype == dtype
        assert table.col("c").tolist() == codes.tolist()
        assert table.take(np.array([2, 0])).col("c").dtype == dtype

    def test_narrow_codes_pass_through_uncopied(self):
        codes = np.array([0, 2, 1], dtype=np.uint8)
        table = Table.from_columns(Schema((("c", ColumnRole.CATEGORICAL),)), {"c": codes},
                                   {"c": _DICTIONARIES[3]})
        assert np.shares_memory(table.col("c"), codes)

    @pytest.mark.parametrize("n_codes", [3, 256, 257, 65536, 65537])
    def test_cache_holds_int32_codes_at_every_width(self, tmp_path, n_codes):
        schema = Schema((("c", ColumnRole.CATEGORICAL), ("y", ColumnRole.LABEL_INSTALL)))
        codes = np.array([n_codes - 1, 0, 1, n_codes - 1], dtype=np.int64)
        table = Table.from_columns(schema, {"c": codes, "y": [0, 1, 1, 0]},
                                   {"c": _DICTIONARIES[n_codes]})
        dest = tmp_path / "t.rlt"
        save_binary(table, dest)
        header = json.dumps({"version": 1, "schema": schema.to_json(), "n_rows": 4}).encode()
        codes_block = codes.astype("<i4").tobytes() + _pack_strings(
            list(_DICTIONARIES[n_codes]), "the dictionary")
        want = (b"RLT1" + struct.pack("<IQ", 1, len(header)) + header
                + struct.pack("<Q", len(codes_block)) + codes_block
                + struct.pack("<Q", 4) + bytes([0, 1, 1, 0]))
        assert dest.read_bytes() == want
        again = load_binary(dest)
        assert again.equals(table) and again.col("c").dtype == code_dtype(n_codes)

    @pytest.mark.parametrize("code", [-1, 256, 2**31 - 1])
    def test_cache_code_past_a_narrow_dictionary_errors(self, tmp_path, code):
        # a uint8 column would hold 256 as 0 and -1 as 255
        schema = Schema((("c", ColumnRole.CATEGORICAL),))
        table = Table.from_columns(schema, {"c": [1, 255]}, {"c": _DICTIONARIES[256]})
        dest = tmp_path / "t.rlt"
        save_binary(table, dest)
        blob = dest.read_bytes()
        at = blob.index(np.array([1, 255], dtype="<i4").tobytes())
        dest.write_bytes(blob[:at + 4] + np.int32(code).astype("<i4").tobytes() + blob[at + 8:])
        match = "categorical column 'c' holds values outside 0..255"
        with pytest.raises(TabularError, match=match):
            load_binary(dest)

    def test_load_makes_no_full_length_int32_codes(self, tmp_path):
        n = 200_000
        rng = np.random.Generator(np.random.PCG64(7))
        schema = Schema((("c", ColumnRole.CATEGORICAL),))
        table = Table.from_columns(schema, {"c": rng.integers(0, 300, n)},
                                   {"c": _DICTIONARIES[65536][:300]})
        dest = tmp_path / "t.rlt"
        save_binary(table, dest)
        tracemalloc.start()
        try:
            again = load_binary(dest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert again.equals(table) and again.col("c").dtype == np.uint16
        # the uint16 column is n*2 bytes; an int32 copy of the codes alone is n*4
        assert peak < n * 2 + n * 4 / 2
