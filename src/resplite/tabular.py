"""Columnar dataset core: schema, typed column storage, CSV ingestion,
binary persistence, and day-based temporal splitting.

Tables are immutable after construction. Categorical columns are stored as
codes plus a per-column dictionary (a tuple of ``str``) whose code 0 is
always the reserved missing token ``__MISSING__``; the codes are held in the
narrowest of uint8, uint16 and int32 that holds ``len(dictionary) - 1``, and
the ``.rlt`` cache writes them as int32 at any width.  Continuous and binary
columns are float64 with NaN for missing; labels are uint8 {0,1} with missing
disallowed; the day column is int32.  Integer columns take only integers
their dtype and role can hold: anything else raises, never wraps.  Row ids
are held as their UTF-8 bytes, a fixed-width ``S`` array as wide as the
longest id, from ingest, from :meth:`Table.from_columns` and from
:func:`load_binary` alike; consumers read those bytes as they are.  An
``S`` array cannot hold a trailing NUL byte, so ids and category tokens
holding NUL are rejected wherever they enter.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice, repeat
from pathlib import Path

import numpy as np

MISSING_TOKEN = "__MISSING__"

#: magic bytes of the binary table cache format
BINARY_MAGIC = b"RLT1"
BINARY_VERSION = 1


class TabularError(ValueError):
    """Raised for malformed schemas, files, or split plans."""


class ColumnRole(Enum):
    ROW_ID = "row_id"
    DAY = "day"
    CATEGORICAL = "categorical"
    CONTINUOUS = "continuous"
    BINARY = "binary"
    LABEL_CLICK = "label_click"
    LABEL_INSTALL = "label_install"


#: roles that are model-feature candidates (everything except ids, day, labels)
FEATURE_ROLES = frozenset(
    {ColumnRole.CATEGORICAL, ColumnRole.CONTINUOUS, ColumnRole.BINARY}
)

_UNIQUE_ROLES = (
    ColumnRole.ROW_ID,
    ColumnRole.DAY,
    ColumnRole.LABEL_CLICK,
    ColumnRole.LABEL_INSTALL,
)


@dataclass(frozen=True)
class Schema:
    """Ordered column layout of a delimited file.

    ``columns`` is the on-disk column order and is preserved through
    persistence round-trips.  ``delimiter`` defaults to tab; ``has_header``
    skips one leading line on ingest.
    """

    columns: tuple[tuple[str, ColumnRole], ...]
    delimiter: str = "\t"
    has_header: bool = False

    def __post_init__(self) -> None:
        names = [name for name, _ in self.columns]
        if len(set(names)) != len(names):
            raise TabularError("schema column names must be unique")
        if len(self.delimiter) != 1:
            raise TabularError("delimiter must be a single character")
        for role in _UNIQUE_ROLES:
            if len(self.names_of(role)) > 1:
                raise TabularError(f"schema may declare at most one {role.value} column")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)

    def role(self, name: str) -> ColumnRole:
        for col, role in self.columns:
            if col == name:
                return role
        raise KeyError(name)

    def names_of(self, role: ColumnRole) -> tuple[str, ...]:
        return tuple(name for name, r in self.columns if r is role)

    def _single(self, role: ColumnRole) -> str | None:
        return next(iter(self.names_of(role)), None)

    @property
    def day_column(self) -> str | None:
        return self._single(ColumnRole.DAY)

    @property
    def row_id_column(self) -> str | None:
        return self._single(ColumnRole.ROW_ID)

    @property
    def click_column(self) -> str | None:
        return self._single(ColumnRole.LABEL_CLICK)

    @property
    def install_column(self) -> str | None:
        return self._single(ColumnRole.LABEL_INSTALL)

    def feature_columns(self) -> tuple[str, ...]:
        return tuple(name for name, r in self.columns if r in FEATURE_ROLES)

    def require_day(self) -> str:
        name = self.day_column
        if name is None:
            raise TabularError("schema has no day column")
        return name

    def require_install(self) -> str:
        name = self.install_column
        if name is None:
            raise TabularError("schema has no install label column")
        return name

    def to_json(self) -> dict:
        return {
            "delimiter": self.delimiter,
            "has_header": self.has_header,
            "columns": {name: role.value for name, role in self.columns},
        }

    @classmethod
    def from_json(cls, doc) -> "Schema":
        """Build a schema from a JSON-compatible mapping.

        Accepts either ``{"columns": {name: role, ...}, "delimiter": ...}``
        or a bare ``{name: role, ...}`` mapping (tab-delimited, no header).
        Anything else raises :class:`TabularError`.
        """
        if not isinstance(doc, dict):
            raise TabularError(f"a schema must be a JSON object, not {type(doc).__name__}")
        if "columns" in doc:
            cols = doc["columns"]
            delimiter = doc.get("delimiter", "\t")
            has_header = doc.get("has_header", False)
        else:
            cols, delimiter, has_header = doc, "\t", False
        if not isinstance(cols, dict) or not all(isinstance(n, str) for n in cols):
            raise TabularError("schema columns must be a JSON object mapping names to roles")
        if not isinstance(delimiter, str):
            raise TabularError(f"schema delimiter must be a string, not {delimiter!r}")
        if not isinstance(has_header, bool):
            raise TabularError(f"schema has_header must be true or false, not {has_header!r}")
        try:
            columns = tuple((name, ColumnRole(role)) for name, role in cols.items())
        except ValueError as exc:
            raise TabularError(f"unknown column role: {exc}") from None
        return cls(columns=columns, delimiter=delimiter, has_header=has_header)

    def drop(self, names: set[str]) -> "Schema":
        return Schema(
            columns=tuple((n, r) for n, r in self.columns if n not in names),
            delimiter=self.delimiter,
            has_header=self.has_header,
        )


def id_bytes(values) -> np.ndarray:
    """Row ids as a table holds them: an ``S`` array as it is, any other
    values as the UTF-8 bytes of their ``str``."""
    arr = np.asarray(values)
    if arr.dtype.kind == "S":
        return arr
    return np.array([str(v).encode() for v in arr.tolist()], dtype=np.bytes_)


def row_numbers(n: int) -> np.ndarray:
    """The row numbers ``0 .. n-1`` as id bytes, as wide as the longest,
    written digit by digit for each run of numbers of equal length."""
    width = len(str(max(n - 1, 0)))
    chars = np.zeros((n, width), dtype=np.uint8)  # a NUL pads a shorter number
    lo = 0
    for digits in range(1, width + 1):
        hi = min(n, 10**digits)
        numbers = np.arange(lo, hi)
        for j in range(digits):
            chars[lo:hi, digits - 1 - j] = 48 + numbers // 10**j % 10
        lo = hi
    return chars.view(f"S{width}").ravel()


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


#: the bit pattern of np.nan, the one NaN a stored column holds
_NAN_BITS = np.float64(np.nan).view(np.uint64)

#: the dtype of each role's column; categorical codes: see :func:`code_dtype`
_ROLE_DTYPES = {
    ColumnRole.CONTINUOUS: np.float64,
    ColumnRole.BINARY: np.float64,
    ColumnRole.DAY: np.int32,
    ColumnRole.LABEL_CLICK: np.uint8,
    ColumnRole.LABEL_INSTALL: np.uint8,
}
_INT32 = np.iinfo(np.int32)


def code_dtype(n_codes: int) -> np.dtype:
    """The dtype of a categorical column whose dictionary holds ``n_codes``
    entries: the narrowest of uint8, uint16 and int32 that holds
    ``n_codes - 1``."""
    for dtype in (np.uint8, np.uint16):
        if n_codes - 1 <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int32)


def _checked_integers(raw, lo: int, hi: int, dtype: np.dtype, what: str) -> np.ndarray:
    """``raw`` as a ``dtype`` array, after checking in the dtype it came in
    that every value is an integer in ``lo..hi`` (an integer array is cast
    once, or not at all); otherwise raises naming ``what``."""
    arr = np.asarray(raw)
    if arr.size:
        if arr.dtype.kind not in "biuf":
            raise TabularError(f"{what} holds {arr.dtype} values, not integers")
        if arr.dtype.kind == "f" and (arr != np.trunc(arr)).any():
            raise TabularError(f"{what} holds values that are not integers")
        # as Python numbers, which compare exactly: 2**31 - 1 is 2**31 as a float32
        if arr.min().item() < lo or arr.max().item() > hi:
            raise TabularError(f"{what} holds values outside {lo}..{hi}")
    return arr.astype(dtype, copy=False)


class Table:
    """Immutable column-major dataset with typed columns.

    Construct through :meth:`from_columns`, :func:`ingest_csv_group`, or
    :func:`load_binary`; all column arrays are frozen (non-writeable) and may
    be shared between derived tables.
    """

    __slots__ = ("schema", "n_rows", "_columns", "_dicts")

    def __init__(
        self,
        schema: Schema,
        n_rows: int,
        columns: dict[str, np.ndarray],
        dicts: dict[str, tuple[str, ...]],
    ):
        self.schema = schema
        self.n_rows = n_rows
        self._columns = columns
        self._dicts = dicts

    @classmethod
    def from_columns(
        cls,
        schema: Schema,
        columns: dict[str, np.ndarray | list],
        dicts: dict[str, tuple[str, ...] | list[str]] | None = None,
    ) -> "Table":
        """Validate, normalize dtypes, and freeze the given columns.

        Continuous/binary NaNs are rewritten to the canonical float64 NaN so
        that binary persistence round-trips bit-exactly.  Day, label and
        categorical values are checked before they are cast: one that is no
        integer, or that their role or dtype cannot hold, raises.  A
        categorical column gets the dtype :func:`code_dtype` gives its
        dictionary.
        """
        dicts = {k: tuple(v) for k, v in (dicts or {}).items()}
        if set(columns) != set(schema.names):
            raise TabularError("columns do not match schema names")
        n_rows = None
        out: dict[str, np.ndarray] = {}
        for name, role in schema.columns:
            raw = columns[name]
            if role is ColumnRole.ROW_ID:
                arr = id_bytes(raw)
            elif role in (ColumnRole.CONTINUOUS, ColumnRole.BINARY):
                arr = np.asarray(raw, dtype=np.float64)
            elif role is ColumnRole.CATEGORICAL:
                d = dicts.get(name)
                if d is None:
                    raise TabularError(f"categorical column {name!r} needs a dictionary")
                if not d or d[0] != MISSING_TOKEN:
                    raise TabularError(f"dictionary for {name!r} must start with {MISSING_TOKEN!r}")
                arr = _checked_integers(raw, 0, len(d) - 1, code_dtype(len(d)),
                                        f"categorical column {name!r}")
            else:
                hi = _INT32.max if role is ColumnRole.DAY else 1
                arr = _checked_integers(raw, 0, hi, _ROLE_DTYPES[role],
                                        f"{role.value} column {name!r}")
            if arr.ndim != 1:
                raise TabularError(f"column {name!r} must be one-dimensional")
            if n_rows is None:
                n_rows = len(arr)
            elif len(arr) != n_rows:
                raise TabularError(f"column {name!r} length mismatch")
            if role in (ColumnRole.CONTINUOUS, ColumnRole.BINARY):
                nan_mask = np.isnan(arr)
                # copied only when some NaN differs: derived tables share columns
                if (arr[nan_mask].view(np.uint64) != _NAN_BITS).any():
                    arr = arr.copy()
                    arr[nan_mask] = np.nan
            if role is ColumnRole.BINARY:
                finite = arr[~np.isnan(arr)]
                if finite.size and not np.isin(finite, (0.0, 1.0)).all():
                    raise TabularError(f"binary column {name!r} has values outside {{0,1}}")
            out[name] = _freeze(arr)
        return cls(schema, n_rows or 0, out, dicts)

    def col(self, name: str) -> np.ndarray:
        return self._columns[name]

    def dictionary(self, name: str) -> tuple[str, ...]:
        return self._dicts[name]

    @property
    def day_values(self) -> np.ndarray:
        return self._columns[self.schema.require_day()]

    def take(self, indices: np.ndarray) -> "Table":
        """Row subset in the given index order (shares nothing, copies rows)."""
        cols = {name: _freeze(self._columns[name][indices]) for name in self.schema.names}
        return Table(self.schema, len(indices), cols, dict(self._dicts))

    def drop_columns(self, names: set[str]) -> "Table":
        keep_schema = self.schema.drop(names)
        cols = {n: self._columns[n] for n in keep_schema.names}
        dicts = {n: d for n, d in self._dicts.items() if n not in names}
        return Table(keep_schema, self.n_rows, cols, dicts)

    def replace_column(
        self,
        name: str,
        role: ColumnRole,
        values: np.ndarray,
        dictionary: tuple[str, ...] | None = None,
    ) -> "Table":
        """New table with one column's role and values swapped in place,
        checked as :meth:`from_columns` checks every column."""
        columns = tuple((n, role if n == name else r) for n, r in self.schema.columns)
        dicts = {k: v for k, v in self._dicts.items() if k != name}
        if dictionary is not None:
            dicts[name] = dictionary
        return Table.from_columns(
            Schema(columns, self.schema.delimiter, self.schema.has_header),
            {**self._columns, name: values},
            dicts,
        )

    def append_columns(
        self, new: list[tuple[str, ColumnRole, np.ndarray]]
    ) -> "Table":
        """New table with extra (non-categorical) columns appended, checked as
        :meth:`from_columns` checks every column."""
        columns = tuple(self.schema.columns) + tuple((n, r) for n, r, _ in new)
        return Table.from_columns(
            Schema(columns, self.schema.delimiter, self.schema.has_header),
            {**self._columns, **{n: arr for n, _, arr in new}},
            self._dicts,
        )

    def equals(self, other: "Table") -> bool:
        """Structural equality: schema, dictionaries, and bit-exact columns."""
        if self.schema != other.schema or self.n_rows != other.n_rows:
            return False
        if self._dicts != other._dicts:
            return False
        for name, role in self.schema.columns:
            a, b = self._columns[name], other._columns[name]
            # ids of the same bytes are equal at any fixed width
            if a.dtype != b.dtype and not a.dtype.kind == b.dtype.kind == "S":
                return False
            if a.dtype == np.float64:
                if a.tobytes() != b.tobytes():
                    return False
            elif not np.array_equal(a, b):
                return False
        return True


@dataclass(frozen=True)
class SplitPlan:
    """Temporal split: train on a set of days, validate on one later day.
    Empty ``train_days`` stand for every day before the valid day."""

    train_days: frozenset[int]
    valid_day: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "train_days", frozenset(self.train_days))
        if any(d >= self.valid_day for d in self.train_days):
            raise TabularError("all train days must precede valid_day")

    def resolve(self, days: np.ndarray) -> SplitPlan:
        """The plan over a table's ``days``: raises when the valid day has
        no rows, and lists the train days when the plan leaves them empty."""
        if not (days == self.valid_day).any():
            raise TabularError(f"valid_day {self.valid_day} selects zero rows")
        if self.train_days:
            return self
        before = np.unique(days[days < self.valid_day])
        return SplitPlan(frozenset(int(d) for d in before), self.valid_day)


def split_rows(table: Table, plan: SplitPlan) -> tuple[np.ndarray, np.ndarray]:
    """Ascending indices of the train rows and of the valid rows per the
    resolved plan (see :meth:`SplitPlan.resolve`).  Rows whose day is not
    covered by the plan are in neither."""
    days = table.day_values
    plan = plan.resolve(days)
    train = np.flatnonzero(np.isin(days, sorted(plan.train_days)))
    return train, np.flatnonzero(days == plan.valid_day)


# ---------------------------------------------------------------------------
# CSV ingestion

#: lines parsed at a time; bounds the token lists held while parsing
_BLOCK_LINES = 2048


def first_occurrence_codes(values: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Code one categorical column in first-occurrence order.

    ``values`` holds the column's raw tokens: UTF-8 bytes (an ``S`` array),
    where the empty token and ``MISSING_TOKEN`` are missing, or integers,
    each named by its decimal string.  Missing values get code 0 and the
    k-th distinct other value seen gets code k.  Returns the int32 codes and
    the dictionary ``[MISSING_TOKEN, first value, second value, ...]`` of
    ``str``.  Integers spanning no more values than there are rows are coded
    without a sort: each value's first row is counted directly.
    """
    n = len(values)
    low = int(values.min()) if values.dtype.kind in "iu" and n else None
    if low is not None and int(values.max()) - low < n:
        # exact in the unsigned type of the same width, as the span fits it
        inverse = (values - values.dtype.type(low)).view(f"u{values.itemsize}")
        first = np.full(int(inverse.max()) + 1, n, dtype=np.intp)
        np.minimum.at(first, inverse, np.arange(n))
        seen = np.flatnonzero(first < n)
        order = seen[np.argsort(first[seen])]
        tokens = [str(v + low) for v in order.tolist()]
    else:
        uniques, first, inverse = np.unique(values, return_index=True, return_inverse=True)
        names = uniques.astype(np.bytes_, copy=False)
        present = np.flatnonzero((names != b"") & (names != MISSING_TOKEN.encode()))
        order = present[np.argsort(first[present])]
        tokens = [t.decode() for t in names[order].tolist()]
    rank = np.zeros(len(first), dtype=np.int32)
    rank[order] = np.arange(1, len(order) + 1, dtype=np.int32)
    return rank[inverse.ravel()], [MISSING_TOKEN] + tokens


def _parse_column(role: ColumnRole, tokens: list[str], text: str) -> np.ndarray | None:
    """One block column of ``tokens`` as ``role``'s values (ids and
    categories as their UTF-8 bytes), or None when some token is not valid.
    ``text`` is the block's text that the tokens were split from."""
    try:
        if role in (ColumnRole.ROW_ID, ColumnRole.CATEGORICAL):
            # numpy bytes drop trailing NULs: "r1\0" would become b"r1"
            if "\0" in text and any("\0" in t for t in tokens):
                return None
            # numpy encodes ASCII strings itself
            utf8 = tokens if text.isascii() else list(map(str.encode, tokens))
            return np.array(utf8, dtype=np.bytes_)
        if role in (ColumnRole.CONTINUOUS, ColumnRole.BINARY):
            # numpy converts each str by float()'s own rules; empty is missing
            return np.array([t or "nan" for t in tokens], dtype=np.float64)
        if role is ColumnRole.DAY:
            days = np.fromiter(map(int, tokens), np.int64, len(tokens))
            valid = ((days >= _INT32.min) & (days <= _INT32.max)).all()
            return days.astype(np.int32) if valid else None
        labels = np.fromiter(map(float, tokens), np.float64, len(tokens))
        # a label is read as int(float(token)), which must be 0 or 1
        return labels.astype(np.uint8) if ((labels > -1) & (labels < 2)).all() else None
    except (ValueError, OverflowError):
        return None


def _token_error(role: ColumnRole, name: str, token: str) -> str | None:
    """Why ``token`` is not a valid value of the ``role`` column ``name``,
    or None when it is; :func:`_parse_column` one token at a time."""
    if role in (ColumnRole.ROW_ID, ColumnRole.CATEGORICAL):
        return f"NUL character in {role.value} column {name!r}" if "\0" in token else None
    label = role in (ColumnRole.LABEL_CLICK, ColumnRole.LABEL_INSTALL)
    if label and token == "":
        return f"missing label value in column {name!r}"
    try:
        value = int(token) if role is ColumnRole.DAY else float(token or "nan")
    except ValueError:
        value = None
    if value is None or (label and math.isnan(value)):
        kind = "day " if role is ColumnRole.DAY else "label " if label else ""
        return f"non-numeric value {token!r} in {kind}column {name!r}"
    if role is ColumnRole.DAY and not _INT32.min <= value <= _INT32.max:
        return f"day value {token!r} outside the int32 range in day column {name!r}"
    if label and not -1 < value < 2:
        return f"label value {token!r} outside {{0,1}} in column {name!r}"
    return None


def _read_columns(path: Path, schema: Schema) -> list[np.ndarray]:
    """Every column of one delimited file, in schema order, parsed in blocks
    of ``_BLOCK_LINES`` lines.  A bad line raises with its 1-based number."""
    delim, n_cols = schema.delimiter, len(schema.columns)
    parts: list[list[np.ndarray]] = [[] for _ in range(n_cols)]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if schema.has_header:
            fh.readline()
        line_no = 1 + schema.has_header  # of the block's first line
        while lines := [line.rstrip("\r\n") for line in islice(fh, _BLOCK_LINES)]:
            counts = np.fromiter(map(str.count, lines, repeat(delim)), np.int64, len(lines))
            errors = [(int(row), n_cols, f"expected {n_cols} fields, got {counts[row] + 1}")
                      for row in np.flatnonzero(counts != n_cols - 1)[:1]]
            # the lines before a miscounted one report their own errors first
            good = lines[: errors[0][0]] if errors else lines
            text = delim.join(good)
            fields = text.split(delim) if good else []
            for i, (name, role) in enumerate(schema.columns):
                tokens = fields[i::n_cols]
                values = _parse_column(role, tokens, text)
                if values is None:
                    reasons = (_token_error(role, name, t) for t in tokens)
                    errors.append(next((r, i, why) for r, why in enumerate(reasons) if why))
                parts[i].append(values)
            if errors:
                row, _, why = min(errors)
                raise TabularError(f"{path.name}: line {line_no + row}: {why}")
            line_no += len(lines)
    # a file with no rows yields bytes columns; from_columns casts them
    return [np.concatenate(p or [np.empty(0, np.bytes_)]) for p in parts]


def ingest_csv_group(paths: list[str | Path], schema: Schema) -> list[Table]:
    """Parse several files that share categorical dictionaries.

    Each categorical column is coded by :func:`first_occurrence_codes` over
    all files (in path order, rows in file order), so every returned table
    carries the same final dictionaries.  Empty continuous fields and the
    literal token ``NaN`` become missing.  A malformed row raises with its
    1-based line number.
    """
    if not paths:
        raise TabularError("ingest_csv_group needs at least one path")
    files = [_read_columns(Path(p), schema) for p in paths]
    dicts: dict[str, list[str]] = {}
    for i, (name, role) in enumerate(schema.columns):
        if role is ColumnRole.CATEGORICAL:
            tokens = [columns[i] for columns in files]
            codes, dicts[name] = first_occurrence_codes(np.concatenate(tokens))
            ends = np.cumsum([len(t) for t in tokens])
            for columns, part in zip(files, np.split(codes, ends[:-1])):
                columns[i] = part
    return [
        Table.from_columns(schema, dict(zip(schema.names, columns)), dicts)
        for columns in files
    ]


# ---------------------------------------------------------------------------
# Binary persistence ("RLT1": magic, little-endian, length-prefixed blocks)


def _pack_strings(values: np.ndarray | list[str], what: str) -> bytes:
    """A string block: the count, the ascending byte offsets, then the bytes
    of every string: an ``S`` array's as they are, a list's strings in
    UTF-8.  A NUL byte raises naming ``what``, as no block holding one loads
    (see :func:`_unpack_strings`)."""
    if isinstance(values, np.ndarray):
        lengths = np.strings.str_len(values)
        width = values.dtype.itemsize
        chars = np.ascontiguousarray(values).view(np.uint8).reshape(len(values), width)
        blob = chars[np.arange(width) < lengths[:, None]].tobytes()  # drop the NUL pad
    else:
        blobs = [s.encode() for s in values]
        lengths, blob = [len(b) for b in blobs], b"".join(blobs)
    if b"\0" in blob:
        raise TabularError(f"NUL byte in a string of {what}")
    offsets = np.zeros(len(lengths) + 1, dtype="<u8")
    np.cumsum(lengths, out=offsets[1:])
    return struct.pack("<Q", len(lengths)) + offsets.tobytes() + blob


def _unpack_strings(buf: bytes, what: str) -> np.ndarray:
    """Inverse of :func:`_pack_strings`; ``buf`` must hold exactly one block.

    The strings become a fixed-width ``S`` array, as wide as the longest,
    gathered one byte position at a time.  Offsets that do not ascend from 0
    to the end of the block, a string that is not UTF-8 (or an offset that
    splits a character), or a NUL byte, which the array would drop, raise
    naming ``what``.
    """
    (count,) = struct.unpack_from("<Q", buf, 0) if len(buf) >= 8 else (-1,)
    base = 8 + 8 * (count + 1)
    if count < 0 or base > len(buf):
        raise TabularError(f"truncated string block in {what}")
    offsets = np.frombuffer(buf, dtype="<u8", count=count + 1, offset=8)
    if base + int(offsets[-1]) != len(buf):
        raise TabularError(f"string block in {what} does not end where its offsets say")
    if offsets[0] != 0 or (offsets[1:] < offsets[:-1]).any():
        raise TabularError(f"string block in {what} has offsets that do not ascend from 0")
    blob = buf[base:]
    if b"\0" in blob:
        raise TabularError(f"string block in {what} holds a NUL byte")
    data = np.frombuffer(blob + b"\0", dtype=np.uint8)  # the NUL pads short strings
    offsets = offsets.astype(np.intp)
    if not blob.isascii():
        try:
            blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TabularError(f"string block in {what} is not UTF-8: {exc.reason}") from None
        # valid as a whole, each string is unless it starts inside a character
        if ((data[offsets] & 0xC0) == 0x80).any():
            raise TabularError(f"string block in {what} is not UTF-8: an offset splits a character")
    starts, ends = offsets[:-1], offsets[1:]
    width = max(int((ends - starts).max(initial=0)), 1)
    chars = np.empty((count, width), dtype=np.uint8)
    at = np.empty(count, dtype=np.intp)
    for j in range(width):
        np.add(starts, j, out=at)
        at[at >= ends] = len(data) - 1
        chars[:, j] = data[at]
    return chars.view(f"S{width}").ravel()


#: a column's dtype in the cache file: its in-memory dtype, little-endian;
#: categorical codes of every width are written as int32
_ROLE_WIRE_DTYPES = {
    **{role: np.dtype(t).newbyteorder("<") for role, t in _ROLE_DTYPES.items()},
    ColumnRole.CATEGORICAL: np.dtype("<i4"),
}
#: values written to, and int32 codes read from, a cache at a time, so that
#: no full-length copy is held
_CODE_BLOCK = 1 << 15


def save_binary(table: Table, path: str | Path) -> None:
    """Write the table to the versioned little-endian cache format."""
    header = {
        "version": BINARY_VERSION,
        "schema": table.schema.to_json(),
        "n_rows": table.n_rows,
    }
    # no sort_keys: the schema's column mapping order is semantic
    header_bytes = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<I", BINARY_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for name, role in table.schema.columns:
            arr = table.col(name)
            if role is ColumnRole.ROW_ID:
                payload = _pack_strings(arr, f"column {name!r}")
                fh.write(struct.pack("<Q", len(payload)))
                fh.write(payload)
                continue
            wire = _ROLE_WIRE_DTYPES[role]
            tail = b""
            if role is ColumnRole.CATEGORICAL:
                tail = _pack_strings(table.dictionary(name), f"column {name!r} dictionary")
            fh.write(struct.pack("<Q", len(arr) * wire.itemsize + len(tail)))
            # a block at a time, so that no full-length int32 copy of codes is held
            for at in range(0, len(arr), _CODE_BLOCK):
                fh.write(np.ascontiguousarray(arr[at : at + _CODE_BLOCK], dtype=wire))
            fh.write(tail)


def _check_left(fh, n: int, what: str) -> None:
    # checked before reading, so a corrupt length never sizes a buffer
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise TabularError(f"truncated table file while reading {what}")


def _read_exact(fh, n: int, what: str) -> bytes:
    _check_left(fh, n, what)
    return fh.read(n)


def _read_codes(fh, n_rows: int, n_codes: int, what: str) -> np.ndarray:
    """The next ``n_rows`` int32 codes of ``fh`` as a :func:`code_dtype`
    array, read and range-checked ``_CODE_BLOCK`` codes at a time."""
    codes = np.empty(n_rows, dtype=code_dtype(n_codes))
    block = np.empty(min(n_rows, _CODE_BLOCK), dtype=_ROLE_WIRE_DTYPES[ColumnRole.CATEGORICAL])
    for at in range(0, n_rows, _CODE_BLOCK):
        part = block[: min(_CODE_BLOCK, n_rows - at)]
        fh.readinto(part)
        codes[at : at + len(part)] = _checked_integers(part, 0, n_codes - 1, codes.dtype, what)
    return codes


def load_binary(path: str | Path) -> Table:
    """Read a table written by :func:`save_binary`; round-trip is bit-exact."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != BINARY_MAGIC:
            raise TabularError(
                f"not a {BINARY_MAGIC.decode()} table file (magic {magic!r})"
            )
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != BINARY_VERSION:
            raise TabularError(f"unsupported table format version {version}")
        (hlen,) = struct.unpack("<Q", _read_exact(fh, 8, "header length"))
        try:
            header = json.loads(_read_exact(fh, hlen, "header"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TabularError(f"{path}'s header is not a JSON document: {exc}") from None
        if not isinstance(header, dict) or not isinstance(header.get("schema"), dict):
            raise TabularError("table file header holds no schema object")
        n_rows = header.get("n_rows")
        if type(n_rows) is not int or n_rows < 0:
            raise TabularError(f"table file header's n_rows {n_rows!r} is not a row count")
        schema = Schema.from_json(header["schema"])

        columns: dict[str, np.ndarray] = {}
        dicts: dict[str, tuple[str, ...]] = {}
        for name, role in schema.columns:
            what = f"column {name!r}"
            (plen,) = struct.unpack("<Q", _read_exact(fh, 8, what))
            _check_left(fh, plen, what)
            if role is ColumnRole.ROW_ID:
                columns[name] = _unpack_strings(fh.read(plen), what)
                if len(columns[name]) != n_rows:
                    raise TabularError(f"{what} holds {len(columns[name])} ids, not {n_rows}")
                continue
            wire = _ROLE_WIRE_DTYPES[role]
            arr_bytes = n_rows * wire.itemsize
            # only a categorical column has more: its dictionary block
            if plen < arr_bytes or (plen > arr_bytes and role is not ColumnRole.CATEGORICAL):
                raise TabularError(
                    f"{what} holds {plen} bytes, the header's {n_rows} rows need {arr_bytes}"
                )
            if role is not ColumnRole.CATEGORICAL:
                columns[name] = np.frombuffer(fh.read(plen), dtype=wire, count=n_rows)
                continue
            # the dictionary, which follows the codes, sizes and checks them
            codes_at = fh.tell()
            fh.seek(arr_bytes, os.SEEK_CUR)
            tokens = _unpack_strings(fh.read(plen - arr_bytes), f"{what} dictionary").tolist()
            dicts[name] = [t.decode() for t in tokens]
            fh.seek(codes_at)
            columns[name] = _read_codes(fh, n_rows, len(tokens), f"categorical {what}")
            fh.seek(codes_at + plen)
        if fh.read(1):
            raise TabularError("trailing bytes after the last column of the table file")
    return Table.from_columns(schema, columns, dicts)
