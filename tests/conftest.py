import json
import struct
from dataclasses import dataclass

import numpy as np
import pytest

from resplite.gbdt import GbdtModel, LeafNode, Node, bin_table, tree_output
from resplite.tabular import (
    MISSING_TOKEN, ColumnRole, Schema, SplitPlan, Table, ingest_csv_group, split_rows,
)


#: schema documents that are not schemas, and the error each one raises
MALFORMED_SCHEMAS = [
    ({"columns": 5}, "columns must be a JSON object mapping names to roles"),
    ({"columns": {"day": "day"}, "delimiter": 7}, "delimiter must be a string, not 7"),
    ({"columns": {"day": "day"}, "has_header": "no"}, "has_header must be true or false"),
]


@pytest.fixture
def small_schema():
    return Schema(
        (
            ("id", ColumnRole.ROW_ID),
            ("f1", ColumnRole.DAY),
            ("c1", ColumnRole.CATEGORICAL),
            ("x1", ColumnRole.CONTINUOUS),
            ("y", ColumnRole.LABEL_INSTALL),
        )
    )


def make_table(days, x, y, clicks=None, extra_cont=None):
    """Quick table builder: one continuous feature plus labels."""
    days = np.asarray(days)
    columns = {
        "day": days,
        "x0": np.asarray(x, dtype=np.float64),
        "y": np.asarray(y),
    }
    schema_cols = [("day", ColumnRole.DAY), ("x0", ColumnRole.CONTINUOUS)]
    if extra_cont is not None:
        for name, values in extra_cont.items():
            schema_cols.append((name, ColumnRole.CONTINUOUS))
            columns[name] = np.asarray(values, dtype=np.float64)
    if clicks is not None:
        schema_cols.append(("clk", ColumnRole.LABEL_CLICK))
        columns["clk"] = np.asarray(clicks)
    schema_cols.append(("y", ColumnRole.LABEL_INSTALL))
    return Table.from_columns(Schema(tuple(schema_cols)), columns)


def dictionary_of(n: int) -> tuple[str, ...]:
    """A categorical dictionary of ``n`` entries: the missing token, then
    ``t1``, ``t2``, ...; 256 and 65,536 entries are the largest that uint8
    and uint16 codes hold."""
    return (MISSING_TOKEN,) + tuple(f"t{i}" for i in range(1, n))


def make_cat_table(days, codes, dictionary, y, clicks=None):
    """Table with one categorical feature, day, and labels."""
    columns = {
        "day": np.asarray(days),
        "cat": np.asarray(codes, dtype=np.int32),
        "y": np.asarray(y),
    }
    schema_cols = [("day", ColumnRole.DAY), ("cat", ColumnRole.CATEGORICAL)]
    if clicks is not None:
        schema_cols.append(("clk", ColumnRole.LABEL_CLICK))
        columns["clk"] = np.asarray(clicks)
    schema_cols.append(("y", ColumnRole.LABEL_INSTALL))
    return Table.from_columns(
        Schema(tuple(schema_cols)), columns, {"cat": tuple(dictionary)}
    )


def with_header(blob: bytes, edit) -> bytes:
    """The ``.rlt`` cache ``blob`` with its JSON header replaced by
    ``edit(header)``."""
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.dumps(edit(json.loads(blob[16 : 16 + hlen]))).encode()
    return blob[:8] + struct.pack("<Q", len(header)) + header + blob[16 + hlen :]


@dataclass
class SplitResult:
    train: Table
    valid: Table


def split(table: Table, plan: SplitPlan) -> SplitResult:
    """The rows of :func:`split_rows` as tables, in row order."""
    train, valid = split_rows(table, plan)
    return SplitResult(train=table.take(train), valid=table.take(valid))


def ingest_csv(path, schema: Schema) -> Table:
    """Parse one delimited file into a Table (see :func:`ingest_csv_group`)."""
    return ingest_csv_group([path], schema)[0]


def predict_raw(model: GbdtModel, table: Table) -> np.ndarray:
    """Raw additive scores (log-odds), whose sigmoid ``predict`` returns:
    the base score plus each tree's leaf values, in tree order."""
    binned = bin_table(model.bin_mapper, table)
    scores = np.full(table.n_rows, model.base_score, dtype=np.float64)
    for root in model.trees:
        scores += tree_output(root, binned)
    return scores


def count_leaves(root: Node) -> int:
    if isinstance(root, LeafNode):
        return 1
    return count_leaves(root.left) + count_leaves(root.right)


def total_leaves(model: GbdtModel) -> int:
    return sum(count_leaves(root) for root in model.trees)
