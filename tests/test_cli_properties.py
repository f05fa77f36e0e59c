"""Property tests of the CLI writer: CSV written a block of rows at a time is
byte for byte the CSV of one line per row, and JSON output is unchanged."""

import io
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gapkit import cli
from gapkit.core import GoldenNum

SETTINGS = settings.get_profile("gapkit")

BLOCK = cli._BLOCK_ROWS
META = {"tool": "gapkit", "command": "test", "count": 3}
SPECIAL = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e16, -1e16,
           1e-5, 1e-4, 0.1, 123456789.0, float("inf"), float("-inf"), float("nan")]


def reference(meta, columns, fmt):
    """The writer as one generated line per row, each cell through the
    Fraction check."""
    def cells(column):
        if isinstance(column, np.ndarray):
            return map(repr, column.tolist())
        return (f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else str(v)
                for v in column)

    rows = zip(*map(cells, columns.values()))
    if fmt == "csv":
        head = [f"# {key}: {meta[key]}\n" for key in sorted(meta)]
        head.append(",".join(columns) + "\n")
        return "".join(itertools.chain(head, (",".join(row) + "\n" for row in rows)))
    payload = {"meta": {k: str(v) for k, v in sorted(meta.items())},
               "columns": list(columns), "rows": list(rows)}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def written(columns, fmt, path):
    """The writer's stdout text, after checking that --output ``path`` gets
    the same text."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdout", out)
        cli._write_output(META, columns, fmt, None)
    cli._write_output(META, columns, fmt, str(path))
    assert path.read_text(encoding="utf-8") == out.getvalue()
    return out.getvalue()


def columns_of(values):
    n = len(values)
    return {"index": range(n), "gap": np.array(values, dtype=float),
            "exact": [Fraction(k, 7) if k % 3 else k for k in range(n)],
            "golden": [GoldenNum(Fraction(k, 2), 1 - k) for k in range(n)]}


@SETTINGS
@given(st.lists(st.floats(width=64) | st.sampled_from(SPECIAL), max_size=60),
       st.sampled_from(["csv", "json"]))
@example(SPECIAL, "csv")
@example([], "csv")
@example([], "json")
def test_writer_matches_one_line_per_row(tmp_path_factory, values, fmt):
    columns = columns_of(values)
    path = tmp_path_factory.mktemp("out") / ("out." + fmt)
    assert written(columns, fmt, path) == reference(META, columns, fmt)


@pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_block_edges(rows, fmt, tmp_path):
    # random bit patterns: every sign, exponent (subnormals too), nan and inf
    bits = np.random.default_rng(rows).integers(0, 2 ** 64, rows, dtype=np.uint64)
    values = bits.view(np.float64).copy()
    values[:len(SPECIAL)] = SPECIAL[:rows]
    columns = columns_of(values)
    out = written(columns, fmt, tmp_path / ("out." + fmt))
    assert out == reference(META, columns, fmt)
    if fmt == "csv":
        assert out.count("\n") == len(META) + 1 + rows
