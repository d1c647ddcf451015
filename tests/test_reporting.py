"""CSV tables and manifests: the bytes they write and the memory they take."""

import numpy as np
import pytest

from fowler.config import ConfigError
from fowler.reporting import ROWS_PER_BLOCK, CsvTable, RunManifest, format_float

from conftest import traced_peak


def _one_pass_text(columns) -> str:
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return "".join(",".join(map(format_float, row)) + "\n" for row in rows)


@pytest.mark.parametrize("rows", [0, 1, ROWS_PER_BLOCK, ROWS_PER_BLOCK + 1, 3 * ROWS_PER_BLOCK - 7])
def test_csv_rows_in_blocks_are_the_one_pass_text(tmp_path, rows):
    # blocks of ROWS_PER_BLOCK rows, the last one partial: the same bytes as
    # formatting every value with format_float in one pass
    rng = np.random.default_rng(rows)
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows),
               list(range(rows)), np.full(rows, np.nan), np.full(rows, -np.inf)]
    header = ["a", "b", "c", "d"]
    path = CsvTable(header, columns).write(tmp_path / "t.csv")
    assert path.read_text() == "a,b,c,d\n" + _one_pass_text(columns)


@pytest.mark.parametrize("columns", [[[1.0, 2.0]], [[1.0, 2.0], [1.0]], [[1.0], [[1.0]]]],
                         ids=["too-few", "ragged", "two-dimensional"])
def test_csv_columns_that_do_not_make_a_table_are_refused(tmp_path, columns):
    with pytest.raises(ValueError, match="columns"):
        CsvTable(["a", "b"], columns).write(tmp_path / "t.csv")
    assert not (tmp_path / "t.csv").exists()


def test_csv_write_memory_is_a_block_of_rows(tmp_path):
    # 8192 x 5 floats take 320 KiB as an array and about 2 MiB as rows of
    # Python floats and text; written ROWS_PER_BLOCK rows at a time, the
    # table is never held whole
    rng = np.random.default_rng(0)
    table = CsvTable(list("abcde"), [rng.standard_normal(8192) for _ in range(5)])
    table.write(tmp_path / "warm.csv")
    assert traced_peak(table.write, tmp_path / "t.csv") <= 0.75 * 2**20
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()


def test_unwritable_output_is_a_config_error(tmp_path):
    manifest = RunManifest()
    manifest.add("a", 1.5)
    for write in (manifest.write, CsvTable(["a"], [[1.0]]).write):
        with pytest.raises(ConfigError, match="cannot write"):
            write(tmp_path / "missing" / "out.txt")
