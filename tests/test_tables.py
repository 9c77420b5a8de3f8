"""Spot checks of computed bounds against the transcribed reference tables."""

import csv
from pathlib import Path

import pytest

from mhbounds.bench import COLUMNS, ExperimentConfig, TableRow, run

TESTDATA = Path(__file__).resolve().parent.parent / "testdata"


def read_csv(path) -> list[TableRow]:
    """The rows of a table written by `bench.write_csv`, or of a transcribed one."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != COLUMNS:
            raise ValueError(f"unexpected table header {header}")
        return [TableRow(rec[0], *[float(v) for v in rec[1:]]) for rec in reader]


def _fixture_row(name, label):
    rows = {r.label: r for r in read_csv(TESTDATA / name)}
    return rows[label]


def test_fixtures_parse():
    for path in sorted(TESTDATA.glob("tab_*.csv")):
        rows = read_csv(path)
        assert rows
        for row in rows:
            assert row.minorant <= row.majorant


@pytest.mark.parametrize("k,table", [(0, "tab_ex1_0.csv"), (1, "tab_ex1_1.csv")])
def test_example1_grid64_rows(k, table):
    ref = _fixture_row(table, "64x64")
    rep = run(ExperimentConfig(example=1, grid=64, modes=(k,)))
    row = rep.rows[0]
    assert abs(row.minorant - ref.minorant) < 0.02 * ref.minorant
    assert abs(row.majorant - ref.majorant) < 0.02 * ref.majorant
    assert abs(row.ieff_minorant - ref.ieff_minorant) < 0.03
    assert abs(row.ieff_majorant - ref.ieff_majorant) < 0.03
    assert abs(row.ieff_ratio - ref.ieff_ratio) < 0.04


def test_example4_grid64_minorant_and_ratio():
    ref = _fixture_row("tab_ex4_0.csv", "64x64")
    rep = run(ExperimentConfig(example=4, grid=64, modes=(0,)))
    row = rep.rows[0]
    assert abs(row.minorant - ref.minorant) < 0.02 * ref.minorant
    assert abs(row.ieff_ratio - ref.ieff_ratio) < 0.04


def test_example2_grid64_mode0():
    ref = _fixture_row("tab_ex2_global.csv", "k=0")
    rep = run(ExperimentConfig(example=2, grid=64, modes=(0,)))
    row = rep.rows[0]
    # the fixture row is the finest-grid value; mode 0 is grid-converged by n=64
    assert abs(row.minorant - ref.minorant) < 0.02 * ref.minorant
    assert abs(row.majorant - ref.majorant) < 0.02 * ref.majorant
