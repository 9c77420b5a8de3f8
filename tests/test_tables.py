"""Spot checks of computed bounds against the transcribed reference tables."""

import csv
from pathlib import Path

import numpy as np
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


# --paper-mode rows at n=16 (8 MinRes steps with the paper's block-diagonal
# preconditioners), keyed by example and Schur family.  Rounding alone, such
# as multiplying by the reciprocal symbol in place of dividing by it, moves
# them by about 1e-13; rtol 1e-10 catches any change to the preconditioners
# or the solver.  Columns: minorant, ieff_minorant, majorant, ieff_majorant,
# ieff_ratio, ieff_m1.
PAPER_MODE_ROWS = {
    (1, 0): {
        "k=0": [
            111084.89760983014, 0.8763062179339366, 130307.88930029479,
            1.0279490380480896, 1.1730477509011412, 6.77817836808724,
        ],
        "k=1": [
            419574.1135430899, 0.8747419481748205, 493026.9371876708,
            1.0278788171566187, 1.1750651941424821, 6.772230000545561,
        ],
        "k=2": [
            173200.32046092502, 0.8703659773666234, 204503.41877161802,
            1.027670257654814, 1.1807334895650794, 6.767714850510212,
        ],
    },
    (4, 0): {
        "k=0": [
            8276.467876032353, 0.8773674070907366, 10320.985748969308,
            1.0941015709632227, 1.2470278267928316, 4.805703330121512,
        ],
        "k=1": [
            29210.24288870028, 0.8190081111014499, 39014.85844243453,
            1.0939137219632529, 1.335656762290295, 4.804164406123936,
        ],
    },
    (4, 1): {
        "k=0": [
            8276.463449191337, 0.8773669378125272, 10320.985408665723,
            1.0941015348885013, 1.2470284526749345, 4.80570150338759,
        ],
        "k=1": [
            29210.23410020389, 0.8190078646861819, 39014.85715777596,
            1.093913685943498, 1.3356571201702088, 4.804162584525382,
        ],
    },
}


@pytest.mark.parametrize("example,family", sorted(PAPER_MODE_ROWS))
def test_paper_mode_rows_pinned(example, family):
    expect = PAPER_MODE_ROWS[example, family]
    modes = tuple(int(label[2:]) for label in expect)
    rep = run(ExperimentConfig(example=example, grid=16, modes=modes, paper_mode=True,
                               precond_family=family))
    for row in rep.rows:
        got = [getattr(row, c) for c in COLUMNS[2:]]
        assert got == pytest.approx(expect[row.label], rel=1e-10, abs=0), row.label


# Converged rows at n=16 with the default solver settings: examples 1, 2, 4
# and 5 with their analytic reference, modes 0-2 and the overall row N=2;
# examples 3 and 6 with the fine reference nref=32, modes 0 and 1.  The
# minorant of example 6 is negative at n=16, so its ratio is nan.  Columns
# as in PAPER_MODE_ROWS; rtol 1e-9 leaves room for GMRES rounding only.
DEFAULT_ROWS = {
    1: {
        "k=0": [
            111084.89760911159, 0.8763062179282682, 130307.88930061914,
            1.0279490380506482, 1.1730477509116488, 6.778178368714083,
        ],
        "k=1": [
            419574.11353492684, 0.874741948157802, 493026.9371914315,
            1.027878817164459, 1.1750651941743069, 6.772230002469608,
        ],
        "k=2": [
            173200.32045325355, 0.8703659773280726, 204503.41877526147,
            1.0276702576731231, 1.180733489638413, 6.767714855034162,
        ],
        "overall (N=2)": [
            2809339.287137036, 0.8857876635258182, 3259221.3434920376,
            1.0276359541133868, 1.1601380290429324, 6.772904405805245,
        ],
    },
    2: {
        "k=0": [
            311665.3876223644, 0.8763056602418449, 365598.38198742166,
            1.0279483838578434, 1.1730477509116484, 6.837923679030765,
        ],
        "k=1": [
            995637.3990515273, 0.8747412540928389, 1169938.8536436844,
            1.0278780015928781, 1.1750651941743067, 6.796295967080595,
        ],
        "k=2": [
            247729.70818508885, 0.870363236219775, 292502.7628324858,
            1.0276670211547576, 1.1807334896384134, 6.649117383380402,
        ],
        "overall (N=2)": [
            6216057.549422518, 0.8819682988149471, 7243171.419521551,
            1.0277008415879203, 1.1652355792932536, 6.7901323756739735,
        ],
    },
    3: {
        "k=0": [
            0.014836820147001108, 0.4995174348346765, 0.033253031044161205,
            1.119543716448882, 2.241250531764549, 8.405812002018644,
        ],
        "k=1": [
            0.020287073277987476, 0.420122651378467, 0.05376001634470549,
            1.1133099533580406, 2.6499641228701964, 8.407728779247195,
        ],
    },
    4: {
        "k=0": [
            8276.467872993711, 0.8773674067686178, 10320.985751678461,
            1.0941015712504132, 1.2470278275780005, 4.805703345483817,
        ],
        "k=1": [
            29210.242876449178, 0.8190081107579488, 39014.858452802226,
            1.0939137222539463, 1.335656763205418, 4.804164421766695,
        ],
        "k=2": [
            10461.48672150918, 0.7086931927265279, 16139.73106691034,
            1.093354878139744, 1.5427760409738411, 4.8030834910112326,
        ],
        "overall (N=2)": [
            203438.75270617468, 0.863361425788039, 264925.67665657314,
            1.1243020657742058, 1.3022380108631695, 4.804357825138354,
        ],
    },
    5: {
        "k=0": [
            23147.11007624295, 0.8773622824436438, 28865.09039308607,
            1.0940951810745723, 1.2470278275779996, 4.829944378431123,
        ],
        "k=1": [
            69204.20213462276, 0.8190021468001318, 92433.06062334368,
            1.0939057564533523, 1.3356567632054177, 4.814377648256172,
        ],
        "k=2": [
            15009.63212312682, 0.7086727085901147, 23156.500823391383,
            1.0933232757048656, 1.5427760409738411, 4.760901209674615,
        ],
        "overall (N=2)": [
            448309.83493947255, 0.8561497547186746, 582806.7192740246,
            1.1130021937221581, 1.3000087748525766, 4.812380820955002,
        ],
    },
    6: {
        "k=0": [
            -0.3077622057412018, -5.96943713780305, 0.05850744888683693,
            1.13482595233571, np.nan, 2.5506897096248284,
        ],
        "k=1": [
            -0.5065300391038582, -6.043012937719303, 0.09499508173651952,
            1.1333118741962438, np.nan, 2.5556871499738323,
        ],
    },
}



@pytest.mark.parametrize("example", sorted(DEFAULT_ROWS))
def test_default_rows_pinned(example):
    expect = DEFAULT_ROWS[example]
    modes = tuple(int(label[2:]) for label in expect if label.startswith("k="))
    overall = (2,) if "overall (N=2)" in expect else ()
    nref = 32 if example in (3, 6) else None
    rep = run(ExperimentConfig(example=example, grid=16, modes=modes, overall=overall, nref=nref))
    assert [row.label for row in rep.all_rows] == list(expect)
    for row in rep.all_rows:
        got = [getattr(row, c) for c in COLUMNS[2:]]
        assert got == pytest.approx(expect[row.label], rel=1e-9, abs=0, nan_ok=True), row.label
