import dataclasses
import filecmp
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from mhbounds import bench, mesh as meshmod
from mhbounds.bench import (
    ExperimentConfig,
    build_parser,
    grid_sweep,
    main,
    run,
    write_csv,
    write_markdown,
)
from mhbounds.cases import make_case
from mhbounds.femcore import FemContext
from mhbounds.systems import mode_parts
from reference_assembly import assemble_mass, assemble_stiffness, build_mesh, to_full
from test_tables import read_csv


@pytest.fixture(scope="module")
def small_report():
    return run(ExperimentConfig(example=1, grid=8, modes=(0, 1), overall=(1,), tol=1e-11))


def test_report_shape(small_report):
    assert small_report.problem == "I"
    assert [r.label for r in small_report.rows] == ["k=0", "k=1"]
    assert small_report.overall_rows[0].label == "overall (N=1)"
    assert small_report.reference_kind == "analytic"
    for row in small_report.all_rows:
        assert row.minorant <= row.majorant
        assert np.isfinite(row.ieff_minorant)


def test_csv_roundtrip(tmp_path, small_report):
    path = tmp_path / "table.csv"
    write_csv(small_report, path)
    rows = read_csv(path)
    assert len(rows) == len(small_report.all_rows)
    for got, want in zip(rows, small_report.all_rows):
        assert got.label == want.label
        for col in ("t_sec", "minorant", "majorant", "ieff_ratio", "ieff_m1"):
            a, b = getattr(got, col), getattr(want, col)
            assert (np.isnan(a) and np.isnan(b)) or a == b


def test_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_deterministic_runs(tmp_path):
    # every numerical column is reproduced exactly; wall time is excluded
    config = ExperimentConfig(example=4, grid=8, modes=(0, 2), tol=1e-11)
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_csv(run(config), p1)
    write_csv(run(config), p2)
    for a, b in zip(read_csv(p1), read_csv(p2)):
        assert a.label == b.label
        for col in ("minorant", "ieff_minorant", "majorant", "ieff_majorant",
                    "ieff_ratio", "ieff_m1"):
            x, y = getattr(a, col), getattr(b, col)
            assert (np.isnan(x) and np.isnan(y)) or x == y


def test_markdown_writer(tmp_path, small_report):
    path = tmp_path / "table.md"
    write_markdown(small_report, path)
    text = path.read_text()
    assert "| " + " | ".join(["label", "t_sec"]) in text.replace("  ", " ")[:200] or "label" in text
    assert "overall (N=1)" in text
    assert "reference: analytic" in text


def test_zero_data_zero_bounds(scratch):
    # with vanishing data every mode solution and both bounds are zero
    import mhbounds.mesh as meshmod
    from mhbounds.bounds import BoundParams, ModeData, evaluate_mode
    from mhbounds.femcore import FemContext
    from mhbounds.systems import build_matrices, build_mode_system
    from reference_systems import direct_solve

    ctx = FemContext(meshmod.build(4))
    mats = build_matrices(ctx)
    n = ctx.K.shape[0]
    system = build_mode_system("I", mats, 1, 1.0, 1.0, np.zeros((2, n)))
    sol = direct_solve(system, "I", 1.0, 1.0)
    data = ModeData(coef=np.ones(2), y_vert=np.zeros((2, 3, 4, 4)))
    mb = evaluate_mode("I", ctx, mats, BoundParams(lam=1.0, omega=1.0), sol, data, scratch=scratch)
    assert mb.majorant == 0.0
    assert mb.minorant == 0.0


def test_validation_errors():
    assert ExperimentConfig(example=9).validate()
    assert ExperimentConfig(example=3, grid=33).validate()
    assert ExperimentConfig(example=1, reference="fine").validate()
    assert ExperimentConfig(example=1, nref=32, grid=64).validate()
    assert not ExperimentConfig(example=1, nref=64, grid=64).validate()  # degenerate ok


def test_degenerate_fine_reference_reports_na():
    rep = run(ExperimentConfig(example=3, grid=8, modes=(0,), nref=8, reference="fine", tol=1e-11))
    row = rep.rows[0]
    assert np.isnan(row.ieff_m1)  # zero discretization error, index not applicable
    assert np.isfinite(row.minorant)


def test_fine_reference_consistency_with_analytic():
    base = ExperimentConfig(example=1, grid=8, modes=(0,), tol=1e-11)
    analytic = run(base)
    fine32 = run(ExperimentConfig(example=1, grid=8, modes=(0,), nref=32, reference="fine", tol=1e-11))
    fine64 = run(ExperimentConfig(example=1, grid=8, modes=(0,), nref=64, reference="fine", tol=1e-11))
    r_a = analytic.rows[0]
    r_32 = fine32.rows[0]
    r_64 = fine64.rows[0]
    assert abs(r_32.ieff_majorant - r_a.ieff_majorant) < 0.01 * r_a.ieff_majorant
    # doubling the reference grid moves the indices by well under a percent
    assert abs(r_64.ieff_majorant - r_32.ieff_majorant) < 0.01 * r_32.ieff_majorant
    assert abs(r_64.ieff_minorant - r_32.ieff_minorant) < 0.01 * r_32.ieff_minorant


def test_grid_sweep_labels():
    rows = grid_sweep(ExperimentConfig(example=1, modes=(0,), tol=1e-11), (4, 8), mode=0)
    assert [r.label for r in rows] == ["4x4", "8x8"]


def test_cli_happy_path(tmp_path, capsys):
    code = main([
        "--example", "1", "--grid", "8", "--modes", "0-1", "--overall", "1",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "example1_n8.csv").exists()
    assert (tmp_path / "example1_n8.md").exists()
    out = capsys.readouterr().out
    assert "overall (N=1)" in out


def test_cli_validation_exit_codes(capsys):
    assert main(["--example", "3", "--grid", "33"]) == 2
    assert main(["--example", "1", "--problem", "II"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("args", [
    ["--lambda", "0"], ["--omega", "0"], ["--omega", "-1"],
    ["--tol", "-1"], ["--workers", "0"], ["--modes", "3-1"],
    ["--sweep", "0,4"],
    ["--sweep", "8,16", "--overall", "1"],
    ["--example", "3", "--sweep", "8,9"],
    ["--example", "3", "--grid", "8", "--nref", "9", "--modes", "1"],
    ["--example", "6", "--grid", "8", "--nref", "9"],
    ["--example", "3", "--grid", "8", "--reference", "analytic"],
    ["--example", "6", "--grid", "8", "--reference", "analytic"],
    ["--example", "4", "--family", "1"],
], ids="-".join)
def test_cli_rejects_bad_values(args, capsys, monkeypatch):
    # nothing may be solved before the configuration is rejected
    monkeypatch.setattr(bench, "run", None)
    assert main(["--example", "1", "--grid", "4"] + args) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("sub", ["", "sub"])
def test_cli_rejects_output_path_under_a_file(sub, tmp_path, capsys, monkeypatch):
    # an --out that names an existing file, or a path below one, is a
    # configuration error, reported before any solve
    monkeypatch.setattr(bench, "run", None)
    target = tmp_path / "table.csv"
    target.write_text("kept\n")
    assert main(["--example", "1", "--grid", "4", "--out", str(target / sub)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: --out")
    assert target.read_text() == "kept\n"


@pytest.mark.parametrize("args", [
    ["--lambda", "1.0", "--reference", "analytic"],
    ["--example", "4", "--omega", "2", "--reference", "analytic"],
], ids="-".join)
def test_cli_analytic_reference_at_overridden_parameters(args, capsys):
    # the closed-form reference holds at any lambda and omega
    assert main(["--example", "1", "--grid", "4"] + args) == 0
    out = capsys.readouterr().out
    assert "ieff-=n/a" not in out and "ieff-=" in out


def test_grid_sweep_checks_every_grid_first(monkeypatch):
    monkeypatch.setattr(bench, "run", None)
    with pytest.raises(ValueError, match="even grid"):
        grid_sweep(ExperimentConfig(example=3), (8, 9), mode=0)


def test_grid_sweep_rejects_overall_rows(monkeypatch, capsys):
    # a sweep has one row per grid, so overall rows are refused before any
    # solve, by the API and the command line with the same message
    monkeypatch.setattr(bench, "run", None)
    with pytest.raises(ValueError, match="--overall") as info:
        grid_sweep(ExperimentConfig(example=1, overall=(1,)), (8, 16), 0)
    assert main(["--example", "1", "--sweep", "8,16", "--overall", "1"]) == 2
    assert capsys.readouterr().err == f"error: {info.value}\n"


def test_cli_parser_ranges():
    args = build_parser().parse_args(["--example", "2", "--modes", "0-2,5"])
    assert args.modes == (0, 1, 2, 5)


def test_paper_mode_close_to_tolerance_mode():
    # neither run warns: every mode converges, or takes its 8 paper steps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = run(ExperimentConfig(example=1, grid=16, modes=(0,), tol=1e-11))
        b = run(ExperimentConfig(example=1, grid=16, modes=(0,), paper_mode=True))
    ra, rb = a.rows[0], b.rows[0]
    assert abs(ra.minorant - rb.minorant) < 5e-3 * abs(ra.minorant)
    assert abs(ra.majorant - rb.majorant) < 5e-3 * abs(ra.majorant)


def test_workers_match_sequential():
    # bit-equal rows; with more modes than workers, each worker reuses its
    # scratch from one mode to the next
    for example, grid, modes, workers in ((1, 8, (0, 1, 2), 3), (1, 16, (0, 1, 2, 3, 4), 2),
                                          (4, 16, (0, 1, 2, 3, 4), 2)):
        seq = run(ExperimentConfig(example=example, grid=grid, modes=modes, tol=1e-11))
        par = run(ExperimentConfig(example=example, grid=grid, modes=modes, tol=1e-11, workers=workers))
        for a, b in zip(seq.rows, par.rows):
            assert a.as_list()[2:] == b.as_list()[2:]


def test_mode_after_another_is_bit_equal():
    # nothing a k > 0 solve and bound evaluation leave in the scratch
    # reaches mode 0, which run() takes after the modes with a sine part
    config = ExperimentConfig(example=4, grid=16, modes=(3, 0), tol=1e-11)
    rows = {row.label: row.as_list()[2:] for row in run(config).rows}
    assert rows["k=0"] == run(dataclasses.replace(config, modes=(0,))).rows[0].as_list()[2:]
    case = bench.make_case(4)
    solver = bench._Solver(case, 16, config)
    solver.run_mode(3)
    after, after_sol = solver.run_mode(0)
    alone, alone_sol = bench._Solver(case, 16, config).run_mode(0)
    assert dataclasses.asdict(after.bounds) == dataclasses.asdict(alone.bounds)
    assert np.array_equal(after_sol.y, alone_sol.y)


def _arrays(obj):
    """Every array reachable through the dataclass fields, lists and tuples of obj."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("example", [1, 4])
def test_mode_reference_is_taken_from_its_solution(example, workers):
    # each mode's analytic reference and error norms, taken in its pass,
    # equal bit for bit those of run_mode(k)'s solution, and the report
    # keeps numbers only: no mode field outlives its pass
    config = ExperimentConfig(example=example, grid=16, modes=(0, 1, 2, 3), tol=1e-11, workers=workers)
    report = run(config)
    case = make_case(example)
    solver = bench._Solver(case, 16, config)
    for k, rep in report.mode_reports.items():
        assert not list(_arrays(rep))
        _, sol = solver.run_mode(k)
        assert rep.reference == case.reference_cost(k)
        assert (rep.err_l2, rep.err_h1) == solver.bind.error_norms(k, sol, solver._scratch())


@pytest.mark.parametrize("example", [1, 4])
def test_run_memory_does_not_grow_with_the_modes(example):
    # a warm run() peaks at the same traced memory for nine modes as for
    # two: it keeps less than one mode's state from one mode to the next
    def peak(modes):
        config = ExperimentConfig(example=example, grid=32, modes=modes, tol=1e-11)
        run(config)
        tracemalloc.start()
        try:
            run(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    state_bytes = 2 * 31**2 * 8
    assert peak(tuple(range(9))) - peak((0, 1)) < state_bytes


@pytest.mark.parametrize("override", [{"lam": 1.0}, {"omega": 2.0}])
def test_overridden_parameters_have_analytic_reference(override):
    # "auto" picks the closed form at any lambda and omega, which the fine
    # reference approaches and the bounds enclose
    base = ExperimentConfig(example=1, grid=8, modes=(0,), tol=1e-11, **override)
    assert base.validate() == [] and dataclasses.replace(base, reference="analytic").validate() == []
    analytic = run(base)
    assert analytic.reference_kind == "analytic"
    row, exact = analytic.rows[0], analytic.mode_reports[0].reference
    assert exact == make_case(1, **override).reference_cost(0)
    assert row.minorant <= exact <= row.majorant
    fine = run(dataclasses.replace(base, nref=32, reference="fine"))
    assert abs(fine.mode_reports[0].reference - exact) < 1e-2 * exact


@pytest.mark.parametrize("maxiter", [0, -5])
def test_run_rejects_maxiter_below_one(maxiter):
    # no solve may end before its first step and still fill a table row
    config = ExperimentConfig(example=1, grid=8, maxiter=maxiter)
    assert config.validate() == [f"maxiter must be at least 1, got {maxiter}"]
    with pytest.raises(ValueError, match="maxiter"):
        run(config)
    assert not ExperimentConfig(example=1, grid=8, maxiter=1).validate()


def test_unconverged_mode_warns():
    # a solve stopped short of the tolerance reaches the table, with one
    # RuntimeWarning per such mode naming the run and the residual
    with pytest.warns(RuntimeWarning) as record:
        report = run(ExperimentConfig(example=1, grid=8, modes=(0, 2), maxiter=1))
    stats = {k: rep.stats for k, rep in report.mode_reports.items()}
    assert not any(s.converged for s in stats.values())
    messages = [str(w.message) for w in record]
    assert len(messages) == 2
    for k, message in zip((0, 2), messages):
        assert message.startswith(f"example 1, grid 8, mode k={k}: the solve did not converge")
        assert f"relative residual {stats[k].relative_residual:.3e}" in message
    assert all(np.isfinite(row.majorant) for row in report.rows)


def test_run_path_reads_only_the_node_grid():
    # a mesh holds n and h only, so runs, analytic and fine-grid references
    # (nested and not) work on the node grid; and no module of the package
    # imports scipy.sparse, so no all-node matrix is assembled either
    assert tuple(f.name for f in dataclasses.fields(meshmod.UniformMesh)) == ("n", "h")
    for example, nref in ((1, None), (4, None), (6, 16), (3, 16), (3, 12)):
        overall = (1,) if nref is None else ()
        report = run(ExperimentConfig(example=example, grid=8, modes=(0, 1), overall=overall, nref=nref))
        assert all(np.isfinite(row.majorant) for row in report.all_rows)
        assert all(np.isfinite(rep.err_l2) for rep in report.mode_reports.values())
    package = Path(bench.__file__).parent
    assert not [p.name for p in package.glob("*.py") if "scipy.sparse" in p.read_text()]


def _p1_at_nodes(mesh, v_full, points):
    """P1 field values at points, each from the first triangle whose
    barycentric coordinates it has all nonnegative (to rounding)."""
    corners = mesh.nodes[mesh.triangles]  # (T, 3, 2)
    out = np.empty(len(points))
    for i, x in enumerate(points):
        a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
        det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
        l1 = ((x[0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (c[:, 0] - a[:, 0]) * (x[1] - a[:, 1])) / det
        l2 = ((b[:, 0] - a[:, 0]) * (x[1] - a[:, 1]) - (x[0] - a[:, 0]) * (b[:, 1] - a[:, 1])) / det
        bary = np.stack([1 - l1 - l2, l1, l2], axis=1)
        t = np.flatnonzero((bary >= -1e-12).all(axis=1))[0]
        out[i] = bary[t] @ v_full[mesh.triangles[t]]
    return out


@pytest.mark.parametrize("n,nref", [(4, 8), (4, 12), (6, 8), (5, 5)])
@pytest.mark.parametrize("k", [0, 2])
def test_fine_error_norms_match_all_node_quadratic_forms(n, nref, k, rng):
    # the error norms of the fine reference, stencil quadratic forms of the
    # interior difference, equal e . M e and e . K e with the tests'
    # all-node matrices and the coarse field evaluated at the fine nodes
    # triangle by triangle; the coarse state is random
    case = make_case(1)
    config = ExperimentConfig(example=1, grid=n, nref=nref)
    coarse = FemContext(build_mesh(n))
    y = rng.standard_normal((mode_parts(k), (n - 1) ** 2))
    _, norms = bench.fine_grid_reference(case, nref, coarse, {k: y}, config)
    l2, h1 = norms[k]
    fine_sol, _ = bench._Solver(case, nref, config).solve_mode(k)
    fine = FemContext(build_mesh(nref))
    K_full = assemble_stiffness(fine.mesh, full=True)
    M_full = assemble_mass(fine.mesh, full=True)
    expect_l2 = expect_h1 = 0.0
    for y_fine, y_coarse in zip(fine_sol.y, y):
        e = to_full(fine, y_fine) - _p1_at_nodes(coarse.mesh, to_full(coarse, y_coarse), fine.mesh.nodes)
        expect_l2 += e @ (M_full @ e)
        expect_h1 += e @ (K_full @ e)
    assert abs(l2 - expect_l2) <= 1e-12 * expect_l2
    assert abs(h1 - expect_h1) <= 1e-12 * expect_h1
