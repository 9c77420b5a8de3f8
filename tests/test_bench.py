import dataclasses
import filecmp
import os
import re
import subprocess
import sys
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
from mhbounds.cases import ExampleCase, make_case
from mhbounds.femcore import FemContext
from mhbounds.systems import mode_parts
from reference_assembly import assemble_mass, assemble_stiffness, build_mesh, to_full
from test_tables import read_csv


@pytest.fixture(scope="module")
def small_report():
    return run(ExperimentConfig(example=1, grid=8, modes=(0, 1), overall=(1,), tol=1e-11))


def test_report_shape(small_report):
    assert small_report.params.problem == "I"
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
    from mhbounds.bounds import ModeData, evaluate_mode, mode_bounds
    from mhbounds.femcore import FemContext
    from mhbounds.systems import ProblemParams, build_matrices, build_mode_system
    from reference_systems import direct_solve

    ctx = FemContext(meshmod.build(4))
    mats = build_matrices(ctx)
    n = ctx.K.shape[0]
    params = ProblemParams("I", 1.0, 1.0)
    system = build_mode_system(params, mats, 1, np.zeros((2, n)))
    sol = direct_solve(system, params)
    data = ModeData(coef=np.ones(2), y_vert=np.zeros((2, 3, 4, 4)))
    mb = mode_bounds(evaluate_mode(params, mats, ctx, sol, data, scratch=scratch), params, mats.mu1)
    assert mb.majorant == 0.0
    assert mb.minorant == 0.0


def test_validation_errors():
    assert ExperimentConfig(example=9).validate()
    assert ExperimentConfig(example=3, grid=33).validate()
    assert ExperimentConfig(example=1, nref=32, grid=64).validate()
    assert not ExperimentConfig(example=1, nref=64, grid=64).validate()  # degenerate ok


def test_repeated_entries_are_rejected(monkeypatch):
    # a repeated mode, truncation index or sweep grid would be solved twice
    assert ExperimentConfig(example=1, modes=(0, 1, 0)).validate() == ["modes must not repeat"]
    assert ExperimentConfig(example=1, overall=(1, 1)).validate() == [
        "overall truncation indices must not repeat"]
    monkeypatch.setattr(bench, "run", None)
    with pytest.raises(ValueError, match="sweep grids must not repeat"):
        bench.grid_sweep(ExperimentConfig(example=1), (8, 16, 8), 0)


def test_degenerate_fine_reference_reports_na():
    rep = run(ExperimentConfig(example=3, grid=8, modes=(0,), nref=8, tol=1e-11))
    row = rep.rows[0]
    assert np.isnan(row.ieff_m1)  # zero discretization error, index not applicable
    assert np.isfinite(row.minorant)


def test_fine_reference_consistency_with_analytic():
    base = ExperimentConfig(example=1, grid=8, modes=(0,), tol=1e-11)
    analytic = run(base)
    fine32 = run(ExperimentConfig(example=1, grid=8, modes=(0,), nref=32, tol=1e-11))
    fine64 = run(ExperimentConfig(example=1, grid=8, modes=(0,), nref=64, tol=1e-11))
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
    ["--sweep", ""],
    ["--sweep", "8,16", "--overall", "1"],
    ["--example", "3", "--sweep", "8,9"],
    ["--example", "3", "--grid", "8", "--nref", "9", "--modes", "1"],
    ["--example", "6", "--grid", "8", "--nref", "9"],
    ["--omega", "0.001"],
    ["--example", "4", "--omega", "0.0178"],
    ["--omega", "0.0179", "--modes", "0,1", "--overall", "1"],
    ["--lambda", "1e-300"],
    ["--example", "4", "--family", "1"],
    ["--paper-mode", "--family", "1"],
    ["--modes", "0,0,1"],
    ["--modes", "0", "--overall", "1,1"],
    ["--sweep", "4,4"],
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


def test_cli_out_that_cannot_be_created(tmp_path, capsys, monkeypatch):
    # an --out whose directory cannot be made (as under /proc, or without
    # permission, which root bypasses) is a configuration error, reported
    # in one line before any solve
    monkeypatch.setattr(bench, "run", None)

    def refuse(self, *args, **kwargs):
        raise FileNotFoundError(2, "No such file or directory", str(self))

    monkeypatch.setattr(Path, "mkdir", refuse)
    assert main(["--example", "1", "--grid", "4", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: --out") and "No such file" in err[0]


@pytest.mark.parametrize("writer", ["write_csv", "write_markdown"])
@pytest.mark.parametrize("sweep", [False, True])
def test_cli_table_write_error(writer, sweep, tmp_path, capsys, monkeypatch):
    # a table that cannot be written (a full disk, a lost permission) ends
    # the run with one line and exit 1, not a traceback
    def fail(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(bench, writer, fail)
    args = ["--sweep", "4,8"] if sweep else ["--grid", "4"]
    code = main(["--example", "1", "--out", str(tmp_path)] + args)
    err = capsys.readouterr().err.strip().splitlines()
    if sweep and writer == "write_markdown":  # a sweep writes its CSV alone
        assert code == 0 and not err
        return
    assert code == 1
    assert len(err) == 1 and err[0] == "error: [Errno 28] No space left on device"


@pytest.mark.parametrize("args", [
    ["--lambda", "1.0"],
    ["--example", "4", "--omega", "2"],
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
    solver.run_mode(3, None)
    after, after_sol = solver.run_mode(0, None)
    alone, alone_sol = bench._Solver(case, 16, config).run_mode(0, None)
    assert dataclasses.asdict(after.bounds) == dataclasses.asdict(alone.bounds)
    assert np.array_equal(after_sol.y, alone_sol.y)


@pytest.mark.parametrize("example", range(1, 7))
def test_seeded_rows_match_solo_runs(example):
    # mode 2 starts from the seed 1, modes 3, 4, 5 and 0 from the seeds 1
    # and 2; every row stays within 1e-9 of a run of its mode alone, which
    # starts from zero
    nref = 32 if example in (3, 6) else None
    config = ExperimentConfig(example=example, grid=16, modes=tuple(range(6)), nref=nref)
    rows = run(config).rows
    for k, row in zip(range(6), rows):
        solo = run(dataclasses.replace(config, modes=(k,))).rows[0]
        assert row.label == solo.label == f"k={k}"
        assert np.allclose(row.as_list()[2:], solo.as_list()[2:], rtol=1e-9, atol=0, equal_nan=True)


@pytest.mark.parametrize("example", [1, 4])
def test_modes_after_the_seeds_take_at_most_one_step(example):
    # the first seed starts from zero, the second from the first, and every
    # later mode from both
    report = run(ExperimentConfig(example=example, grid=64, modes=tuple(range(9))))
    stats = {k: rep.stats for k, rep in report.mode_reports.items()}
    assert stats[1].start_residual == 1.0 and stats[1].iterations >= 2
    assert stats[2].start_residual < 1e-6 and stats[2].iterations <= 1
    for k in (0, *range(3, 9)):
        assert stats[k].start_residual < 1e-8 and stats[k].iterations <= 1 and stats[k].converged


@pytest.mark.parametrize("example", [3, 6])
def test_seeds_that_start_no_later_mode_leave_them_from_zero(example):
    # the seeds of indicator data leave the first later mode with data more
    # than START_CUT of its residual, so every later mode starts from zero
    # and its row equals that of a run of its mode alone bit for bit
    config = ExperimentConfig(example=example, grid=16, modes=tuple(range(8)))
    report = run(config)
    for k, rep in report.mode_reports.items():
        assert rep.stats.start_residual == (1.0 if k % 2 or k == 0 else 0.0)
    for k, row in zip(config.modes, report.rows):
        assert row.as_list()[2:] == run(dataclasses.replace(config, modes=(k,))).rows[0].as_list()[2:]


def test_paper_mode_rows_do_not_depend_on_the_other_modes():
    # paper mode takes its fixed MinRes steps from zero, however many modes
    # a run has
    config = ExperimentConfig(example=4, grid=16, modes=(0, 1, 2, 3), paper_mode=True)
    report = run(config)
    assert all(rep.stats.start_residual == 1.0 for rep in report.mode_reports.values())
    for k, row in zip(config.modes, report.rows):
        assert row.as_list()[2:] == run(dataclasses.replace(config, modes=(k,))).rows[0].as_list()[2:]


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
    # equal bit for bit those of the solution run_mode(k) gets from run()'s
    # own start (mode 2 from the seed 1, modes 3 and 0 from the seeds 1 and
    # 2), and the report keeps numbers only: no mode field outlives its pass
    config = ExperimentConfig(example=example, grid=16, modes=(0, 1, 2, 3), tol=1e-11, workers=workers)
    report = run(config)
    case = make_case(example)
    solver = bench._Solver(case, 16, config)
    norms, started = {}, {}

    def one_mode(k, start):
        rep, sol = solver.run_mode(k, start)
        norms[k] = solver.bind.error_norms(k, sol, solver._scratch())
        started[k] = start is not None
        return rep, sol

    solver.solve_modes(config.modes, one_mode)
    assert started == {0: True, 1: False, 2: True, 3: True}
    for k, rep in report.mode_reports.items():
        assert not list(_arrays(rep))
        assert rep.reference == case.reference_cost(k)
        assert (rep.err_l2, rep.err_h1) == norms[k]


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
    # without a fine grid the reference is the closed form, at any lambda and
    # omega, which the fine reference approaches and the bounds enclose
    base = ExperimentConfig(example=1, grid=8, modes=(0,), tol=1e-11, **override)
    assert base.validate() == []
    analytic = run(base)
    assert analytic.reference_kind == "analytic"
    row, exact = analytic.rows[0], analytic.mode_reports[0].reference
    assert exact == make_case(1, **override).reference_cost(0)
    assert row.minorant <= exact <= row.majorant
    fine = run(dataclasses.replace(base, nref=32))
    assert abs(fine.mode_reports[0].reference - exact) < 1e-2 * exact


@pytest.mark.parametrize("maxiter", [0, -5])
def test_run_rejects_maxiter_below_one(maxiter):
    # no solve may end before its first step and still fill a table row
    config = ExperimentConfig(example=1, grid=8, maxiter=maxiter)
    assert config.validate() == [f"maxiter must be at least 1, got {maxiter}"]
    with pytest.raises(ValueError, match="maxiter"):
        run(config)
    assert not ExperimentConfig(example=1, grid=8, maxiter=1).validate()


def test_run_rejects_negative_overall_index_before_any_solve(monkeypatch):
    config = ExperimentConfig(example=1, grid=8, overall=(-1,))
    assert config.validate() == ["overall truncation indices must be nonnegative"]
    monkeypatch.setattr(bench, "_Solver", None)
    with pytest.raises(ValueError, match="overall"):
        run(config)


@pytest.mark.parametrize("example", [1, 2, 4, 5])
def test_validate_rejects_overflowing_time_data(example):
    # e^t over the period 2 pi / omega = 6283 overflows, which would fill
    # every row with nan
    errors = ExperimentConfig(example=example, grid=4, omega=0.001).validate()
    assert len(errors) == 1 and "omega = 0.001 is too small" in errors[0]


@pytest.mark.parametrize("example", range(1, 7))
def test_accepted_omega_keeps_the_bounds_finite(example):
    # the smallest omega that make_case accepts on a geometric grid, at the
    # example's lambda and at 1e-8: every row's bounds are finite and far
    # below the float limit
    for lam in (None, 1e-8):
        omegas = np.geomspace(1e-3, 1.0, 350) if example not in (3, 6) else np.geomspace(1e-292, 1e-280, 30)
        accepted = []
        for omega in omegas:
            try:
                make_case(example, lam=lam, omega=omega)
            except ValueError as exc:
                assert "is too small" in str(exc)
                continue
            accepted.append(omega)
        assert accepted and accepted[0] > omegas[0]
        nref = 8 if example in (3, 6) else None
        report = run(ExperimentConfig(example=example, grid=4, modes=(0, 1, 2), overall=(2,), lam=lam,
                                      omega=accepted[0], nref=nref))
        for row in report.all_rows:
            assert max(abs(row.minorant), abs(row.majorant)) < 1e300


def test_nref_gives_a_fine_reference_for_every_example(tmp_path, capsys):
    # a fine grid, where given, is the reference also of the cases that
    # have a closed form
    assert main(["--example", "1", "--grid", "8", "--nref", "16", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert "reference: fine-grid 16" in (tmp_path / "example1_n8.md").read_text()


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


def test_unconverged_fine_solve_warns():
    # a fine reference solve stopped short warns as a coarse one does,
    # naming the reference grid; in paper mode the coarse mode takes its 8
    # steps and only the fine solve, held to the tolerance, warns
    config = ExperimentConfig(example=3, grid=8, modes=(0,), nref=16, maxiter=1)
    for paper_mode, expect in ((False, ["grid 8", "reference grid 16"]), (True, ["reference grid 16"])):
        with pytest.warns(RuntimeWarning) as record:
            run(dataclasses.replace(config, paper_mode=paper_mode))
        messages = [str(w.message) for w in record]
        assert len(messages) == len(expect)
        for message, where in zip(messages, expect):
            assert message.startswith(f"example 3, {where}, mode k=0: the solve did not converge "
                                      "(relative residual ")
        assert all(w.filename == __file__ for w in record)


@pytest.mark.parametrize("example", range(1, 7))
def test_fine_cost_is_the_optimal_cost_of_the_fine_solution(example):
    # the fine reference's cost 0.5 (||d_k||^2 - (d_k, y_h)) is the cost
    # 0.5 misfit + p M p / (2 lam) of the bound evaluation, on the same
    # fine solution, and the one fine_grid_reference returns
    case = make_case(example)
    config = ExperimentConfig(example=example, grid=8)
    solver = bench._Solver(case, 8, config)
    for k in (0, 1, 3):
        sol, stats = solver.solve_mode(k, None)
        assert stats.converged
        b = bench.evaluate_mode(solver.params, solver.mats, solver.ctx, sol, solver.bind.mode_data(k),
                                scratch=solver._scratch())
        expect = 0.5 * b.misfit + b.p_mass / (2 * case.lam)
        cost = solver.bind.optimal_cost(k, sol.y)
        assert abs(cost - expect) <= 1e-10 * expect
        costs, _ = bench.fine_grid_reference(case, 8, solver.ctx, {k: sol.y}, config)
        assert costs[k] == cost


@pytest.mark.parametrize("example,family", [(3, 0), (6, 1)])
def test_paper_mode_fine_reference_is_the_converged_one(example, family):
    # the fine cost holds at the optimum only, so paper mode solves the
    # fine modes to the tolerance too: its references are the default
    # run's, bit for bit
    config = ExperimentConfig(example=example, grid=8, modes=(0, 1, 3), nref=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        default = run(config)
        paper = run(dataclasses.replace(config, paper_mode=True, precond_family=family))
    for k, rep in default.mode_reports.items():
        assert paper.mode_reports[k].reference == rep.reference


def test_run_path_reads_only_the_node_grid():
    # a mesh holds n and h only, so runs, analytic and fine-grid references
    # (nested and not) work on the node grid; and no module of the package
    # imports scipy, so no all-node matrix is assembled either
    assert tuple(f.name for f in dataclasses.fields(meshmod.UniformMesh)) == ("n", "h")
    for example, nref in ((1, None), (4, None), (6, 16), (3, 16), (3, 12)):
        overall = (1,) if nref is None else ()
        report = run(ExperimentConfig(example=example, grid=8, modes=(0, 1), overall=overall, nref=nref))
        assert all(np.isfinite(row.majorant) for row in report.all_rows)
        assert all(np.isfinite(rep.err_l2) for rep in report.mode_reports.values())
    package = Path(bench.__file__).parent
    imports = re.compile(r"^\s*(from|import)\s+scipy\b", re.MULTILINE)
    assert not [p.name for p in package.glob("*.py") if imports.search(p.read_text())]


def test_command_line_run_loads_no_scipy():
    # numpy is the package's only dependency: a run from the command line
    # leaves no scipy module loaded
    script = (
        "import runpy, sys\n"
        "sys.argv = ['mhbounds', '--example', '4', '--grid', '8', '--modes', '0,1']\n"
        "try:\n"
        "    runpy.run_module('mhbounds', run_name='__main__')\n"
        "except SystemExit as done:\n"
        "    code = done.code\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(bench.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "0 []"
    assert "k=1 min=" in done.stdout


def test_one_worker_run_loads_no_thread_pool():
    # a one-worker library run imports neither the thread pool nor the
    # logging it pulls in, nor the command line's argparse or the tables'
    # csv
    script = (
        "import sys\n"
        "from mhbounds import bench\n"
        "report = bench.run(bench.ExperimentConfig(example=1, grid=8))\n"
        "print(len(report.rows), sorted(m for m in ('logging', 'concurrent.futures', 'argparse', 'csv')"
        " if m in sys.modules))\n"
    )
    src = str(Path(bench.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "1 []"


def test_overall_rows_share_one_exact_total(monkeypatch):
    # the exact total cost sums hundreds of sampled Fourier modes; a run
    # takes it once, however many overall rows it has
    calls = []
    exact = ExampleCase.overall_reference
    monkeypatch.setattr(ExampleCase, "overall_reference", lambda case: calls.append(1) or exact(case))
    report = run(ExperimentConfig(example=1, grid=4, modes=(0, 1), overall=(0, 1)))
    assert len(report.overall_rows) == 2 and len(calls) == 1
    assert all(np.isfinite(row.ieff_minorant) for row in report.overall_rows)


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
    fine_sol, _ = bench._Solver(case, nref, config).solve_mode(k, None)
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
