import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rte2d
from rte2d import SolverConfig, SweepSchedule, analysis, build_schedule, build_schedules, cli
from rte2d import build_structured_unit_square, load_mesh, trapezoid_circle
from rte2d.analysis import compare_methods, convergence_study, make_case
from cli_runs import INPUTS, RUNS, dumps_reversed, in_process, input_names, run_all
from helpers import read_table_csv


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(d, run_all(d, in_process)): every row of tests/cli_runs.py run once, in d."""
    d = tmp_path_factory.mktemp("runs")
    return d, run_all(d, in_process)


def run(tmp_path, *argv):
    return cli.main([*argv, "--out", str(tmp_path)])


@pytest.mark.parametrize("row", RUNS, ids=[row.name for row in RUNS])
def test_cli_run(runs, row):
    problem = runs[1][row.name].problem
    assert problem is None, problem


def test_a_row_that_raises_is_only_that_rows_problem(tmp_path):
    # a stand-in CLI answers every row as the table expects, but one row's call raises
    rows = {row.name: row for row in RUNS}

    def call(argv):
        out = Path(argv[-1])
        row = rows[out.name]
        if row.name == "far-mesh":
            raise RuntimeWarning("overflow encountered in exp")
        if not row.code:
            out.mkdir()
            for name in row.writes:
                (out / name).write_text("x\n")
        err = row.err.format(d=tmp_path)
        return subprocess.CompletedProcess(argv, row.code, "", err and err + "\n")

    answers = run_all(tmp_path, call)
    assert [name for name, a in answers.items() if a.problem] == ["far-mesh"]
    assert answers["far-mesh"] == (None, "far-mesh: raised RuntimeWarning: overflow encountered in exp")


def test_run_table_is_honest():
    names = [row.name for row in RUNS]
    assert len(set(names)) == len(names)
    read = {name for row in RUNS for name in input_names(row.argv)}
    assert read - INPUTS.keys() == set()  # a typo cannot pass for an absent input
    assert INPUTS.keys() - read == set()


def test_dumps_on_the_turned_grid_reverse(runs):
    assert dumps_reversed(runs[0])


@pytest.mark.parametrize(
    "row", ["config-no-equals-sign", "config-non-ascii-byte"], ids=["no equals sign", "non-ascii byte"]
)
def test_config_file_error_names_the_file_once(runs, row):
    d, done = runs
    assert done[row].proc.stderr.count(str(d)) == 1


@pytest.mark.parametrize("row", ["config-phase-foo", "mesh-and-n0"], ids=["config phase foo", "mesh and n0"])
def test_setting_the_subcommand_does_not_take_is_a_config_error(runs, row):
    d, done = runs
    proc = done[row].proc
    assert proc.returncode == 2
    assert proc.stderr.startswith("error[config]: ") and "usage" not in proc.stderr
    assert not (d / row).exists()  # nothing ran, no CSV written


def test_quad_check_isotropic(runs):
    d, done = runs
    out = done["quad-check-hg"].proc.stdout
    assert "phase=hg" in out and "n_dirs=16" in out
    path = d / "quad-check-hg/quad_check.csv"
    assert b"\r" not in path.read_bytes()
    header, line = path.read_text().splitlines()
    assert header == "phase,eta,n_dirs,weight_sum,m,max_row_dev"
    vals = line.split(",")
    assert vals[0] == "hg"
    assert float(vals[3]) == pytest.approx(2.0 * np.pi, rel=1e-15, abs=0.0)
    assert abs(float(vals[4]) - 1.0) <= 1e-14
    assert float(vals[5]) <= 1e-14


def test_quad_check_linear_phase(runs):
    line = (runs[0] / "quad-check-linear/quad_check.csv").read_text().splitlines()[1]
    assert line.startswith("linear,")


def test_convergence_csv_round_trip(runs):
    out = runs[0] / "convergence"
    header, rows = read_table_csv(out / "table.csv")
    assert header == ("level", "h", "n_elems", "n_dirs", "e1", "e2", "e3", "e4", "eh", "iters")
    assert b"\r" not in (out / "table.csv").read_bytes()

    table = convergence_study(make_case(1), 2, n0=4, n_dirs=8)
    assert len(rows) == 2
    for row, ref in zip(rows, table.rows):
        # repr round-trips bit for bit
        assert row == (ref.level, ref.h, ref.n_elems, 8, ref.e1, ref.e2, ref.e3, ref.e4, ref.eh,
                       ref.iterations)

    rates = (out / "rates.csv").read_text().splitlines()
    assert rates[0] == "from_level,to_level,e1,e2,e3,e4,eh"
    assert len(rates) == 2
    assert rates[1].startswith("0,1,")


def test_compare_outputs(runs):
    out = runs[0] / "compare"
    lines = (out / "delta_effect.csv").read_text().splitlines()
    assert lines[0] == "level,h,eh_dodsd,eh_dodg,ratio"
    assert len(lines) == 3
    for line in lines[1:]:
        _, _, a, b, r = line.split(",")
        assert float(r) == pytest.approx(float(a) / float(b), rel=1e-15, abs=0.0)
    _, sd = read_table_csv(out / "table_dodsd.csv")
    _, dg = read_table_csv(out / "table_dodg.csv")
    assert [r[1] for r in sd] == [r[1] for r in dg]  # identical meshes


def test_solve_field_and_schedule_dump(runs):
    d, done = runs
    assert "solved case 1" in done["solve-dump"].proc.stdout

    lines = (d / "solve-dump/field.csv").read_text().splitlines()
    assert lines[0] == "l,K,centroid_x,centroid_y,u_mean"
    nt = 2 * 3 * 3
    assert len(lines) == 1 + 4 * nt
    first = lines[1].split(",")
    assert (int(first[0]), int(first[1])) == (0, 0)
    mesh = build_structured_unit_square(3)
    cx = mesh.vertices[mesh.triangles[0]].mean(axis=0)
    assert [float(v) for v in first[2:4]] == pytest.approx(cx)
    assert np.isfinite(float(first[4]))

    layers = (d / "solve-dump/schedule.txt").read_text().split()
    assert sorted(map(int, layers)) == list(range(nt))


def test_solve_with_mesh_file_and_level(runs):
    lines = (runs[0] / "mesh-level/field.csv").read_text().splitlines()
    assert len(lines) == 1 + 4 * (8 * 4)  # one refinement quadruples 8 elements


def test_schedule_dump_is_the_slice_that_solve_sweeps(runs):
    # on a perturbed mesh, direction 4 of 8 takes the mirror of direction 0's peel,
    # which is not the layering that direction 4 gets when peeled alone
    d = runs[0]
    mesh, quad = load_mesh(d / "perturbed.mesh"), trapezoid_circle(8)
    dumps = {l: (d / f"perturbed-dump-{l}/schedule.txt").read_text().splitlines() for l in (0, 4)}
    stack = build_schedules(mesh, quad.directions)
    for l, lines in dumps.items():
        slice_l = SweepSchedule(stack.omega[l], stack.layer_of[l], stack.inflow[l])
        assert lines == [" ".join(map(str, layer)) for layer in slice_l.layers]
    assert dumps[4] == dumps[0][::-1]
    alone = build_schedule(mesh, quad.directions[4])
    assert dumps[4] != [" ".join(map(str, layer)) for layer in alone.layers]


def test_config_file_flags_override(runs):
    _, rows = read_table_csv(runs[0] / "config-override/table.csv")
    assert len(rows) == 2  # levels from the file
    assert rows[0][2] == 2 * 4 * 4  # n0 from the file
    assert rows[0][3] == 8  # the explicit flag wins


def test_solve_runs_on_numpy_alone(tmp_path):
    # scipy and hypothesis are test extras: with both unimportable, a solve
    # with inflow data still runs and writes its CSV
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = sys.modules['hypothesis'] = None",
        "from rte2d.cli import main",
        f"sys.exit(main(['solve', '--case', '4', '--n0', '2', '--n-dirs', '4', '--out', {str(tmp_path)!r}]))",
    ])
    src = os.path.dirname(os.path.dirname(rte2d.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "solved case 4: 8 elements, 4 directions" in proc.stdout
    lines = (tmp_path / "field.csv").read_text().splitlines()
    assert lines[0] == "l,K,centroid_x,centroid_y,u_mean"
    assert len(lines) == 1 + 4 * 8


def test_compare_hands_its_settings_to_both_studies(tmp_path, monkeypatch):
    # both studies walk one ladder: each level solves with the DODSD, then the DODG config
    seen = []
    solve = analysis.solve

    def recording(problem, mesh, config=None):
        seen.append(config)
        return solve(problem, mesh, config)

    monkeypatch.setattr(analysis, "solve", recording)
    assert run(tmp_path, "compare", "--case", "1", "--levels", "1", "--n0", "2", "--n-dirs", "4",
               "--c-bar", "0.5", "--tol", "1e-9", "--max-iter", "50") == 0
    assert seen == [SolverConfig("dodsd", 0.5, 1e-9, 50), SolverConfig("dodg", 0.5, 1e-9, 50)]
    seen.clear()
    cmp = compare_methods(make_case(1), 1, SolverConfig(method="dodg", c_bar=0.5), n0=2, n_dirs=4)
    assert seen == [SolverConfig("dodsd", c_bar=0.5), SolverConfig("dodg", c_bar=0.5)]
    assert (cmp.dodsd.method, cmp.dodg.method) == ("dodsd", "dodg")


def test_exit_code_bad_dump_index(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran before the --dump-schedule index was checked")

    monkeypatch.setattr(cli, "solve", no_solve)
    assert run(tmp_path, "solve", "--case", "1", "--n0", "2", "--n-dirs", "4", "--dump-schedule", "99") == 2
    assert "error[config]" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_exit_code_negative_level(tmp_path, capsys, monkeypatch, source):
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built before the level was checked")

    monkeypatch.setattr(cli, "build_structured_unit_square", no_mesh)
    (tmp_path / "run.cfg").write_text("level = -1\n")
    extra = ["--level", "-3"] if source == "flag" else ["--config", str(tmp_path / "run.cfg")]
    assert run(tmp_path, "solve", "--case", "1", "--n0", "2", "--n-dirs", "4", *extra) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err and "level" in err


# a row owns its --out; the rows missing-mesh, mesh-is-a-directory and missing-config check the rest
@pytest.mark.parametrize("what", ["out is a file"])
def test_exit_code_unusable_path(tmp_path, capsys, what):
    (tmp_path / "taken").write_text("")
    assert run(tmp_path / "taken", "solve", "--case", "1", "--n-dirs", "4", "--n0", "2") == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]: ") and "Traceback" not in err
    assert "not allowed with" not in err  # the path, not the flags, was refused
