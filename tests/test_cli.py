import os
import subprocess
import sys

import numpy as np
import pytest

import rte2d
from rte2d import (
    SolverConfig, SweepSchedule, build_schedule, build_schedules, build_structured_unit_square,
    load_mesh, save_mesh, trapezoid_circle,
)
from rte2d import analysis, cli
from rte2d.cli import main
from rte2d.analysis import compare_methods, convergence_study, make_case
from cli_runs import RUNS, check, in_process
from helpers import perturbed_mesh, read_table_csv


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def no_crlf(path):
    with open(path, "rb") as fh:
        return b"\r" not in fh.read()


def test_quad_check_isotropic(tmp_path, capsys):
    assert run(tmp_path, "quad-check", "--n-dirs", "16") == 0
    out = capsys.readouterr().out
    assert "phase=hg" in out and "n_dirs=16" in out
    path = tmp_path / "quad_check.csv"
    assert no_crlf(path)
    header, line = path.read_text().splitlines()
    assert header == "phase,eta,n_dirs,weight_sum,m,max_row_dev"
    vals = line.split(",")
    assert vals[0] == "hg"
    assert float(vals[3]) == pytest.approx(2.0 * np.pi, rel=1e-15, abs=0.0)
    assert abs(float(vals[4]) - 1.0) <= 1e-14
    assert float(vals[5]) <= 1e-14


def test_quad_check_linear_phase(tmp_path):
    assert run(tmp_path, "quad-check", "--phase", "linear", "--n-dirs", "12") == 0
    line = (tmp_path / "quad_check.csv").read_text().splitlines()[1]
    assert line.startswith("linear,")


def test_convergence_csv_round_trip(tmp_path):
    code = run(
        tmp_path, "convergence", "--case", "1",
        "--levels", "2", "--n0", "4", "--n-dirs", "8",
    )
    assert code == 0
    header, rows = read_table_csv(tmp_path / "table.csv")
    assert header == ("level", "h", "n_elems", "n_dirs", "e1", "e2", "e3", "e4", "eh", "iters")
    assert no_crlf(tmp_path / "table.csv")

    table = convergence_study(make_case(1), 2, n0=4, n_dirs=8)
    assert len(rows) == 2
    for row, ref in zip(rows, table.rows):
        level, h, n_elems, n_dirs, e1, e2, e3, e4, eh, iters = row
        assert level == ref.level
        assert n_elems == ref.n_elems
        assert n_dirs == 8
        assert iters == ref.iterations
        # repr round-trips bit for bit
        assert h == ref.h and e1 == ref.e1 and e2 == ref.e2
        assert e3 == ref.e3 and e4 == ref.e4 and eh == ref.eh

    rates = (tmp_path / "rates.csv").read_text().splitlines()
    assert rates[0] == "from_level,to_level,e1,e2,e3,e4,eh"
    assert len(rates) == 2
    assert rates[1].startswith("0,1,")


def test_compare_outputs(tmp_path):
    code = run(
        tmp_path, "compare", "--case", "1",
        "--levels", "2", "--n0", "4", "--n-dirs", "8",
    )
    assert code == 0  # the compare row of tests/cli_runs.py checks that it writes all five CSVs
    lines = (tmp_path / "delta_effect.csv").read_text().splitlines()
    assert lines[0] == "level,h,eh_dodsd,eh_dodg,ratio"
    assert len(lines) == 3
    for line in lines[1:]:
        _, _, a, b, r = line.split(",")
        assert float(r) == pytest.approx(float(a) / float(b), rel=1e-15, abs=0.0)
    _, sd = read_table_csv(tmp_path / "table_dodsd.csv")
    _, dg = read_table_csv(tmp_path / "table_dodg.csv")
    assert [r[1] for r in sd] == [r[1] for r in dg]  # identical meshes


def test_solve_field_and_schedule_dump(tmp_path, capsys):
    code = run(
        tmp_path, "solve", "--case", "1",
        "--n0", "3", "--n-dirs", "4", "--dump-schedule", "0",
    )
    assert code == 0
    assert "solved case 1" in capsys.readouterr().out

    lines = (tmp_path / "field.csv").read_text().splitlines()
    assert lines[0] == "l,K,centroid_x,centroid_y,u_mean"
    nt = 2 * 3 * 3
    assert len(lines) == 1 + 4 * nt
    first = lines[1].split(",")
    assert (int(first[0]), int(first[1])) == (0, 0)
    mesh = build_structured_unit_square(3)
    cx = mesh.vertices[mesh.triangles[0]].mean(axis=0)
    assert float(first[2]) == pytest.approx(cx[0])
    assert float(first[3]) == pytest.approx(cx[1])
    assert np.isfinite(float(first[4]))

    layers = [
        [int(tok) for tok in line.split()]
        for line in (tmp_path / "schedule.txt").read_text().splitlines()
    ]
    flat = sorted(k for layer in layers for k in layer)
    assert flat == list(range(nt))


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
    seen = []
    study = analysis.convergence_study

    def recording(case, levels, config=None, **kwargs):
        seen.append(config)
        return study(case, levels, config, **kwargs)

    monkeypatch.setattr(analysis, "convergence_study", recording)
    code = run(
        tmp_path, "compare", "--case", "1", "--levels", "1", "--n0", "2", "--n-dirs", "4",
        "--c-bar", "0.5", "--tol", "1e-9", "--max-iter", "50",
    )
    assert code == 0
    assert seen == [SolverConfig("dodsd", 0.5, 1e-9, 50), SolverConfig("dodg", 0.5, 1e-9, 50)]
    seen.clear()
    cmp = compare_methods(make_case(1), 1, SolverConfig(method="dodg", c_bar=0.5), n0=2, n_dirs=4)
    assert seen == [SolverConfig("dodsd", c_bar=0.5), SolverConfig("dodg", c_bar=0.5)]
    assert (cmp.dodsd.method, cmp.dodg.method) == ("dodsd", "dodg")


def test_solve_with_mesh_file_and_level(tmp_path):
    mesh_file = tmp_path / "base.mesh"
    save_mesh(build_structured_unit_square(2), mesh_file)
    code = run(
        tmp_path, "solve", "--case", "1", "--mesh", str(mesh_file),
        "--n-dirs", "4", "--level", "1",
    )
    assert code == 0
    lines = (tmp_path / "field.csv").read_text().splitlines()
    assert len(lines) == 1 + 4 * (8 * 4)  # one refinement quadruples 8 elements


def test_schedule_dump_is_the_slice_that_solve_sweeps(tmp_path):
    # on a perturbed mesh, direction 4 of 8 takes the mirror of direction 0's peel,
    # which is not the layering that direction 4 gets when peeled alone
    mesh_file = tmp_path / "perturbed.mesh"
    save_mesh(perturbed_mesh(5, seed=31), mesh_file)
    mesh, quad = load_mesh(mesh_file), trapezoid_circle(8)
    dumps = {}
    for l in (0, 4):
        out = tmp_path / f"dir{l}"
        code = run(
            out, "solve", "--case", "1", "--mesh", str(mesh_file),
            "--n-dirs", "8", "--dump-schedule", str(l),
        )
        assert code == 0
        dumps[l] = (out / "schedule.txt").read_text().splitlines()
    stack = build_schedules(mesh, quad.directions)
    for l, lines in dumps.items():
        slice_l = SweepSchedule(stack.omega[l], stack.layer_of[l], stack.inflow[l])
        assert lines == [" ".join(map(str, layer)) for layer in slice_l.layers]
    assert dumps[4] == dumps[0][::-1]
    alone = build_schedule(mesh, quad.directions[4])
    assert dumps[4] != [" ".join(map(str, layer)) for layer in alone.layers]


@pytest.mark.parametrize("row", RUNS, ids=[row.name for row in RUNS])
def test_cli_run(tmp_path, row):
    problem = check(row, tmp_path, in_process)
    assert problem is None, problem


def test_exit_code_bad_dump_index(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran before the --dump-schedule index was checked")

    monkeypatch.setattr(cli, "solve", no_solve)
    code = run(
        tmp_path, "solve", "--case", "1",
        "--n0", "2", "--n-dirs", "4", "--dump-schedule", "99",
    )
    assert code == 2
    assert "error[config]" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_exit_code_negative_level(tmp_path, capsys, monkeypatch, source):
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built before the level was checked")

    monkeypatch.setattr(cli, "build_structured_unit_square", no_mesh)
    if source == "flag":
        extra = ["--level", "-3"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("level = -1\n")
        extra = ["--config", str(cfg)]
    code = run(tmp_path, "solve", "--case", "1", "--n0", "2", "--n-dirs", "4", *extra)
    assert code == 2
    err = capsys.readouterr().err
    assert "error[config]" in err and "level" in err


@pytest.mark.parametrize(
    "what", ["missing mesh", "mesh is a directory", "missing config", "out is a file"]
)
def test_exit_code_unusable_path(tmp_path, capsys, what):
    argv = ["solve", "--case", "1", "--n-dirs", "4", "--out", str(tmp_path / "out")]
    if what == "missing mesh":
        argv += ["--mesh", str(tmp_path / "nowhere.mesh")]
    elif what == "mesh is a directory":
        argv += ["--mesh", str(tmp_path)]
    elif what == "missing config":
        argv += ["--n0", "2", "--config", str(tmp_path / "nowhere.cfg")]
    else:
        (tmp_path / "taken").write_text("")
        argv += ["--n0", "2", "--out", str(tmp_path / "taken")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]: ") and "Traceback" not in err
    assert "not allowed with" not in err  # the path, not the flags, was refused


def test_config_file_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment defaults\n"
        "n0 = 4\n"
        "levels = 2\n"
        "n-dirs = 16\n"
        "\n"
        "max-iter = 500\n"
    )
    out = tmp_path / "out"
    code = main([
        "convergence", "--case", "1", "--config", str(cfg),
        "--n-dirs", "8", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_table_csv(out / "table.csv")
    assert len(rows) == 2  # levels from the file
    assert rows[0][2] == 2 * 4 * 4  # n0 from the file
    assert rows[0][3] == 8  # the explicit flag wins


@pytest.mark.parametrize(
    "text, message",
    [
        (b"n0 = 4\nlevels 2\n", ":2: expected key=value, got 'levels 2'"),
        ("n0 = 4  # café\n".encode("utf-8"), ": 'ascii' codec can't decode byte 0xc3"),
    ],
    ids=["no equals sign", "non-ascii byte"],
)
def test_config_file_error_names_the_file_once(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(text)
    code = main([
        "convergence", "--case", "1", "--config", str(cfg), "--out", str(tmp_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[config]: {cfg}{message}")
    assert err.count(str(cfg)) == 1


SMALL = ["--case", "1", "--levels", "1", "--n0", "2", "--n-dirs", "4"]


@pytest.mark.parametrize(
    "argv, config",
    [
        (["quad-check"], "phase = foo\n"),
        (["convergence", *SMALL], "level = 1\n"),
        (["convergence", *SMALL], "dump_schedule = 3\n"),
        (["compare", *SMALL, "--method", "dodg"], None),
        (["quad-check", "--tol", "1e-3"], None),
        (["convergence", "--case", "1", "--lev", "1", "--n0", "2", "--n-dirs", "4"], None),
        (["quad-check", "--phase", "linear", "--eta", "0.7"], None),
        (["solve", "--case", "1", "--mesh", "MESH", "--n0", "7", "--n-dirs", "4"], None),
        (["solve", "--case", "1", "--n-dirs", "4"], "mesh = MESH\nn0 = 10\n"),
        (["convergence", *SMALL], "mesh = MESH\n"),
    ],
    ids=[
        "config phase foo", "config level", "config dump_schedule", "compare method",
        "quad-check tol", "abbreviated flag", "linear phase eta",
        "mesh and n0", "config mesh and n0", "config mesh, flag n0",
    ],
)
def test_setting_the_subcommand_does_not_take_is_a_config_error(tmp_path, capsys, argv, config):
    out = tmp_path / "out"
    # MESH names a readable mesh file, so only the setting itself can fail
    mesh_file = tmp_path / "m2.mesh"
    save_mesh(build_structured_unit_square(2), mesh_file)
    argv = [str(mesh_file) if a == "MESH" else a for a in argv]
    if config is not None:
        config = config.replace("MESH", str(mesh_file))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]: ") and "usage" not in err
    if config is not None:
        assert err.startswith(f"error[config]: {cfg}: ")
    assert not out.exists()  # nothing ran, no CSV written
