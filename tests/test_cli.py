import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dickeqb import cli, observables
from dickeqb.errors import NumericalError
from dickeqb.model import ModelParams, static_hamiltonian
from dickeqb.observables import ground_state


def write_config(tmp_path, name="config.json", **payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def run_python(code):
    """stdout of ``code`` run in a fresh interpreter that imports this
    checkout's dickeqb."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


# Modules that importing the CLI must not load.
LAZY_MODULES = ("scipy.integrate", "scipy.sparse.linalg", "scipy.linalg",
                "concurrent.futures.process", "multiprocessing")

EVOLVE_CFG = dict(N=1, g=0.2, Omega=0.4, eta=0.0, N_ph=3, n_init=1,
                  t_max=1.0, dt=0.01, sample_stride=10)


class TestEvolve:
    def test_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **EVOLVE_CFG)
        rc = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "run")])
        assert rc == 0
        assert b"\r" not in (tmp_path / "run" / "trajectory.csv").read_bytes()
        header, rows = read_csv(tmp_path / "run" / "trajectory.csv")
        assert header == ["t", "E_b", "P_b", "dE_b", "Jz_mean", "norm"]
        assert len(rows) == 11  # t=0 plus 10 sampled steps
        assert rows[0]["t"] == "0"
        assert float(rows[-1]["t"]) == pytest.approx(1.0)
        for row in rows:
            assert abs(float(row["norm"]) - 1.0) < 1e-8
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert set(summary) == {"E_max", "t_star_E", "P_max", "t_star_P", "final_norm"}
        assert summary["E_max"] >= max(float(r["E_b"]) for r in rows) - 1e-12

    def test_decoupled_battery_zero_column(self, tmp_path):
        cfg = write_config(tmp_path, N=2, g=0.0, Omega=0.0, eta=0.0, N_ph=2,
                           n_init=1, t_max=0.5, dt=0.01, sample_stride=5)
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        assert all(float(r["E_b"]) == 0.0 for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, **EVOLVE_CFG)
        for sub in ("a", "b"):
            assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / sub)]) == 0
        for name in ("trajectory.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_unknown_key_is_hard_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, N=1, gg=0.5)
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_method_key_is_unknown(self, tmp_path, capsys):
        # propagation has one integrator, so no key selects it
        cfg = write_config(tmp_path, **{**EVOLVE_CFG, "method": "oracle_expm"})
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: unknown key(s) for evolve: method ")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_missing_config_file(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert cli.main(["evolve", "--config", missing, "--out", str(tmp_path)]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{N: 1")
        assert cli.main(["evolve", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_list_where_scalar_expected(self, tmp_path):
        cfg = write_config(tmp_path, N=1, g=[0.1, 0.2])
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_invalid_physics_value(self, tmp_path):
        cfg = write_config(tmp_path, N=1, n_init=7, N_ph=3)
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("bad", [
        {"N": "abc"}, {"N": None}, {"N": True}, {"g": "x"}, {"t_max": "1"},
        {"sample_stride": True}, {"dt": float("nan")}, {"omega0": None},
    ])
    def test_wrong_type_is_config_error(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path, **{**EVOLVE_CFG, **bad})
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: key")

    def test_int_beyond_float_range_is_config_error(self, tmp_path, capsys):
        # float() cannot hold it, so the run would fail with an OverflowError
        huge = 10**400
        cfg = write_config(tmp_path, **{**EVOLVE_CFG, "t_max": huge})
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: key 't_max' must be a finite number, got {huge}\n"
        assert not (tmp_path / "run").exists()

    def test_null_where_field_allows_none(self, tmp_path):
        cfg = write_config(tmp_path, **{**EVOLVE_CFG, "N_ph": None, "n_init": None, "T": None})
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("bad", [{"R": 0.0}, {"R": -1.0}, {"c_light": 0.0}])
    def test_geometric_spacing_must_be_positive(self, tmp_path, capsys, bad):
        # R = 0 divided by zero in the geometric coupling; R < 0 flipped its sign
        cfg = write_config(tmp_path, **{**EVOLVE_CFG, "N": 2, "coupling_mode": "geometric", **bad})
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error: R and c_light must be positive")
        assert not (tmp_path / "run").exists()

    def test_numerical_failure_maps_to_exit_3(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "propagate", boom)
        cfg = write_config(tmp_path, **EVOLVE_CFG)
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 3


class TestSweep:
    def test_singleton_grid_matches_evolve(self, tmp_path):
        cfg = write_config(tmp_path, **EVOLVE_CFG)
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "ev")]) == 0
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")]) == 0
        summary = json.loads((tmp_path / "ev" / "summary.json").read_text())
        header, rows = read_csv(tmp_path / "sw" / "sweep.csv")
        assert header == ["g", "Omega", "eta", "N", "E_max", "P_max", "t_star_E", "t_star_P"]
        assert len(rows) == 1
        assert float(rows[0]["E_max"]) == pytest.approx(summary["E_max"], rel=1e-12)
        assert float(rows[0]["P_max"]) == pytest.approx(summary["P_max"], rel=1e-12)

    def test_grid_order_and_content(self, tmp_path):
        cfg = write_config(tmp_path, N=[2, 1], g=[0.3, 0.1], Omega=0.0, eta=0.0,
                           n_init=1, N_ph=3, t_max=0.3, dt=0.01, sample_stride=10)
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        got = [(float(r["g"]), int(r["N"])) for r in rows]
        assert got == [(0.1, 1), (0.1, 2), (0.3, 1), (0.3, 2)]  # sorted, g-major

    @pytest.mark.parametrize("command, grid", [
        ("sweep", dict(N=[1, 2], g=[0.1, 0.2], t_max=0.2, dt=0.01)),
        ("phase-diagram", dict(N=1, N_ph=2, eta=[0.0, 0.5], g=[0.1, 0.2])),
    ], ids=["sweep", "phase-diagram"])
    def test_grid_cap(self, tmp_path, capsys, command, grid):
        over = write_config(tmp_path, "over.json", grid_cap=3, **grid)
        assert cli.main([command, "--config", over, "--out", str(tmp_path / "over")]) == 2
        assert capsys.readouterr().err == "error: grid size 4 exceeds cap 3\n"
        assert not (tmp_path / "over").exists()
        at_cap = write_config(tmp_path, "at_cap.json", grid_cap=4, **grid)
        assert cli.main([command, "--config", at_cap, "--out", str(tmp_path / "at_cap")]) == 0

    @pytest.mark.parametrize("bad", [{"N": [1, "a"]}, {"g": [0.1, False]}, {"grid_cap": "x"}])
    def test_wrong_type_is_config_error(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path, **{"N": [1, 2], "g": 0.1, "t_max": 0.2, "dt": 0.01, **bad})
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: key")

    def test_int_beyond_float_range_is_config_error(self, tmp_path, capsys):
        huge = 10**400
        cfg = write_config(tmp_path, N=[1, 2], g=[0.1, huge], t_max=0.2, dt=0.01)
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: key 'g' must be a finite number, got {huge}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_n(self, tmp_path):
        cfg = write_config(tmp_path, g=[0.1, 0.2])
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_repeated_axis_value_rejected(self, tmp_path, capsys):
        # a repeated N would be propagated twice and written as two rows,
        # which fit then rejects
        cfg = write_config(tmp_path, N=[2, 2, 3], g=0.1, t_max=0.2, dt=0.01)
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: key 'N' repeats the value 2\n"
        assert not (tmp_path / "out").exists()

    def test_parallel_output_identical(self, tmp_path):
        cfg = write_config(tmp_path, N=[1, 2], g=[0.2, 0.4], Omega=0.3, eta=0.0,
                           n_init=1, N_ph=3, t_max=0.3, dt=0.01, sample_stride=10)
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "s1")]) == 0
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "s2"),
                         "--jobs", "2"]) == 0
        assert (tmp_path / "s1" / "sweep.csv").read_bytes() == \
            (tmp_path / "s2" / "sweep.csv").read_bytes()


    def test_one_batch_per_cell_in_grid_order(self, tmp_path, monkeypatch):
        calls = []
        propagate = cli.propagate

        def recording(batch, pcfg):
            calls.append([(p.g, p.Omega, p.eta, p.N) for p in batch])
            return propagate(batch, pcfg)

        monkeypatch.setattr(cli, "propagate", recording)
        cfg = write_config(tmp_path, N=[3, 1, 2], g=[0.4, 0.2], Omega=0.3, eta=[0.5, 0.0],
                           N_ph=3, n_init=1, t_max=0.2, dt=0.01, sample_stride=10)
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert calls == [[(g, 0.3, eta, n) for n in (1, 2, 3)]
                         for g in (0.2, 0.4) for eta in (0.0, 0.5)]
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert [(float(r["g"]), float(r["eta"]), int(r["N"])) for r in rows] == [
            (p[0], p[2], p[3]) for cell in calls for p in cell]

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path, **EVOLVE_CFG)
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path), "--jobs", jobs]) == 2
        assert capsys.readouterr().err.startswith("error: --jobs must be at least 1")
        assert not (tmp_path / "sweep.csv").exists()

    def test_no_more_workers_than_tasks(self, tmp_path, monkeypatch):
        started = []

        class Serial:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Serial)
        cfg = write_config(tmp_path, N=[1, 2], g=[0.2, 0.4, 0.6], Omega=0.3, N_ph=3,
                           n_init=1, t_max=0.2, dt=0.01, sample_stride=10)
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path), "--jobs", "8"]) == 0
        assert started == [3]  # three cells
        one_cell = write_config(tmp_path, "one.json", N=[1, 2], g=0.2, N_ph=3, n_init=1,
                                t_max=0.2, dt=0.01, sample_stride=10)
        assert cli.main(["sweep", "--config", one_cell, "--out", str(tmp_path),
                         "--jobs", "8"]) == 0
        assert started == [3]  # a single task runs in this process
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 2


class TestEdgePopulationWarning:
    QUIET_CFG = dict(N=1, g=0.1, Omega=0.0, N_ph=4, n_init=1,
                     t_max=1.0, dt=0.01, sample_stride=10)

    def test_silent_below_limit(self, tmp_path, capsys):
        # top-level population 4.4e-7, below EDGE_POPULATION_LIMIT
        cfg = write_config(tmp_path, **self.QUIET_CFG)
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "ev")]) == 0
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_warns_per_point_in_grid_order(self, tmp_path, capsys):
        # with N_ph=2 one photon above n_init=1 is the cutoff: g=0 never
        # reaches it, g=0.5 and g=1 put 0.27 and 0.51 there
        base = dict(N=1, Omega=0.0, N_ph=2, n_init=1, t_max=1.0, dt=0.01, sample_stride=10)
        cfg = write_config(tmp_path, "one.json", g=0.5, **base)
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "ev")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: 2.7e-01 ")
        cfg = write_config(tmp_path, "grid.json", g=[1.0, 0.0, 0.5], **base)
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "2"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line.split(" g=")[1].split()[0] for line in err] == ["0.5", "1"]
        assert all(line.startswith("warning: ") and "N_ph=2" in line for line in err)
        header, _ = read_csv(out / "sweep.csv")
        assert header == ["g", "Omega", "eta", "N", "E_max", "P_max", "t_star_E", "t_star_P"]


class TestFit:
    def make_power_csv(self, tmp_path, alpha=1.5, beta=2.0):
        path = tmp_path / "sweep.csv"
        lines = ["g,Omega,eta,N,E_max,P_max,t_star_E,t_star_P"]
        for n in range(1, 7):
            lines.append(f"0.5,1,0.8,{n},{0.9 * n},{beta * n**alpha},1,1")
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_power_mode_exact(self, tmp_path, capsys):
        csv_path = self.make_power_csv(tmp_path)
        assert cli.main(["fit", csv_path, "--mode", "power", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "N in [1, 6]" in out
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["mode"] == "power"
        assert fit["alpha"] == pytest.approx(1.5, abs=1e-12)
        assert fit["beta"] == pytest.approx(2.0, abs=1e-12)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)
        assert fit["n_points"] == 6
        assert fit["N_list"] == [1, 2, 3, 4, 5, 6]
        assert fit["params"]["series"] == "P_max"
        assert set(fit) == {"mode", "alpha", "beta", "r_squared", "n_points", "N_list",
                            "P_list", "params"}

    def test_linear_mode(self, tmp_path):
        csv_path = self.make_power_csv(tmp_path)
        assert cli.main(["fit", csv_path, "--mode", "linear", "--out", str(tmp_path)]) == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["mode"] == "linear"
        assert fit["slope"] == pytest.approx(0.9, abs=1e-12)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)
        assert set(fit) == {"mode", "slope", "intercept", "r_squared", "n_points", "N_list",
                            "E_list", "params"}

    def test_too_few_rows(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("N,P_max\n1,1.0\n2,2.0\n")
        assert cli.main(["fit", str(path), "--mode", "power", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: power-law fit needs at least 3 points, got 2\n"

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("N,foo\n1,1\n2,2\n3,3\n")
        assert cli.main(["fit", str(path), "--mode", "power", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key", ["g", "Omega", "eta"])
    def test_several_cells_rejected(self, tmp_path, capsys, key):
        # rows that differ in any one of g, Omega, eta belong to two cells
        cells = [{"g": 0.5, "Omega": 1, "eta": 0.8, key: value} for value in (0.1, 2)]
        path = tmp_path / "sweep.csv"
        lines = ["g,Omega,eta,N,E_max,P_max,t_star_E,t_star_P"]
        for c in cells:
            lines += [f"{c['g']},{c['Omega']},{c['eta']},{n},{0.9 * n},{n**1.5},1,1"
                      for n in (1, 2, 3)]
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["fit", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        for c in cells:
            assert f"g={c['g']:g} Omega={c['Omega']:g} eta={c['eta']:g}" in err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("mode, series", [("power", "P_max"), ("linear", "E_max")])
    def test_non_finite_value_rejected(self, tmp_path, capsys, bad, mode, series):
        # a NaN fit would write "alpha": NaN, which is not JSON
        path = tmp_path / "sweep.csv"
        path.write_text(f"N,{series}\n1,0.2\n2,{bad}\n3,1.1\n4,1.8\n")
        assert cli.main(["fit", str(path), "--mode", mode, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "fit.json").exists()

    def test_repeated_n_rejected(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        path.write_text("N,P_max\n1,1.0\n2,2.8\n2,2.9\n3,5.2\n")
        assert cli.main(["fit", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: N repeats")


class TestPhaseDiagram:
    def test_single_point_matches_ground_state(self, tmp_path):
        cfg = write_config(tmp_path, N=2, eta=0.4, g=0.3, N_ph=4)
        assert cli.main(["phase-diagram", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "phase_diagram.csv")
        assert header == ["eta", "g", "magnetization", "gap"]
        assert len(rows) == 1
        p = ModelParams(N=2, eta=0.4, g=0.3, N_ph=4)
        ref = ground_state(static_hamiltonian(p), p.dims)
        assert float(rows[0]["magnetization"]) == pytest.approx(ref.magnetization, abs=1e-9)
        assert float(rows[0]["gap"]) == pytest.approx(ref.gap, abs=1e-9)

    def test_grid_rows_and_bounds(self, tmp_path):
        cfg = write_config(tmp_path, N=2, eta=[-0.5, 0.5], g=[0.05, 0.4, 1.0], N_ph=6)
        assert cli.main(["phase-diagram", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "phase_diagram.csv")
        assert len(rows) == 6
        for row in rows:
            m = float(row["magnetization"])
            assert -1.0 - 1e-9 <= m <= 1e-6
        # the small-g corner stays close to the all-down ferromagnet
        for row in rows:
            if float(row["g"]) == 0.05:
                assert float(row["magnetization"]) == pytest.approx(-1.0, abs=1e-2)

    @pytest.mark.parametrize("bad", [{"eta": ["x"]}, {"grid_cap": None}, {"N_ph": "4"}])
    def test_wrong_type_is_config_error(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path, **{"N": 2, "eta": [0.0], "g": [0.1], **bad})
        assert cli.main(["phase-diagram", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: key")

    def test_repeated_axis_value_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, N=2, eta=[0.0], g=[0.1, 0.2, 0.1])
        assert cli.main(["phase-diagram", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: key 'g' repeats the value 0.1\n"
        assert not (tmp_path / "out").exists()

    def test_drive_keys_rejected(self, tmp_path):
        cfg = write_config(tmp_path, N=2, eta=[0.0], g=[0.1], Omega=1.0)
        assert cli.main(["phase-diagram", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_cutoff_below_atom_count(self, tmp_path):
        # n_init defaults to N, which N_ph = 2 cannot hold; the ground state
        # does not depend on it.
        cfg = write_config(tmp_path, N=4, N_ph=2, eta=[0.0], g=[0.5])
        assert cli.main(["phase-diagram", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "phase_diagram.csv")
        assert len(rows) == 1
        p = ModelParams(N=4, N_ph=2, n_init=0, g=0.5)
        ref = ground_state(static_hamiltonian(p), p.dims)
        assert float(rows[0]["magnetization"]) == pytest.approx(ref.magnetization, abs=1e-9)

    def test_dimension_bound(self, tmp_path, capsys, monkeypatch):
        # N = 16 with N_ph = 4N is a joint space of 4.2M, far above the
        # 200,000 default of max_dim: refused before any assembly.
        def refuse(params):
            raise AssertionError("static_hamiltonian called")

        monkeypatch.setattr(cli, "static_hamiltonian", refuse)
        cfg = write_config(tmp_path, N=16, eta=[0.0], g=[0.1])
        assert cli.main(["phase-diagram", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: total dimension 4259840 exceeds")
        assert not (tmp_path / "phase_diagram.csv").exists()


class TestConvergence:
    def test_decoupled_rig_reports_zero(self, tmp_path):
        cfg = write_config(tmp_path, N=2, g=0.0, Omega=0.0, eta=0.5, n_init=2,
                           t_max=0.5, dt=0.01, sample_stride=10)
        assert cli.main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "convergence.json").read_text())
        assert report["N"] == 2
        assert report["delta_ph"] == 4
        assert [c["N_ph"] for c in report["checks"]] == [4, 6, 8]
        assert all(c["deviation"] == 0.0 for c in report["checks"])
        assert report["all_pass"] is True

    def test_weak_coupling_passes_at_largest_cutoff(self, tmp_path):
        cfg = write_config(tmp_path, N=2, g=0.1, Omega=0.1, eta=0.8, t_max=10.0,
                           dt=0.002, sample_stride=20)
        assert cli.main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "convergence.json").read_text())
        assert report["checks"][-1]["N_ph"] == 8
        assert report["checks"][-1]["pass"] is True

    def test_nph_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, N=2, N_ph=8)
        assert cli.main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_wrong_type_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, N=2, delta_ph="4")
        assert cli.main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: key")

    def test_delta_ph_checked_before_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path, N=2, delta_ph=0)
        out = tmp_path / "out"
        assert cli.main(["convergence", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: delta_ph must be >= 1, got 0\n"
        assert not out.exists()

    def test_strong_coupling_flags_failures(self, tmp_path):
        # a hard-driven strong-coupling run keeps weight at the cutoff, so
        # the audit must flag the small truncations as failing
        cfg = write_config(tmp_path, N=2, g=1.5, Omega=1.5, eta=0.0, t_max=5.0,
                           dt=0.005, sample_stride=20)
        assert cli.main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "convergence.json").read_text())
        assert report["all_pass"] is False
        assert report["checks"][0]["pass"] is False


class TestParser:
    def test_seed_flag_rejected(self, tmp_path):
        # the engine is deterministic, so there is no seed to set
        cfg = write_config(tmp_path, **EVOLVE_CFG)
        with pytest.raises(SystemExit) as exc:
            cli.main(["--seed", "7", "evolve", "--config", cfg, "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evolve"])  # --config missing
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["explode"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["evolve", "sweep", "fit", "phase-diagram",
                                         "convergence"])
    def test_unusable_out_is_usage_error(self, tmp_path, capsys, monkeypatch, command, under):
        # an --out that is a file, or lies under one, is refused before any
        # propagation or ground-state solve
        def refuse(*args):
            raise AssertionError("work started before --out was resolved")

        for owner, name in [(cli, "propagate"), (cli, "static_hamiltonian"),
                            (cli.analysis, "convergence_check")]:
            monkeypatch.setattr(owner, name, refuse)
        taken = tmp_path / "taken"
        taken.write_text("")
        fit_csv = tmp_path / "sweep.csv"
        fit_csv.write_text("N,P_max\n1,1.0\n2,2.8\n3,5.2\n")
        cfg = {
            "evolve": EVOLVE_CFG,
            "sweep": dict(EVOLVE_CFG, N=[1, 2]),
            "phase-diagram": dict(N=1, N_ph=2, eta=[0.0], g=[0.1]),
            "convergence": dict(N=1, t_max=0.2, dt=0.01),
        }.get(command)
        source = [str(fit_csv)] if cfg is None else ["--config", write_config(tmp_path, **cfg)]
        out = taken / "sub" if under else taken
        assert cli.main([command, *source, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot create output directory {out}: ")
        assert taken.read_text() == ""

    @pytest.mark.parametrize("command, name", [("fit", "fit.json"), ("evolve", "trajectory.csv")])
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, command, name):
        # an output file that cannot be opened, here because a directory has
        # its name, exits 2 with a message instead of raising
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        fit_csv = tmp_path / "sweep.csv"
        fit_csv.write_text("N,P_max\n1,1.0\n2,2.8\n3,5.2\n")
        source = {"fit": [str(fit_csv)],
                  "evolve": ["--config", write_config(tmp_path, **EVOLVE_CFG)]}[command]
        assert cli.main([command, *source, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / name}: ")
        assert "Traceback" not in err

    def test_import_leaves_out_solvers_and_process_pool(self):
        # scipy.integrate serves only the oracle; scipy.sparse.linalg and the
        # scipy.linalg it brings serve only the ground-state solver; the
        # process pool and multiprocessing only --jobs > 1.  Importing them
        # with the CLI would add ~0.3 s, ~40 ms and ~8 MB of resident memory
        # to every start.  Nor does the import assemble: the model's
        # Kronecker terms and spin factors are built on first use.
        code = ("import sys, dickeqb.cli; from dickeqb import model; "
                f"print(*[m in sys.modules for m in {LAZY_MODULES!r}], "
                "model._kron_terms.cache_info().currsize, "
                "model.full_spin_terms.cache_info().currsize, "
                "model.even_spin_terms.cache_info().currsize)")
        out = run_python(code)
        assert out.split() == ["False"] * len(LAZY_MODULES) + ["0", "0", "0"]

    def test_propagation_commands_never_load_scipy_linalg(self, tmp_path):
        # evolve, sweep, fit and convergence run on NumPy and scipy.sparse
        # alone; phase-diagram then loads the solvers at its first solve,
        # on the dense path (dimension 6) and on ARPACK (dimension 36).
        assert 6 <= observables.DENSE_SOLVER_DIM < 36
        code = f"""
import json, sys
from pathlib import Path
from dickeqb import cli

tmp = Path({str(tmp_path)!r})
def run(name, command, *args, **config):
    path = tmp / (name + ".json")
    path.write_text(json.dumps(config))
    rc = cli.main([command, "--config", str(path), "--out", str(tmp / name), *args])
    assert rc == 0, (name, rc)

run("evolve", "evolve", N=2, g=0.2, Omega=0.4, eta=0.5, N_ph=3, n_init=1, t_max=0.5,
    dt=0.01, sample_stride=10)
assert "scipy.linalg" not in sys.modules, "evolve"
run("sweep", "sweep", "--jobs", "1", N=[1, 2, 3], g=0.2, Omega=0.3, eta=0.5, N_ph=3,
    n_init=1, t_max=0.5, dt=0.01, sample_stride=10)
assert cli.main(["fit", str(tmp / "sweep" / "sweep.csv"), "--out", str(tmp / "sweep")]) == 0
assert "scipy.linalg" not in sys.modules, "sweep and fit"
run("convergence", "convergence", N=1, g=0.2, Omega=0.3, t_max=0.5, dt=0.01,
    sample_stride=10)
assert "scipy.linalg" not in sys.modules, "convergence"
run("dense", "phase-diagram", N=1, N_ph=2, eta=[0.0], g=[0.4])
run("arpack", "phase-diagram", N=2, N_ph=8, eta=[0.5], g=[0.4])
assert "scipy.linalg" in sys.modules
"""
        run_python(code)
        for name, p in [("dense", ModelParams(N=1, N_ph=2, n_init=0, g=0.4)),
                        ("arpack", ModelParams(N=2, N_ph=8, eta=0.5, g=0.4))]:
            _, rows = read_csv(tmp_path / name / "phase_diagram.csv")
            ref = ground_state(static_hamiltonian(p), p.dims)
            assert float(rows[0]["magnetization"]) == pytest.approx(ref.magnetization, abs=1e-9)
            assert float(rows[0]["gap"]) == pytest.approx(ref.gap, abs=1e-9)
