import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dickeqb import cli
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


EVOLVE_CFG = dict(N=1, g=0.2, Omega=0.4, eta=0.0, N_ph=3, n_init=1,
                  t_max=1.0, dt=0.01, sample_stride=10)


class TestEvolve:
    def test_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **EVOLVE_CFG)
        rc = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "run")])
        assert rc == 0
        header, rows = read_csv(tmp_path / "run" / "trajectory.csv")
        assert header == ["t", "E_b", "P_b", "dE_b", "Jz_mean", "norm"]
        assert len(rows) == 11  # t=0 plus 10 sampled steps
        assert float(rows[0]["t"]) == 0.0
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

    def test_null_where_field_allows_none(self, tmp_path):
        cfg = write_config(tmp_path, **{**EVOLVE_CFG, "N_ph": None, "n_init": None, "T": None})
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0

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

    def test_grid_cap(self, tmp_path):
        cfg = write_config(tmp_path, N=[1, 2], g=[0.1, 0.2], grid_cap=3,
                           t_max=0.2, dt=0.01)
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("bad", [{"N": [1, "a"]}, {"g": [0.1, False]}, {"grid_cap": "x"}])
    def test_wrong_type_is_config_error(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path, **{"N": [1, 2], "g": 0.1, "t_max": 0.2, "dt": 0.01, **bad})
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: key")

    def test_missing_n(self, tmp_path):
        cfg = write_config(tmp_path, g=[0.1, 0.2])
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

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

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Serial)
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

    def test_linear_mode(self, tmp_path):
        csv_path = self.make_power_csv(tmp_path)
        assert cli.main(["fit", csv_path, "--mode", "linear", "--out", str(tmp_path)]) == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["mode"] == "linear"
        assert fit["slope"] == pytest.approx(0.9, abs=1e-12)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("N,P_max\n1,1.0\n2,2.0\n")
        assert cli.main(["fit", str(path), "--mode", "power", "--out", str(tmp_path)]) == 2

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("N,foo\n1,1\n2,2\n3,3\n")
        assert cli.main(["fit", str(path), "--mode", "power", "--out", str(tmp_path)]) == 2

    def test_several_cells_rejected(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        lines = ["g,Omega,eta,N,E_max,P_max,t_star_E,t_star_P"]
        for g in (0.1, 2):
            lines += [f"{g},1,0.8,{n},{0.9 * n},{g * n**1.5},1,1" for n in (1, 2, 3)]
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["fit", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "g=0.1 Omega=1 eta=0.8" in err and "g=2 Omega=1 eta=0.8" in err
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
        ref = ground_state(static_hamiltonian(ModelParams(N=2, eta=0.4, g=0.3, N_ph=4)))
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
        ref = ground_state(static_hamiltonian(ModelParams(N=4, N_ph=2, n_init=0, g=0.5)))
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
    def test_seed_flag_accepted(self, tmp_path):
        cfg = write_config(tmp_path, **EVOLVE_CFG)
        assert cli.main(["--seed", "7", "evolve", "--config", cfg,
                         "--out", str(tmp_path)]) == 0

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evolve"])  # --config missing
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["explode"])
        assert exc.value.code == 2

    def test_import_leaves_out_scipy_integrate(self):
        # scipy.integrate serves only the oracle; importing it with the CLI
        # would add ~0.3 s to every start.  Nor does the import assemble:
        # the model's term tables and spin factors are built on first use.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys, dickeqb.cli; from dickeqb import model; "
                "print('scipy.integrate' in sys.modules, model._term_table.cache_info().currsize, "
                "model._spin_terms.cache_info().currsize, "
                "model._even_spin_terms.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["False", "0", "0", "0"]
