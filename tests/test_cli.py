import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemostab import ModelState, measure_constants, run
from chemostab.cli import main
from chemostab.config import (
    apply_override,
    build_coefficients,
    build_grid,
    build_initial,
    build_params,
    build_stepper,
    config_hash,
    parse_config,
    serialize_config,
)
from chemostab.errors import ConfigError

BASE = """
grid:
  extents: [1.0]
  counts: [31]
params:
  chi: 0.0
  tau: 1.0
  lambda: 1.0
  mu: 1.0
a0: {kind: constant, value: 1.0}
a1: {kind: constant, value: 1.0}
a2: {kind: constant, value: 0.0}
initial:
  u: {profile: constant, value: 0.1}
  v: {profile: constant, value: 0.0}
stepper:
  error_tol: 1.0e-8
  dt_max: 0.5
experiment:
  t_end: 40.0
  sample_dt: 2.0
output:
  dir: OUTDIR
  name: flat
"""


def write_config(tmp_path, text=BASE, **extra):
    text = text.replace("OUTDIR", str(tmp_path / "out"))
    for key, val in extra.items():
        text += f"\n{key}: {val}\n"
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return path


def data_section(path: Path) -> str:
    return "".join(ln for ln in path.read_text().splitlines(keepends=True)
                   if not ln.startswith("#"))


class TestConfigParsing:
    def test_round_trip_equality(self):
        cfg = parse_config(BASE.replace("OUTDIR", "out"))
        again = parse_config(serialize_config(cfg))
        assert cfg == again
        assert config_hash(cfg) == config_hash(again)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as info:
            parse_config(BASE.replace("OUTDIR", "out") + "\nbogus: {a: 1}\n")
        assert "bogus" in str(info.value)

    def test_unknown_nested_key_named(self):
        bad = BASE.replace("OUTDIR", "out").replace("chi: 0.0", "chi: 0.0\n  wobble: 3")
        with pytest.raises(ConfigError) as info:
            parse_config(bad)
        assert "params.wobble" in str(info.value)

    def test_invalid_tau_named(self):
        bad = BASE.replace("OUTDIR", "out").replace("tau: 1.0", "tau: 0.0")
        with pytest.raises(ConfigError) as info:
            parse_config(bad)
        assert "params.tau" in str(info.value)

    def test_builders(self):
        cfg = parse_config(BASE.replace("OUTDIR", "out"))
        grid = build_grid(cfg)
        assert grid.counts == (31,)
        params = build_params(cfg)
        assert params.lam == 1.0
        coeffs = build_coefficients(cfg, grid)
        assert coeffs.a0.eval(0.0).values[0] == 1.0
        u0, v0 = build_initial(cfg, grid)
        assert u0.values[0] == 0.1 and v0.values[0] == 0.0

    def test_apply_override(self):
        cfg = parse_config(BASE.replace("OUTDIR", "out"))
        cfg2 = apply_override(cfg, "params.chi", 0.7)
        assert cfg2.params["chi"] == 0.7
        assert cfg.params["chi"] == 0.0
        with pytest.raises(ConfigError):
            apply_override(cfg, "params.nope", 1.0)

    def test_random_positive_profile_seeded(self):
        text = BASE.replace("OUTDIR", "out").replace(
            "u: {profile: constant, value: 0.1}",
            "u: {profile: random-positive, low: 0.2, high: 0.9, seed: 7}",
        )
        cfg = parse_config(text)
        grid = build_grid(cfg)
        u_a, _ = build_initial(cfg, grid)
        u_b, _ = build_initial(cfg, grid)
        assert np.array_equal(u_a.values, u_b.values)
        assert 0.2 <= u_a.min() and u_a.max() <= 0.9
        u_c, _ = build_initial(cfg, grid, seed_override=8)
        assert not np.array_equal(u_a.values, u_c.values)


class TestTabulatedAndFileInputs:
    def test_tabulated_coefficient_from_csv(self, tmp_path):
        n = 31
        table = tmp_path / "a0.csv"
        rows = []
        for t, level in ((0.0, 1.0), (10.0, 2.0)):
            rows.append(",".join([str(t)] + [str(level)] * n))
        table.write_text("\n".join(rows) + "\n")
        text = BASE.replace(
            "a0: {kind: constant, value: 1.0}",
            f"a0: {{kind: tabulated, table_file: {table}, clamp: true}}",
        )
        cfg = parse_config(text.replace("OUTDIR", "out"))
        grid = build_grid(cfg)
        coeffs = build_coefficients(cfg, grid)
        assert coeffs.a0.eval(5.0).values[0] == pytest.approx(1.5)
        assert coeffs.a0.global_envelope((0.0, 10.0), 10) == (1.0, 2.0)

    def test_tabulated_wrong_columns_named(self, tmp_path):
        table = tmp_path / "bad.csv"
        table.write_text("0.0,1.0,2.0\n1.0,1.0,2.0\n")
        text = BASE.replace(
            "a0: {kind: constant, value: 1.0}",
            f"a0: {{kind: tabulated, table_file: {table}, clamp: true}}",
        )
        cfg = parse_config(text.replace("OUTDIR", "out"))
        with pytest.raises(ConfigError) as info:
            build_coefficients(cfg, build_grid(cfg))
        assert "a0.table_file" in str(info.value)

    def test_initial_from_file(self, tmp_path):
        n = 31
        data = tmp_path / "u0.csv"
        vals = np.linspace(0.2, 0.8, n)
        data.write_text("\n".join(str(v) for v in vals) + "\n")
        text = BASE.replace(
            "u: {profile: constant, value: 0.1}",
            f"u: {{profile: file, path: {data}}}",
        )
        cfg = parse_config(text.replace("OUTDIR", "out"))
        u0, _ = build_initial(cfg, build_grid(cfg))
        assert np.allclose(u0.values, vals)


class TestSimulate:
    def test_flat_logistic_final_state(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "simulate complete" in out
        finals = list((tmp_path / "out").glob("flat_*_final.csv"))
        assert len(finals) == 1
        rows = np.loadtxt(finals[0], delimiter=",", skiprows=4)
        u = rows[:, 1]
        assert np.max(np.abs(u - 1.0)) < 1e-6

    def test_zero_length_run_single_row(self, tmp_path):
        cfg_path = write_config(tmp_path, text=BASE.replace("t_end: 40.0", "t_end: 0.0"))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        series = list((tmp_path / "out").glob("flat_*_series.csv"))[0]
        data = data_section(series).strip().splitlines()
        assert len(data) == 2  # header + single sample

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = BASE.replace("tau: 1.0", "tau: 0.0")
        cfg_path = write_config(tmp_path, text=bad)
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "params.tau" in err

    @pytest.mark.parametrize("command,old,new,key", [
        pytest.param("simulate", "sample_dt: 2.0", "sample_dt: 0", "experiment.sample_dt",
                     id="sample_dt-zero"),
        pytest.param("simulate", "t_end: 40.0", "t_end: .inf", "experiment.t_end",
                     id="t_end-inf"),
        pytest.param("simulate", "t_end: 40.0", "t_end: .nan", "experiment.t_end",
                     id="t_end-nan"),
        pytest.param("simulate", "t_end: 40.0", "t_end: -1", "experiment.t_end",
                     id="t_end-negative"),
        pytest.param("simulate", "counts: [31]", "counts: [21.7]", "grid.counts",
                     id="counts-fractional"),
        pytest.param("simulate", "sample_dt: 2.0", "sample_dt: 2.0\n  n_samples: 1",
                     "experiment.n_samples", id="n_samples-one"),
        pytest.param("simulate", "sample_dt: 2.0", "sample_dt: 2.0\n  gap_tolerance: 0",
                     "experiment.gap_tolerance", id="gap_tolerance-zero"),
        pytest.param("stability-experiment", "t_end: 40.0", "t_end: 0.0", "experiment.t_end",
                     id="experiment-t_end-zero"),
        pytest.param("stability-experiment", "window: [0.0, 40.0]", "window: [0.0, .inf]",
                     "experiment.window", id="window-inf"),
        pytest.param("simulate", "chi: 0.0", "chi: .nan", "params.chi", id="chi-nan"),
        pytest.param("simulate", "chi: 0.0", "chi: .inf", "params.chi", id="chi-inf"),
        pytest.param("stability-experiment", "burn_ins: [8.0, 8.0, 8.0]",
                     "burn_ins: [-1.0, 8.0, 8.0]", "experiment.burn_ins", id="burn_ins-negative"),
        pytest.param("stability-experiment", "burn_ins: [8.0, 8.0, 8.0]",
                     "burn_ins: [.nan, 8.0, 8.0]", "experiment.burn_ins", id="burn_ins-nan"),
        pytest.param("stability-experiment", "burn_ins: [8.0, 8.0, 8.0]",
                     "burn_ins: [8.0, 8.0, 50.0]", "experiment.burn_ins",
                     id="burn_ins-beyond-t_end"),
        pytest.param("stability-experiment", "n_samples: 201", "n_samples: 201\n  t_back: .inf",
                     "experiment.t_back", id="t_back-inf"),
        pytest.param("stability-experiment", "n_samples: 201", "n_samples: 201\n  t_back: .nan",
                     "experiment.t_back", id="t_back-nan"),
        pytest.param("stability-experiment", "n_samples: 201", "n_samples: 201\n  t_back: -1",
                     "experiment.t_back", id="t_back-negative"),
        pytest.param("stability-experiment", "n_samples: 201", "n_samples: 201\n  eps: .nan",
                     "experiment.eps", id="eps-nan"),
        pytest.param("stability-experiment", "n_samples: 201", "n_samples: 201\n  eps: .inf",
                     "experiment.eps", id="eps-inf"),
        pytest.param("simulate", "error_tol: 1.0e-8", "error_tol: .nan", "stepper: error_tol",
                     id="error_tol-nan"),
    ])
    def test_bad_value_named_without_traceback(self, tmp_path, capsys, command, old, new, key):
        text = EXPERIMENT if command == "stability-experiment" else BASE
        cfg_path = write_config(tmp_path, text=text.replace(old, new))
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err

    def test_missing_config_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent.yaml"]) == 1

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path)
        main(["simulate", "--config", str(cfg_path)])
        series = list((tmp_path / "out").glob("flat_*_series.csv"))[0]
        first = data_section(series)
        main(["simulate", "--config", str(cfg_path)])
        assert data_section(series) == first


STABILITY = """
grid:
  extents: [1.0]
  counts: [11]
params:
  chi: 0.0
  tau: 1.0
  lambda: 1.0
  mu: 1.0
a0: {kind: constant, value: 1.0}
a1: {kind: constant, value: 1.0}
a2: {kind: constant, value: 0.0}
experiment:
  window: [0.0, 10.0]
  n_samples: 101
  constants: {M2: 1.0, eta: 0.9, C3_tilde: 1.0}
output:
  dir: OUTDIR
  name: crit
"""


class TestStability:
    def test_verdict_line(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, text=STABILITY)
        assert main(["stability", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "criterion_holds theta=-0.3"
        reports = list((tmp_path / "out").glob("crit_*_stability.csv"))
        assert len(reports) == 1

    def test_missing_constants_inconclusive_exit_zero(self, tmp_path, capsys):
        text = STABILITY.replace("  constants: {M2: 1.0, eta: 0.9, C3_tilde: 1.0}\n", "")
        # chi=0 so no convex-formula M2 either (H2 needs chi>0)
        cfg_path = write_config(tmp_path, text=text)
        assert main(["stability", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("inconclusive")

    def test_convex_formula_provenance(self, tmp_path, capsys):
        text = STABILITY.replace("chi: 0.0", "chi: 1.0").replace(
            "  constants: {M2: 1.0, eta: 0.9, C3_tilde: 1.0}\n", "")
        cfg_path = write_config(tmp_path, text=text)
        assert main(["stability", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "M2=3 (convex-formula)" in out

    def test_cq1_pairs_reach_h1(self, tmp_path, capsys):
        text = STABILITY.replace("chi: 0.0", "chi: 0.3").replace(
            "experiment:", "experiment:\n  cq1_pairs: [[1.5, 8.0]]")
        cfg_path = write_config(tmp_path, text=text)
        assert main(["stability", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        h1_line = next(ln for ln in out.splitlines() if ln.startswith("H1:"))
        assert "holds" in h1_line
        assert "drift_margin=0.77026" in h1_line

    def test_missing_cq1_prints_h1_inconclusive(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, text=STABILITY.replace("chi: 0.0", "chi: 0.3"))
        assert main(["stability", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        h1_line = next(ln for ln in out.splitlines() if ln.startswith("H1:"))
        assert "inconclusive" in h1_line

    def test_measured_constants_default_burn_in(self, tmp_path, capsys):
        # u decays from 3 toward 1, so the bounds depend on the burn-in;
        # without burn_ins the measurement skips the first t_end/6
        text = STABILITY.replace("  constants: {M2: 1.0, eta: 0.9, C3_tilde: 1.0}\n",
                                 "  measure: true\n")
        text += "initial:\n  u: {profile: constant, value: 3.0}\n"
        cfg_path = write_config(tmp_path, text=text)
        assert main(["stability", "--config", str(cfg_path)]) == 0
        printed = [ln for ln in capsys.readouterr().out.splitlines() if "(measured)" in ln]

        cfg = parse_config(cfg_path.read_text())
        grid = build_grid(cfg)
        u0, v0 = build_initial(cfg, grid)
        t_end = cfg.experiment["t_end"]
        traj = run(ModelState(0.0, u0, v0), t_end, build_coefficients(cfg, grid),
                   build_params(cfg), build_stepper(cfg))
        expected = measure_constants([traj], (t_end / 6.0,) * 3)
        assert printed == [f"{name}={getattr(expected, name):.6g} (measured)"
                           for name in ("M1", "M2", "eta", "C3_tilde")]


SWEEP = STABILITY + """
"""


class TestSweep:
    def sweep_config(self, tmp_path, threads=1):
        text = STABILITY.replace(
            "constants: {M2: 1.0, eta: 0.9, C3_tilde: 1.0}",
            "constants: {M2: 3.0, eta: 0.9, C3_tilde: 1.0}",
        ).replace(
            "experiment:",
            "experiment:\n  sweep:\n    axes:\n      params.chi: [0.0, 0.1, 0.2, 0.5]",
        )
        return write_config(tmp_path, text=text)

    def test_h3_flip(self, tmp_path, capsys):
        cfg_path = self.sweep_config(tmp_path)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        rows = [ln.split(",") for ln in capsys.readouterr().out.strip().splitlines()]
        by_chi = {float(r[0]): r[3] for r in rows}
        assert by_chi[0.0] == "holds"
        assert by_chi[0.1] == "holds"
        assert by_chi[0.2] == "holds"
        assert by_chi[0.5] == "fails"

    def test_single_point_matches_stability(self, tmp_path, capsys):
        text = STABILITY.replace(
            "experiment:",
            "experiment:\n  sweep:\n    axes:\n      params.chi: [0.0]",
        )
        cfg_path = write_config(tmp_path, text=text)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        row = capsys.readouterr().out.strip().splitlines()[0].split(",")
        assert row[-2] == "criterion_holds"
        assert float(row[-3]) == pytest.approx(-0.3, abs=1e-12)

    def test_worker_count_invariance(self, tmp_path, capsys):
        cfg_path = self.sweep_config(tmp_path)
        main(["sweep", "--config", str(cfg_path), "--threads", "1"])
        first = capsys.readouterr().out
        main(["sweep", "--config", str(cfg_path), "--threads", "4"])
        second = capsys.readouterr().out
        assert first == second

    def test_missing_axes_is_config_error(self, tmp_path):
        cfg_path = write_config(tmp_path, text=STABILITY)
        assert main(["sweep", "--config", str(cfg_path)]) == 1

    def test_bad_point_recorded_and_sweep_continues(self, tmp_path, capsys):
        text = STABILITY.replace(
            "experiment:",
            "experiment:\n  sweep:\n    axes:\n      params.tau: [1.0, 0.0, 0.5]",
        )
        cfg_path = write_config(tmp_path, text=text)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        rows = [ln.split(",") for ln in capsys.readouterr().out.strip().splitlines()]
        assert len(rows) == 3
        by_tau = {float(r[0]): r for r in rows}
        assert by_tau[0.0][-2] == "error"
        assert "params.tau" in by_tau[0.0][-1]
        assert by_tau[1.0][-2] == "criterion_holds"
        assert by_tau[0.5][-2] != "error"


EXPERIMENT = """
grid:
  extents: [1.0]
  counts: [11]
params:
  chi: 0.05
  tau: 1.0
  lambda: 1.0
  mu: 1.0
a0: {kind: constant, value: 1.0}
a1: {kind: constant, value: 1.0}
a2: {kind: constant, value: 0.0}
stepper:
  error_tol: 1.0e-6
  dt_max: 0.25
experiment:
  t_end: 40.0
  sample_dt: 0.2
  window: [0.0, 40.0]
  n_samples: 201
  burn_ins: [8.0, 8.0, 8.0]
  fit_window: [8.0, 30.0]
  seeds:
    - {u: {profile: constant, value: 0.1}, v: {profile: constant, value: 0.0}}
    - {u: {profile: constant, value: 5.0}, v: {profile: constant, value: 0.0}}
output:
  dir: OUTDIR
  name: exp
"""


class TestStabilityExperiment:
    def test_summary_and_outputs(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, text=EXPERIMENT)
        assert main(["stability-experiment", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "pairwise_gap_final=" in out
        assert "gap_ok=true" in out
        assert "rate_le_theta_plus_eps=true" in out
        assert "conclusion=criterion_holds" in out
        assert "np.float64" not in out  # summary carries plain floats
        outdir = tmp_path / "out"
        assert list(outdir.glob("exp_*_gap_0_1.csv"))
        assert list(outdir.glob("exp_*_persistence.csv"))
        assert list(outdir.glob("exp_*_bounds_0.csv"))
        assert list(outdir.glob("exp_*_stability.csv"))

    def test_failing_pullback_gate_writes_nothing(self, tmp_path, capsys):
        # t_back = t_end / 2 = 1 leaves the two seeds far apart (gap about 0.5)
        text = (EXPERIMENT.replace("t_end: 40.0", "t_end: 2.0")
                .replace("  window: [0.0, 40.0]\n", "").replace("  burn_ins: [8.0, 8.0, 8.0]\n", "")
                .replace("  fit_window: [8.0, 30.0]\n", "")
                .replace("value: 0.1}, v:", "value: 0.5}, v:").replace("value: 5.0}, v:", "value: 2.0}, v:"))
        cfg_path = write_config(tmp_path, text=text)
        assert main(["stability-experiment", "--config", str(cfg_path)]) == 2
        assert "gap" in capsys.readouterr().err
        outdir = tmp_path / "out"
        assert not outdir.exists() or not any(outdir.iterdir())

    def test_single_seed_rejected(self, tmp_path):
        text = EXPERIMENT.replace(
            "    - {u: {profile: constant, value: 5.0}, v: {profile: constant, value: 0.0}}\n",
            "")
        cfg_path = write_config(tmp_path, text=text)
        assert main(["stability-experiment", "--config", str(cfg_path)]) == 1

    RANDOM_SEEDS = (
        "    - {u: {profile: random-positive, low: 0.9, high: 1.1, seed: 1}}\n"
        "    - {u: {profile: random-positive, low: 0.9, high: 1.1, seed: SECOND}}\n"
    )

    def random_seed_config(self, tmp_path, second):
        text = EXPERIMENT.replace(
            "    - {u: {profile: constant, value: 0.1}, v: {profile: constant, value: 0.0}}\n"
            "    - {u: {profile: constant, value: 5.0}, v: {profile: constant, value: 0.0}}\n",
            self.RANDOM_SEEDS.replace("SECOND", str(second)),
        ).replace("t_end: 40.0", "t_end: 10.0\n  t_back: 0").replace(
            "fit_window: [8.0, 30.0]", "fit_window: [1.0, 6.0]").replace(
            "error_tol: 1.0e-6", "error_tol: 1.0e-4")
        return write_config(tmp_path, text=text)

    def test_seed_override_keeps_declared_seeds_distinct(self, tmp_path, capsys):
        cfg_path = self.random_seed_config(tmp_path, second=2)
        assert main(["stability-experiment", "--config", str(cfg_path), "--seed", "7"]) == 0
        out = capsys.readouterr().out
        gap = float(out.split("pairwise_gap_final=")[1].split()[0])
        assert gap > 0.0
        assert "fitted_rate=-inf" not in out

    def test_identical_seed_states_rejected(self, tmp_path, capsys):
        cfg_path = self.random_seed_config(tmp_path, second=1)
        assert main(["stability-experiment", "--config", str(cfg_path)]) == 1
        assert "experiment.seeds" in capsys.readouterr().err

    def test_positive_theta_marks_rate_not_applicable(self, tmp_path, capsys):
        # pinning a tiny eta makes L1 small and theta positive
        text = EXPERIMENT.replace(
            "experiment:",
            "experiment:\n  constants: {eta: 0.01, M2: 1.2, C3_tilde: 1.1}",
        )
        cfg_path = write_config(tmp_path, text=text)
        assert main(["stability-experiment", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "rate_le_theta_plus_eps=not-applicable" in out
        assert "conclusion=criterion_fails" in out


class TestConverge:
    def test_orders_reported(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["converge", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "spatial_orders=" in out
        assert "temporal_order=" in out
        # theta=0.5 by default: second order in both space and time
        spatial = json.loads(out.splitlines()[0].split("=")[1])
        assert all(1.8 <= o <= 2.2 for o in spatial)
        temporal = float(out.splitlines()[1].split("=")[1].split()[0])
        assert 1.8 <= temporal <= 2.2


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, chemostab.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


FUZZ_KEYS = ("grid.counts", "experiment.t_end", "experiment.sample_dt", "experiment.n_samples",
             "experiment.gap_tolerance", "params.chi", "params.tau", "params.lambda",
             "params.mu")


@given(
    command=st.sampled_from(["simulate", "stability", "stability-experiment"]),
    key=st.sampled_from(FUZZ_KEYS),
    value=st.sampled_from([0, -1, 0.5, 21.7, math.nan, math.inf, "x"]),
)
@example(command="simulate", key="experiment.t_end", value=math.inf)
@settings(max_examples=40, deadline=None)
def test_cli_fuzz_exit_codes(command, key, value):
    # any single bad number ends in a documented exit code, never an exception
    cfg = yaml.safe_load(EXPERIMENT)
    cfg["grid"]["counts"] = [11]
    cfg["stepper"]["error_tol"] = 1.0e-3
    cfg["experiment"].update(t_end=0.5, sample_dt=0.1, window=[0.0, 0.5],
                             burn_ins=[0.1, 0.1, 0.1], fit_window=[0.1, 0.4])
    block, leaf = key.split(".")
    cfg[block][leaf] = [value] if leaf == "counts" else value
    with tempfile.TemporaryDirectory() as tmp:
        cfg["output"]["dir"] = tmp
        path = Path(tmp) / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main([command, "--config", str(path)]) in (0, 1, 2)
