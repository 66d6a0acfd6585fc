import contextlib
import copy
import dataclasses
import hashlib
import importlib
import io
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

from chemostab import (
    Grid,
    KnownConstants,
    ModelParams,
    ModelState,
    TimeFactor,
    measure_constants,
    run,
)
from chemostab import __version__, cli
from chemostab.cli import main
from chemostab.config import (
    _normalize,
    apply_override,
    build_coefficients,
    build_grid,
    build_initial,
    build_params,
    build_stepper,
    parse_config,
    serialize_config,
    with_seed,
)
from chemostab.errors import ConfigError
from oracles import apply_override_via_yaml, initial_profile_chain, report_csv_reference

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


HUGE = "1" + "0" * 400  # a YAML integer too large for a float


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


def metadata(cfg) -> str:
    """The two '#' lines that open every output file of ``cfg``."""
    return f"# chemostab {__version__}\n# config_hash: {cfg.content_hash}\n"


def assert_report_file(cfg_path: Path, report, pattern: str) -> None:
    """The stability CSV is the metadata lines, then the old serializer's text, byte for byte."""
    (path,) = (cfg_path.parent / "out").glob(pattern)
    meta = metadata(parse_config(cfg_path.read_text()))
    assert path.read_bytes() == (meta + report_csv_reference(report)).encode()


def written_csv(tmp_path, kind: str, header: str, **body) -> bytes:
    """The bytes ``cli._write_csv`` writes for ``kind`` of the BASE config, under tmp_path."""
    cfg = parse_config(BASE.replace("OUTDIR", "out"))
    cli._write_csv(cfg, str(tmp_path), kind, header, **body)
    text = (tmp_path / f"flat_{cfg.content_hash}_{kind}.csv").read_bytes()
    assert text.startswith(metadata(cfg).encode())
    return text


class TestConfigParsing:
    def test_round_trip_equality(self):
        cfg = parse_config(BASE.replace("OUTDIR", "out"))
        again = parse_config(serialize_config(cfg))
        assert cfg == again
        assert cfg.content_hash == again.content_hash

    @pytest.mark.parametrize("name,expected", [("BASE", "8b16f8dd51c8"),
                                               ("EXPERIMENT", "6e494446595e")])
    def test_content_hash_pinned(self, name, expected):
        # the hash covers every default of the normalized config, so adding or
        # removing a config key moves it (and every output file name) on purpose
        text = {"BASE": BASE, "EXPERIMENT": EXPERIMENT}[name]
        assert parse_config(text.replace("OUTDIR", "out")).content_hash == expected

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

    @pytest.mark.parametrize("build,field,old,new,key", [
        pytest.param(lambda: Grid((1.0,) * 3, (5,) * 3), "extents", "extents: [1.0]\n  counts: [31]",
                     "extents: [1.0, 1.0, 1.0]\n  counts: [5, 5, 5]", "grid.extents", id="grid-3-axes"),
        pytest.param(lambda: Grid((1.0,), (2,)), "counts", "counts: [31]", "counts: [2]",
                     "grid.counts", id="grid-2-nodes"),
        pytest.param(lambda: ModelParams(chi=0.0, tau=1.0, lam=0.0, mu=1.0), "lambda",
                     "lambda: 1.0", "lambda: 0.0", "params.lambda", id="params-lambda-zero"),
        pytest.param(lambda: ModelParams(chi=math.nan, tau=1.0, lam=1.0, mu=1.0), "chi",
                     "chi: 0.0", "chi: .nan", "params.chi", id="params-chi-nan"),
        pytest.param(lambda: TimeFactor("sinusoid", frequency=-1.0), "frequency",
                     "a0: {kind: constant, value: 1.0}",
                     "a0: {kind: separable, time: {form: sinusoid, frequency: -1.0}}",
                     "a0.time.frequency", id="time-frequency-negative"),
        pytest.param(lambda: TimeFactor("expdecay", rate=math.inf), "rate",
                     "a0: {kind: constant, value: 1.0}",
                     "a0: {kind: separable, time: {form: expdecay, rate: .inf}}",
                     "a0.time.rate", id="time-rate-inf"),
        pytest.param(lambda: TimeFactor("wobble"), "form", "a0: {kind: constant, value: 1.0}",
                     "a0: {kind: separable, time: {form: wobble}}", "a0.time.form",
                     id="time-form-unknown"),
        pytest.param(lambda: KnownConstants(M2=0.0), "M2", "sample_dt: 2.0",
                     "sample_dt: 2.0\n  constants: {M2: 0.0}", "experiment.constants.M2",
                     id="constants-M2-zero"),
        pytest.param(lambda: KnownConstants(M2=0.5, eta=1.0), "M2", "sample_dt: 2.0",
                     "sample_dt: 2.0\n  constants: {M2: 0.5, eta: 1.0}",
                     "experiment.constants.M2", id="constants-M2-below-eta"),
    ])
    def test_type_keys_its_error(self, build, field, old, new, key):
        # the type that holds a value judges it, keyed by the field; the
        # config re-keys that error under the block, with the same message
        with pytest.raises(ConfigError) as held:
            build()
        assert held.value.key == field
        assert old in BASE
        with pytest.raises(ConfigError) as parsed:
            parse_config(BASE.replace("OUTDIR", "out").replace(old, new))
        assert (parsed.value.key, parsed.value.message) == (key, held.value.message)

    def test_builders(self):
        cfg = parse_config(BASE.replace("OUTDIR", "out"))
        grid = build_grid(cfg)
        assert grid.counts == (31,)
        params = build_params(cfg)
        assert params.lam == 1.0
        coeffs = build_coefficients(cfg, grid)
        assert coeffs.a0.eval(0.0)[0] == 1.0
        u0, v0 = build_initial(cfg, grid)
        assert u0[0] == 0.1 and v0[0] == 0.0

    def test_apply_override(self):
        cfg = parse_config(BASE.replace("OUTDIR", "out"))
        cfg2 = apply_override(cfg, {"params.chi": 0.7})
        assert cfg2.params["chi"] == 0.7
        assert cfg.params["chi"] == 0.0
        with pytest.raises(ConfigError):
            apply_override(cfg, {"params.nope": 1.0})

    @pytest.mark.parametrize("old,new,message", [
        pytest.param("initial:\n  u: {profile: constant, value: 0.1}\n"
                     "  v: {profile: constant, value: 0.0}",
                     "initial: [1, 2]", "initial: expected a mapping, got list",
                     id="initial-not-mapping"),
        pytest.param("experiment:\n  t_end: 40.0\n  sample_dt: 2.0", "experiment: {seeds: [3]}",
                     "experiment.seeds[0]: expected a mapping", id="seed-not-mapping"),
        pytest.param("u: {profile: constant, value: 0.1}", "u: {profile: wobble}",
                     "initial.u.profile: unknown initial profile 'wobble'",
                     id="initial-unknown-profile"),
        pytest.param("experiment:\n  t_end: 40.0",
                     "experiment:\n  seeds:\n    - u: {profile: wobble}\n  t_end: 40.0",
                     "experiment.seeds[0].u.profile: unknown initial profile 'wobble'",
                     id="seed-unknown-profile"),
        pytest.param("a0: {kind: constant, value: 1.0}",
                     "a0: {kind: separable, space: {profile: wobble}}",
                     "a0.space.profile: unknown spatial profile 'wobble'",
                     id="space-unknown-profile"),
        pytest.param("a0: {kind: constant, value: 1.0}",
                     "a0: {kind: separable, space: {profile: sine, mode: 1.5}}",
                     "a0.space.mode: expected an integer, got 1.5", id="space-fractional-mode"),
        pytest.param("u: {profile: constant, value: 0.1}", "u: {profile: bump, center: [0.5, x]}",
                     "initial.u.center: expected numbers, got [0.5, 'x']",
                     id="initial-non-numeric-center"),
        pytest.param("u: {profile: constant, value: 0.1}", "u: {profile: random-positive, seed: []}",
                     "initial.u.seed: expected an integer or a non-empty list of integers",
                     id="seed-empty-list"),
        pytest.param("u: {profile: constant, value: 0.1}",
                     "u: {profile: random-positive, seed: [1, 1.5]}",
                     "initial.u.seed: expected an integer, got 1.5", id="seed-fractional-entry"),
        pytest.param("u: {profile: constant, value: 0.1}",
                     "u: {profile: random-positive, seed: [[1]]}",
                     "initial.u.seed: not a number: [1]", id="seed-nested-list"),
    ])
    def test_profile_error_messages(self, old, new, message):
        assert old in BASE
        with pytest.raises(ConfigError) as info:
            parse_config(BASE.replace("OUTDIR", "out").replace(old, new))
        assert str(info.value) == message

    def test_random_positive_profile_seeded(self):
        text = BASE.replace("OUTDIR", "out").replace(
            "u: {profile: constant, value: 0.1}",
            "u: {profile: random-positive, low: 0.2, high: 0.9, seed: 7}",
        )
        cfg = parse_config(text)
        grid = build_grid(cfg)
        u_a, _ = build_initial(cfg, grid)
        u_b, _ = build_initial(cfg, grid)
        assert np.array_equal(u_a, u_b)
        assert 0.2 <= u_a.min() and u_a.max() <= 0.9
        u_c, _ = build_initial(with_seed(cfg, 8), grid)
        assert not np.array_equal(u_a, u_c)


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
        assert coeffs.a0.eval(5.0)[0] == pytest.approx(1.5)
        assert coeffs.a0.global_envelope((0.0, 10.0)) == (1.0, 2.0)

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
        assert np.allclose(u0, vals)

    @pytest.mark.parametrize("command,old,values,key", [
        pytest.param("simulate", "u: {profile: constant, value: 0.1}", [0.5] * 20,
                     "initial.u.path", id="wrong-size"),
        pytest.param("simulate", "v: {profile: constant, value: 0.0}",
                     [0.5] * 15 + [math.nan] + [0.5] * 15, "initial.v.path", id="non-finite"),
        pytest.param("stability-experiment", "u: {profile: constant, value: 5.0}", [0.5] * 20,
                     "experiment.seeds", id="seed-wrong-size"),
    ])
    def test_bad_initial_file_named(self, tmp_path, capsys, command, old, values, key):
        data = tmp_path / "field.csv"
        data.write_text("\n".join(str(v) for v in values) + "\n")
        text = EXPERIMENT if command == "stability-experiment" else BASE
        new = old.split(":")[0] + f": {{profile: file, path: {data}}}"
        cfg_path = write_config(tmp_path, text=text.replace(old, new))
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err

    def test_non_numeric_table_named_at_build(self, tmp_path):
        table = tmp_path / "a0.csv"
        table.write_text("0.0,a,b\n")
        text = BASE.replace(
            "a0: {kind: constant, value: 1.0}",
            f"a0: {{kind: tabulated, table_file: {table}, clamp: true}}",
        )
        cfg = parse_config(text.replace("OUTDIR", "out"))
        with pytest.raises(ConfigError) as info:
            build_coefficients(cfg, build_grid(cfg))
        assert "a0.table_file" in str(info.value)

    @pytest.mark.parametrize("command,old,new,key", [
        pytest.param("simulate", "u: {profile: constant, value: 0.1}",
                     "u: {profile: constant, value: .nan}", "initial.u:", id="nan-constant"),
        pytest.param("simulate", "u: {profile: constant, value: 0.1}",
                     "u: {profile: bump, width: 0.0}", "initial.u:", id="zero-width-bump"),
        pytest.param("stability-experiment", "u: {profile: constant, value: 5.0}",
                     "u: {profile: bump, width: 0.0}", "experiment.seeds[1].u:",
                     id="seed-zero-width-bump"),
        pytest.param("simulate", "a0: {kind: constant, value: 1.0}",
                     "a0: {kind: separable, space: {profile: gaussian-bump, width: 0.0}}",
                     "a0.space:", id="space-zero-width-bump"),
        pytest.param("simulate", "a0: {kind: constant, value: 1.0}",
                     "a0: {kind: separable, space: {profile: constant, value: .nan}}",
                     "a0.space:", id="space-nan-constant"),
    ])
    def test_non_finite_profile_named(self, tmp_path, capsys, command, old, new, key):
        # RuntimeWarning is an error under the test settings, so none may escape either
        text = EXPERIMENT if command == "stability-experiment" else BASE
        cfg_path = write_config(tmp_path, text=text.replace(old, new))
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert key in err and "non-finite" in err
        assert "Traceback" not in err

    def test_non_finite_table_named_at_build(self, tmp_path):
        table = tmp_path / "a0.csv"
        levels = ["1.0"] * 31
        levels[12] = "nan"
        table.write_text("0.0," + ",".join(["1.0"] * 31) + "\n10.0," + ",".join(levels) + "\n")
        text = BASE.replace(
            "a0: {kind: constant, value: 1.0}",
            f"a0: {{kind: tabulated, table_file: {table}, clamp: true}}",
        )
        cfg = parse_config(text.replace("OUTDIR", "out"))
        with pytest.raises(ConfigError) as info:
            build_coefficients(cfg, build_grid(cfg))
        assert "a0.table_file" in str(info.value)


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

    def test_column_writer_matches_cell_path(self, tmp_path):
        # the one-pass column formatting writes the same bytes as _cell per value
        from chemostab.grid import Grid

        grid = Grid((1.0, 2.0), (17, 19))  # more nodes than one formatting block
        x, y = grid.coords()
        u = np.cos(3.0 * x) * np.exp(y)
        u.flat[[0, 7, 100, 256, 300, 322]] = [0.0, 1e16, 1.5e-07, -0.0, 5e-324, 0.1 + 0.2]
        columns = (x, y, u, u[::-1] * 0.3)
        rows = zip(*(a.ravel() for a in columns))  # numpy scalars, as _cell takes them
        cells = written_csv(tmp_path, "cells", "x,y,u,v", rows=rows, block=["# meta"])
        text = written_csv(tmp_path, "columns", "x,y,u,v", columns=columns, block=["# meta"])
        assert text == cells
        assert b",0.0," in text and b",1e+16," in text and b",1.5e-07," in text

    @pytest.mark.parametrize("axes", [
        ((1.0,), (37,)),
        ((1.0, 2.0), (17, 19)),
    ])
    def test_coordinate_texts_match_numeric_columns(self, tmp_path, axes):
        # each distinct coordinate is formatted once, to the text of every node's value
        from types import SimpleNamespace

        from chemostab.cli import _coord_texts
        from chemostab.grid import Grid

        grid = Grid(*axes)
        u = np.cos(3.0 * grid.coords()[0])
        for g in (grid, SimpleNamespace(axis_coords=tuple(-a[::-1] for a in grid.axis_coords))):
            x = np.meshgrid(*g.axis_coords, indexing="ij")  # -0.0 leads the second grid
            numeric = written_csv(tmp_path, "numeric", "x,u", columns=(*x, u))
            text = written_csv(tmp_path, "text", "x,u", columns=(*_coord_texts(g), u))
            assert text == numeric
        assert b"\n-0.0," in text

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
        pytest.param("simulate", "extents: [1.0]", "extents: [.inf]", "grid.extents",
                     id="extents-inf"),
        pytest.param("simulate", "sample_dt: 2.0", "sample_dt: 2.0\n  n_samples: 1",
                     "experiment.n_samples", id="n_samples-one"),
        pytest.param("simulate", "sample_dt: 2.0", "sample_dt: 2.0\n  gap_tolerance: 0",
                     "experiment.gap_tolerance", id="gap_tolerance-zero"),
        pytest.param("stability-experiment", "t_end: 40.0", "t_end: 0.0", "experiment.t_end",
                     id="experiment-t_end-zero"),
        pytest.param("stability-experiment", "window: [0.0, 40.0]", "window: [0.0, .inf]",
                     "experiment.window", id="window-inf"),
        pytest.param("stability", "t_end: 40.0", "t_end: 0.0", "experiment.window",
                     id="default-window-empty"),
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
        pytest.param("simulate", "error_tol: 1.0e-8", "error_tol: .nan", "stepper.error_tol",
                     id="error_tol-nan"),
        pytest.param("simulate", "error_tol: 1.0e-8", "error_tol: 1.0e-8\n  safety: 2.0",
                     "stepper.safety", id="safety-above-one"),
        pytest.param("simulate", "dt_max: 0.5", "dt_max: 0.5\n  dt_init: 1.0",
                     "stepper.dt_init", id="dt_init-above-dt_max"),
        pytest.param("simulate", "dt_max: 0.5", "dt_max: 0.5\n  dt_min: -1.0",
                     "stepper.dt_min", id="dt_min-negative"),
        pytest.param("simulate", "dt_max: 0.5", "dt_max: 0.5\n  dt_min: 0.0",
                     "stepper.dt_min", id="dt_min-zero"),
        pytest.param("simulate", "dt_max: 0.5", "dt_max: 0.5\n  dt_min: .nan",
                     "stepper.dt_min", id="dt_min-nan"),
        pytest.param("simulate", "dt_max: 0.5", "dt_max: .nan", "stepper.dt_max",
                     id="dt_max-nan"),
        pytest.param("simulate", "dt_max: 0.5", "dt_max: 0.5\n  positivity_floor: 0.0",
                     "stepper.positivity_floor", id="positivity_floor-removed"),
        pytest.param("simulate", "u: {profile: constant, value: 0.1}", "u: {profile: [1]}",
                     "initial.u.profile", id="profile-unhashable"),
        pytest.param("simulate", "a0: {kind: constant, value: 1.0}",
                     "a0: {kind: separable, time: {form: [1]}}", "a0.time.form",
                     id="time-form-unhashable"),
        pytest.param("simulate", "u: {profile: constant, value: 0.1}",
                     "u: {profile: cosine, axis: 3}", "initial.u.axis", id="axis-beyond-grid"),
        pytest.param("simulate", "u: {profile: constant, value: 0.1}",
                     "u: {profile: cosine, axis: -1}", "initial.u.axis", id="axis-negative"),
        pytest.param("simulate", "a0: {kind: constant, value: 1.0}",
                     "a0: {kind: separable, space: {profile: linear-ramp, axis: 2}}",
                     "a0.space.axis", id="space-axis-beyond-grid"),
        pytest.param("simulate", "u: {profile: constant, value: 0.1}",
                     "u: {profile: bump, center: [0.3, 0.9]}", "initial.u.center",
                     id="center-too-long"),
        pytest.param("stability-experiment", "u: {profile: constant, value: 5.0}",
                     "u: {profile: bump, center: [0.3, 0.9]}", "experiment.seeds[1].u.center",
                     id="seed-center-too-long"),
        pytest.param("stability-experiment", "u: {profile: constant, value: 5.0}",
                     "u: {profile: cosine, baseline: 0.0, amplitude: 1.0}",
                     "experiment.seeds[1].u", id="seed-u-negative"),
        pytest.param("stability-experiment", "v: {profile: constant, value: 0.0}}\n    - {u",
                     "v: {profile: constant, value: -0.5}}\n    - {u",
                     "experiment.seeds[0].v", id="seed-v-negative"),
        pytest.param("simulate", "u: {profile: constant, value: 0.1}", "u: {profile: file}",
                     "initial.u.path", id="file-without-path"),
        pytest.param("simulate", "a0: {kind: constant, value: 1.0}",
                     "a0: {kind: constant, value: .nan}", "a0.value", id="coefficient-nan"),
        pytest.param("simulate", "a0: {kind: constant, value: 1.0}",
                     "a0: {kind: separable, time: {form: expdecay, amplitude: .nan}}",
                     "a0.time.amplitude", id="time-amplitude-nan"),
        pytest.param("simulate", "a0: {kind: constant, value: 1.0}",
                     "a0: {kind: separable, time: {form: sinusoid, frequency: -1.0}}",
                     "a0.time.frequency", id="time-frequency-negative"),
        pytest.param("simulate", "a0: {kind: constant, value: 1.0}",
                     "a0: {kind: separable, time: {form: expdecay, rate: null}}",
                     "a0.time.rate", id="time-rate-null"),
        pytest.param("simulate", "u: {profile: constant, value: 0.1}",
                     "u: {profile: cosine, amplitude: null}", "initial.u.amplitude",
                     id="profile-parameter-null"),
        pytest.param("stability-experiment", "fit_window: [8.0, 30.0]",
                     "fit_window: [50.0, 60.0]", "experiment.fit_window",
                     id="fit_window-beyond-samples"),
        # the convex-formula M2 falls below the configured eta: eta is the key to blame
        pytest.param("stability-experiment", "n_samples: 201",
                     "n_samples: 201\n  constants: {eta: 50.0, C3_tilde: 1.0}",
                     "experiment.constants.eta", id="eta-above-convex-M2"),
        # measuring the eventual band needs a population that does not vanish identically
        pytest.param("stability", "0.1}\n  v: {profile: constant, value: 0.0}\nstepper:\n"
                     "  error_tol: 1.0e-8\n  dt_max: 0.5\nexperiment:",
                     "0.0}\n  v: {profile: constant, value: 0.0}\nstepper:\n"
                     "  error_tol: 1.0e-8\n  dt_max: 0.5\nexperiment:\n  measure: true",
                     "initial.u", id="measured-u-vanishes"),
        pytest.param("simulate", "name: flat", "name: a/b", "output.name", id="name-separator"),
        pytest.param("simulate", "name: flat", "name: ../escaped", "output.name",
                     id="name-parent"),
        pytest.param("simulate", "name: flat", "name: ..", "output.name", id="name-dotdot"),
        pytest.param("simulate", "name: flat", "name: .", "output.name", id="name-dot"),
        pytest.param("simulate", "name: flat", "name: ''", "output.name", id="name-empty"),
        pytest.param("simulate --seed -1", "name: flat", "name: flat", "--seed: ",
                     id="seed-negative"),
        # the output location is a path under a file: the flag that gave it is to blame
        pytest.param("simulate --out CONFIG/sub", "name: flat", "name: flat", "--out: ",
                     id="out-under-file"),
        # an integer beyond the float range names its key, in a list or alone
        pytest.param("stability", "counts: [31]", f"counts: [{HUGE}]", "grid.counts",
                     id="counts-overflow"),
        pytest.param("stability", "sample_dt: 2.0", f"sample_dt: 2.0\n  n_samples: {HUGE}",
                     "experiment.n_samples", id="n_samples-overflow"),
        pytest.param("stability", "chi: 0.0", f"chi: {HUGE}", "params.chi", id="chi-overflow"),
        # a sample count numpy cannot index names the key that gave it
        pytest.param("stability", "sample_dt: 2.0",
                     "sample_dt: 2.0\n  n_samples: 1e300\n"
                     "  constants: {M2: 2.0, eta: 0.5, C3_tilde: 1.0}",
                     "experiment.n_samples", id="n_samples-unindexable"),
        pytest.param("simulate", "sample_dt: 2.0", "sample_dt: 1.0e-300",
                     "experiment.sample_dt", id="sample_dt-unindexable"),
        pytest.param("stability", "sample_dt: 2.0", "sample_dt: 1.0e-300\n  measure: true",
                     "experiment.sample_dt", id="measured-sample_dt-unindexable"),
        pytest.param("stability-experiment", "sample_dt: 0.2", "sample_dt: 1.0e-300",
                     "experiment.sample_dt", id="experiment-sample_dt-unindexable"),
        # a coefficient that overflows inside the window is named by its slot; with
        # chi > 0 H2 holds, so a0 is read for the convex-formula M2
        pytest.param("stability", "chi: 0.0\n  tau: 1.0\n  lambda: 1.0\n  mu: 1.0\n"
                     "a0: {kind: constant, value: 1.0}",
                     "chi: 0.1\n  tau: 1.0\n  lambda: 1.0\n  mu: 1.0\n"
                     "a0: {kind: separable, time: {form: expdecay, amplitude: 1.0, rate: -1000.0}}",
                     "a0: field contains non-finite values", id="a0-non-finite",
                     marks=pytest.mark.filterwarnings("ignore:overflow encountered in exp")),
        # a mass burn-in before the amplitude's, on a falling mass: the measured M1 > M2 x volume
        pytest.param("stability", "0.1}\n  v: {profile: constant, value: 0.0}\nstepper:\n"
                     "  error_tol: 1.0e-8\n  dt_max: 0.5\nexperiment:",
                     "3.0}\n  v: {profile: constant, value: 0.0}\nstepper:\n"
                     "  error_tol: 1.0e-8\n  dt_max: 0.5\nexperiment:\n  measure: true\n"
                     "  burn_ins: [0.0, 5.0, 5.0]", "experiment.burn_ins: mass bound",
                     id="measured-mass-burn-in-first"),
    ])
    def test_bad_value_named_without_traceback(self, tmp_path, capsys, command, old, new, key):
        # ``command`` may carry flags; CONFIG stands for the config file's path
        text = EXPERIMENT if command == "stability-experiment" else BASE
        assert old in text
        cfg_path = write_config(tmp_path, text=text.replace(old, new))
        argv = command.replace("CONFIG", str(cfg_path)).split()
        assert main([*argv, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()  # nothing written before the error

    def test_missing_config_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent.yaml"]) == 1

    def test_config_not_utf8(self, tmp_path, capsys):
        # the file is read as UTF-8 whatever the locale; a bad byte is a config error
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_bytes(b"\x80grid: 1")
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read {cfg_path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "stability", "stability-experiment",
                                         "sweep", "converge"])
    def test_byte_identical_reruns(self, tmp_path, capsys, command):
        # a rerun writes every file with the same bytes, '#' lines included, and prints the same
        sweep = STABILITY.replace("experiment:",
                                  "experiment:\n  sweep: {axes: {params.chi: [0.0, 0.5]}}")
        text = {"stability": STABILITY, "stability-experiment": EXPERIMENT,
                "sweep": sweep}.get(command, BASE)
        cfg_path = write_config(tmp_path, text=text)
        runs = []
        for _ in range(2):
            assert main([command, "--config", str(cfg_path)]) == 0
            files = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()}
            runs.append((files, capsys.readouterr().out))
        assert runs[0][0] and runs[0] == runs[1]

    @pytest.mark.parametrize("flags,text,key", [
        (["--out", "CONFIG/sub"], BASE, "--out"),
        ([], BASE.replace("dir: OUTDIR", "dir: CONFIG/sub"), "output.dir"),
    ], ids=["out", "output.dir"])
    def test_bad_output_location_fails_before_compute(self, tmp_path, capsys, monkeypatch,
                                                      flags, text, key):
        # the location is checked once the config is parsed, so no run starts
        def no_run(*args, **kwargs):
            raise AssertionError("the run started before the output location was checked")

        monkeypatch.setattr(cli, "run", no_run)
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(text.replace("CONFIG", str(cfg_path)))
        argv = [flag.replace("CONFIG", str(cfg_path)) for flag in flags]
        assert main(["simulate", "--config", str(cfg_path), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: cannot write {cfg_path}/sub: ")
        assert "Traceback" not in err

    def test_output_location_refusing_new_entries_fails_before_compute(
            self, tmp_path, capsys, monkeypatch):
        # permission bits can say yes while the file system says no (as for root, or
        # a read-only mount): the check creates an entry, and here that create fails
        real_open = os.open

        def refusing_open(path, *args, **kwargs):
            if Path(path).is_relative_to(tmp_path):
                raise PermissionError(13, "Permission denied", str(path))
            return real_open(path, *args, **kwargs)

        def no_run(*args, **kwargs):
            raise AssertionError("the run started before the output location was checked")

        monkeypatch.setattr(os, "open", refusing_open)
        monkeypatch.setattr(cli, "run", no_run)
        cfg_path = write_config(tmp_path)
        out = tmp_path / "new" / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out: cannot write {out}: ")
        assert "Permission denied" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml"]

    def test_output_check_leaves_no_entry(self, tmp_path, capsys):
        # the first run probes the config's directory, the rerun the output directory itself
        cfg_path = write_config(tmp_path)
        for _ in range(2):
            assert main(["simulate", "--config", str(cfg_path)]) == 0
            assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "out"]
            names = sorted(p.name for p in (tmp_path / "out").iterdir())
            assert len(names) == 2 and all(n.startswith("flat_") for n in names)

    def test_memory_error_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        # an array that does not fit ends like any runtime error: exit 2, one JSON line,
        # under the public name whatever subclass numpy raised
        class ArrayMemoryError(MemoryError):
            pass

        def no_memory(*args, **kwargs):
            raise ArrayMemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "run", no_memory)
        cfg_path = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "MemoryError",
                                   "message": "Unable to allocate 7.28 TiB for an array"}
        assert not (tmp_path / "out").exists()

    def test_step_underflow_writes_nothing(self, tmp_path, capsys):
        # the run fails before any output, so no output directory is made
        text = BASE.replace("error_tol: 1.0e-8",
                            "error_tol: 1.0e-15\n  dt_min: 1.0e-3\n  dt_init: 1.0e-3")
        cfg_path = write_config(tmp_path, text=text)
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "StepSizeUnderflowError"
        assert not (tmp_path / "out").exists()


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
        assert "H3: inconclusive; M2 unavailable" in out.splitlines()  # no margins, no stray space

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

    def test_unusable_cq1_pairs_named(self, tmp_path, capsys):
        # chi != 0 and no q > max(1, n/2) = 1: H1 has no usable pair
        text = STABILITY.replace("chi: 0.0", "chi: 0.3").replace(
            "experiment:", "experiment:\n  cq1_pairs: [[1.0, 2.0]]")
        cfg_path = write_config(tmp_path, text=text)
        assert main(["stability", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: experiment.cq1_pairs: ")
        assert not (tmp_path / "out").exists()
        # a sweep gives the point an error row naming the key, and goes on
        text = text.replace("experiment:", "experiment:\n  sweep: {axes: {params.chi: [0.0, 0.3]}}")
        cfg_path = write_config(tmp_path, text=text)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        ok_row, error_row = capsys.readouterr().out.splitlines()
        assert ok_row.endswith(",criterion_holds,")
        assert error_row.startswith("0.3,,,,nan,error,experiment.cq1_pairs: ")

    @pytest.mark.parametrize("constants, u0", [("", 3.0), ("  constants: {M2: 2.0}\n", 0.0)],
                             ids=["convex-M2", "configured-M2"])
    def test_unusable_cq1_pairs_named_before_measuring(self, tmp_path, capsys, monkeypatch,
                                                        constants, u0):
        # H1 and H2 are read before anything is measured, so the key is named first,
        # whether or not M2 is configured (a vanishing u would be named next)
        text = (STABILITY.replace("chi: 0.0", "chi: 0.3")
                .replace("  constants: {M2: 1.0, eta: 0.9, C3_tilde: 1.0}\n",
                         f"  measure: true\n{constants}  cq1_pairs: [[1.0, 2.0]]\n"))
        text += f"initial:\n  u: {{profile: constant, value: {u0}}}\n"
        monkeypatch.setattr(cli, "run", lambda *args, **kw: pytest.fail("measured first"))
        assert main(["stability", "--config", str(write_config(tmp_path, text=text))]) == 1
        assert capsys.readouterr().err.startswith("config error: experiment.cq1_pairs: ")

    def test_h2_verdict_licenses_convex_m2(self, tmp_path, capsys):
        # a1 = 0.5749 + 0.5 sin(1.2 t) dips to 0.0749 < n*mu*chi/4 = 0.075 between
        # window samples, so H2's competition clause fails by 1e-4: the
        # convex-formula M2 needs H2, and both must come from one window sampling
        text = (STABILITY.replace("chi: 0.0", "chi: 0.3")
                .replace("a1: {kind: constant, value: 1.0}",
                         "a1: {kind: separable, space: {profile: constant, value: 1.0}, time: "
                         "{form: sinusoid, offset: 0.5749, amplitude: 0.5, frequency: 1.2}}")
                .replace("n_samples: 101", "n_samples: 2001")
                .replace("{M2: 1.0, eta: 0.9, C3_tilde: 1.0}", "{eta: 0.05, C3_tilde: 1.0}"))
        cfg_path = write_config(tmp_path, text=text)
        assert main(["stability", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        (report,) = (tmp_path / "out").glob("crit_*_stability.csv")
        block = [ln[2:] for ln in report.read_text().splitlines() if ln.startswith("# ")]
        for lines in (out, block):
            h2 = next(ln for ln in lines if ln.startswith("H2:"))
            convex = [ln for ln in lines if "(convex-formula)" in ln]
            assert not (h2.startswith("H2: fails") and convex)
        assert next(ln for ln in out if ln.startswith("H2:")).startswith("H2: fails")
        assert not any(ln.startswith("M2=") for ln in out)
        h3 = next(ln for ln in out if ln.startswith("H3:"))
        assert h3.startswith("H3: inconclusive") and h3.endswith("M2 unavailable")

    @pytest.mark.parametrize("m2", ["config", "convex-formula"])
    def test_each_coefficient_read_once_per_time_grid(self, tmp_path, monkeypatch, m2):
        # separable a0 and a2, H2 holds: 1 envelope for validate_roles, a0, a1
        # and a2 once at the hypothesis samples, and once at the theta samples,
        # whether M2 is configured or comes from the convex formula
        from chemostab import coefficients

        text = (STABILITY.replace("chi: 0.0", "chi: 0.3")
                .replace("a0: {kind: constant, value: 1.0}",
                         "a0: {kind: separable, space: {profile: sine, offset: 1.0, "
                         "amplitude: 0.5, mode: 1}, time: {form: sinusoid, offset: 1.0, "
                         "amplitude: 0.2, frequency: 1.0}}")
                .replace("a2: {kind: constant, value: 0.0}",
                         "a2: {kind: separable, space: {profile: linear-ramp, start: 0.5, "
                         "stop: 1.5}, time: {form: expdecay, limit: 0.05, amplitude: 0.1, "
                         "rate: 0.5}}"))
        if m2 == "convex-formula":
            text = text.replace("{M2: 1.0, eta: 0.9, C3_tilde: 1.0}", "{eta: 0.9, C3_tilde: 1.0}")
        calls = []
        for cls in vars(coefficients).values():
            if isinstance(cls, type) and "envelope" in vars(cls):
                def counted(self, t, _envelope=vars(cls)["envelope"]):
                    calls.append(type(self).__name__)
                    return _envelope(self, t)
                monkeypatch.setattr(cls, "envelope", counted)
        report = cli.stability_report(parse_config(write_config(tmp_path, text=text).read_text()))
        assert report.h2_ok.ok and report.constants.provenance["M2"] == m2
        assert len(calls) == 7

    def test_config_values_win(self, tmp_path):
        # config > measured: a configured M2 is kept and the rest is measured, but an
        # eta the runs could not measure (one died out) stays missing, not measured
        text = STABILITY.replace("{M2: 1.0, eta: 0.9, C3_tilde: 1.0}", "{M2: 9.0}").replace(
            "experiment:", "experiment:\n  burn_ins: [5.0, 5.0, 5.0]")
        cfg = parse_config(write_config(tmp_path, text=text).read_text())
        grid = build_grid(cfg)
        coeffs, params = build_coefficients(cfg, grid), build_params(cfg)
        window = (0.0, 10.0)
        flat = [run(ModelState(0.0, np.full(grid.counts, u0), np.full(grid.counts, 1.0)), 10.0,
                    coeffs, params, build_stepper(cfg), sample_dt=0.5) for u0 in (0.1, 0.0)]
        report = cli._criterion(cfg, coeffs, params, window, lambda: flat[:1])
        assert report.constants.M2 == 9.0
        assert report.constants.provenance["M2"] == "config"
        assert report.constants.provenance["eta"] == "measured"
        report = cli._criterion(cfg, coeffs, params, window, lambda: flat)
        assert report.constants.eta is None and "eta" not in report.constants.provenance
        assert report.constants.provenance["C3_tilde"] == "measured"
        assert not any("measured lower bound" in note for note in report.notes)

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

    @pytest.mark.parametrize("full", [True, False], ids=["measured-cq1-eps", "inconclusive"])
    def test_written_report_matches_reference(self, tmp_path, full):
        if full:  # measured eta (and its note), convex-formula M2, cq1_pairs, eps_suggested
            text = STABILITY.replace("chi: 0.0", "chi: 0.3").replace(
                "  constants: {M2: 1.0, eta: 0.9, C3_tilde: 1.0}\n",
                "  measure: true\n  cq1_pairs: [[1.5, 8.0], [3.0, 2.0]]\n")
            text += "initial:\n  u: {profile: constant, value: 3.0}\n"
        else:  # no eta or C3_tilde: empty series
            text = STABILITY.replace("{M2: 1.0, eta: 0.9, C3_tilde: 1.0}", "{M2: 1.0}")
        cfg_path = write_config(tmp_path, text=text)
        report = cli.stability_report(parse_config(cfg_path.read_text()))
        assert main(["stability", "--config", str(cfg_path)]) == 0
        if full:
            assert report.constants.provenance["eta"] == "measured"
            assert report.constants.cq1_pairs and report.notes
            assert report.eps_suggested is not None
        else:
            assert report.ts.size == 0 and report.conclusion == "inconclusive"
        assert_report_file(cfg_path, report, "crit_*_stability.csv")


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
        # an eta above the convex-formula M2 exits 1 naming eta, and in a sweep is its error row
        text = (STABILITY.replace("chi: 0.0", "chi: 0.3")
                .replace("{M2: 1.0, eta: 0.9, C3_tilde: 1.0}", "{eta: 50.0, C3_tilde: 1.0}"))
        cfg_path = write_config(tmp_path, text=text)
        assert main(["stability", "--config", str(cfg_path)]) == 1
        message = "experiment.constants.eta: must be at most M2=2.4324324324324325 (convex-formula)"
        assert capsys.readouterr().err == f"config error: {message}, got 50.0\n"
        cfg_path = write_config(tmp_path, text=text.replace(
            "experiment:", "experiment:\n  sweep: {axes: {params.mu: [1.0]}}"))
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().out == f"1.0,,,,nan,error,{message}; got 50.0\n"
        # a vanishing population to measure is its point's error row naming initial.u
        text = BASE.replace("sample_dt: 2.0", "sample_dt: 2.0\n  measure: true\n"
                            "  sweep: {axes: {initial.u.value: [0.0, 0.1]}}")
        cfg_path = write_config(tmp_path, text=text)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        error_row, ok_row = capsys.readouterr().out.splitlines()
        assert error_row == ("0.0,,,,nan,error,initial.u: population must not vanish "
                             "identically when measuring")
        assert ok_row.startswith("0.1,") and ok_row.endswith(",criterion_holds,")
        # a burn-in the measurement rejects exits 1 naming experiment.burn_ins, and in a
        # sweep is every point's error row
        text = (STABILITY.replace("  constants: {M2: 1.0, eta: 0.9, C3_tilde: 1.0}\n",
                                  "  measure: true\n  burn_ins: [0.0, 5.0, 5.0]\n")
                + "initial:\n  u: {profile: constant, value: 3.0}\n")
        cfg_path = write_config(tmp_path, text=text)
        assert main(["stability", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: experiment.burn_ins: mass bound ")
        cfg_path = write_config(tmp_path, text=text.replace(
            "experiment:", "experiment:\n  sweep: {axes: {params.mu: [1.0, 2.0]}}"))
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 2
        for mu, row in zip(("1.0", "2.0"), rows):
            assert row.startswith(f"{mu},,,,nan,error,experiment.burn_ins: mass bound ")

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp")
    def test_unfit_points_are_keyed_error_rows(self, tmp_path, capsys, monkeypatch):
        # a sample count numpy cannot index and a coefficient that overflows inside
        # the window name their keys in the point's error row
        text = STABILITY.replace(
            "a0: {kind: constant, value: 1.0}",
            "a0: {kind: separable, time: {form: expdecay, amplitude: 1.0, rate: 0.0}}",
        ).replace("experiment:", "experiment:\n  sweep: {axes: {a0.time.rate: [0.0, -1000.0], "
                  "experiment.n_samples: [101, 1e300]}}")
        cfg_path = write_config(tmp_path, text=text)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        unindexable = "experiment.n_samples: 1e+300 samples: Maximum allowed size exceeded"
        assert capsys.readouterr().out.splitlines() == [
            "0.0,101.0,holds,fails,holds,-0.3,criterion_holds,",
            f"0.0,1e+300,,,,nan,error,{unindexable}",
            "-1000.0,101.0,,,,nan,error,a0: field contains non-finite values",
            f"-1000.0,1e+300,,,,nan,error,{unindexable}",  # the samples are made first
        ]
        # an array that does not fit is its point's error row too
        def no_memory(*args):
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr(cli, "hypotheses", no_memory)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        for row in capsys.readouterr().out.splitlines():
            assert row.endswith(",,,,nan,error,Unable to allocate 1.00 TiB")

    @pytest.mark.parametrize("axes", ["stepper.dt_min: [0.01], stepper.dt_init: [0.02]",
                                      "stepper.dt_init: [0.02], stepper.dt_min: [0.01]"],
                             ids=["dt_min-first", "dt_init-first"])
    def test_axis_order_does_not_matter(self, tmp_path, capsys, axes):
        # dt_min 0.01 exceeds the default dt_init 1e-3 alone, but the point sets both:
        # it is judged as one config, whatever order its axes are declared in
        text = STABILITY.replace("experiment:", f"experiment:\n  sweep: {{axes: {{{axes}}}}}")
        cfg_path = write_config(tmp_path, text=text)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        (row,) = capsys.readouterr().out.splitlines()
        values = "0.01,0.02" if axes.startswith("stepper.dt_min") else "0.02,0.01"
        assert row == f"{values},holds,fails,holds,-0.3,criterion_holds,"

    def test_rows_are_stability_verdicts(self, tmp_path):
        # each row's verdict is that of stability on the point's config, which is one edit
        text = STABILITY.replace("chi: 0.0", "chi: 0.3").replace(
            "experiment:", "experiment:\n  cq1_pairs: [[1.5, 8.0]]\n"
            "  sweep: {axes: {params.chi: [0.1, 1.5], a1.value: [0.5, 2.0]}}")
        cfg = parse_config(write_config(tmp_path, text=text).read_text())
        rows = cli.sweep(cfg)
        assert len(rows) == 4 and {row[6] for row in rows} == {"criterion_holds", "criterion_fails"}
        for chi, a1, h1, h2, h3, theta, conclusion, error in rows:
            report = cli.stability_report(apply_override(cfg, {"params.chi": chi, "a1.value": a1}))
            assert error == ""
            assert (h1, h2, h3, theta, conclusion) == (
                report.h1_ok.status, report.h2_ok.status, report.h3_ok.status, report.theta,
                report.conclusion)

    def test_bad_role_point_recorded(self, tmp_path, capsys):
        # a1 without a positive infimum is an error row naming a1, and the CSV is written
        text = STABILITY.replace(
            "experiment:",
            "experiment:\n  sweep: {axes: {a1.value: [1.0, 0.0]}}",
        )
        cfg_path = write_config(tmp_path, text=text)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        ok_row, error_row = capsys.readouterr().out.splitlines()
        assert ok_row.endswith(",criterion_holds,")
        assert error_row == ("0.0,,,,nan,error,a1: local competition coefficient must have "
                             "positive infimum; got 0.0")
        (path,) = (tmp_path / "out").glob("crit_*_sweep.csv")
        assert data_section(path).endswith(error_row + "\n")

    def test_stdout_is_csv_body(self, tmp_path, capsys):
        # the printed rows are the lines written below the header, error rows included
        text = STABILITY.replace(
            "experiment:",
            "experiment:\n  sweep:\n    axes:\n      params.tau: [1.0, 0.0]\n"
            "      params.chi: [0.0, 0.5]",
        )
        cfg_path = write_config(tmp_path, text=text)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        (path,) = (tmp_path / "out").glob("crit_*_sweep.csv")
        header, body = data_section(path).split("\n", 1)
        assert header == "params.tau,params.chi,h1,h2,h3,theta,conclusion,error"
        assert out == body
        assert out.count(",error,") == 2 and out.count("\n") == 4


# every normalizer that a sweep point passes through: nested time and space
# blocks, center lists and experiment seeds
OVERRIDE = BASE.replace("OUTDIR", "out").replace(
    "a0: {kind: constant, value: 1.0}",
    "a0:\n  kind: separable\n"
    "  time: {form: sinusoid, offset: 1.0, amplitude: 0.2, frequency: 1.0}\n"
    "  space: {profile: gaussian-bump, center: [0.4], width: 0.2}",
).replace(
    "sample_dt: 2.0",
    "sample_dt: 2.0\n  seeds:\n    - {u: {profile: bump, center: [0.3]}}\n"
    "    - {u: {profile: cosine, mode: 2}}",
)


class TestConfigAsData:
    @pytest.mark.parametrize("point,fails", [
        pytest.param({"a0.time.amplitude": 0.4}, False, id="nested-float"),
        pytest.param({"experiment.n_samples": 257.0}, False, id="integer-key-given-float"),
        pytest.param({"experiment.eps": 0.01}, False, id="normalized-none"),
        pytest.param({"experiment.measure": 1.0}, True, id="bool-key"),
        pytest.param({"params.nope": 1.0}, True, id="missing-path"),
        # valid only as a whole: dt_min alone would exceed the default dt_init
        pytest.param({"stepper.dt_min": 0.01, "stepper.dt_init": 0.02}, False, id="two-paths"),
    ])
    def test_override_matches_yaml_round_trip(self, point, fails):
        cfg = parse_config(OVERRIDE)

        def outcome(override):
            try:
                edited = override(cfg, point)
            except ConfigError as exc:
                return "error", str(exc)
            return edited, edited.content_hash

        direct = outcome(apply_override)
        assert direct == outcome(apply_override_via_yaml)
        assert (direct[0] == "error") == fails

    def test_override_makes_no_yaml_calls(self, monkeypatch):
        cfg = parse_config(OVERRIDE)

        def refuse(*args, **kwargs):
            raise AssertionError("YAML called after parsing")

        monkeypatch.setattr(yaml, "safe_dump", refuse)
        monkeypatch.setattr(yaml, "safe_load", refuse)
        point = apply_override(cfg, {"a0.time.amplitude": 0.4})
        assert point.a0["time"]["amplitude"] == 0.4

    @pytest.mark.parametrize("text", [BASE, STABILITY], ids=["base", "stability"])
    def test_normalize_fixes_normalized_config(self, text):
        cfg = parse_config(text.replace("OUTDIR", "out"))
        assert _normalize(dataclasses.asdict(cfg)) == cfg


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

    def test_written_report_matches_reference(self, tmp_path):
        cfg_path = write_config(tmp_path, text=EXPERIMENT)
        report = cli.stability_experiment(parse_config(cfg_path.read_text())).report
        assert main(["stability-experiment", "--config", str(cfg_path)]) == 0
        assert report.ts.size == 201
        assert_report_file(cfg_path, report, "exp_*_stability.csv")

    def test_library_verdict_matches_cli(self, tmp_path, capsys):
        # the record stability_experiment returns holds the verdict the CLI prints
        cfg_path = write_config(tmp_path, text=EXPERIMENT)
        assert main(["stability-experiment", "--config", str(cfg_path)]) == 0
        printed = dict(tok.split("=", 1) for tok in capsys.readouterr().out.split() if "=" in tok)
        lib_cfg = parse_config(EXPERIMENT.replace("OUTDIR", str(tmp_path / "lib")))
        res = cli.stability_experiment(lib_cfg)
        assert not (tmp_path / "lib").exists()  # computing writes nothing
        assert printed["conclusion"] == res.report.conclusion == "criterion_holds"
        assert printed["rate_le_theta_plus_eps"] == str(res.rate_ok).lower() == "true"
        assert printed["gap_ok"] == str(res.gap_final < cli.FINAL_GAP_TOL).lower() == "true"
        assert res.gronwall.conclusive
        assert printed["gronwall_fraction"] == repr(res.gronwall.fraction)
        assert len(res.trajectories) == 2 and list(res.gaps) == [(0, 1)]

    def test_persistence_estimated_once_per_seed(self, tmp_path, monkeypatch):
        # the measured eta and the persistence CSV come from one estimate per seed
        import chemostab.experiments as experiments

        calls = []
        estimate = experiments.estimate_persistence
        for module in (experiments, cli):
            monkeypatch.setattr(module, "estimate_persistence",
                                lambda *args: calls.append(args) or estimate(*args))
        res = cli.stability_experiment(parse_config(EXPERIMENT.replace("OUTDIR", str(tmp_path))))
        assert res.report.constants.provenance["eta"] == "measured"
        assert len(calls) == len(res.trajectories) == 2

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

    def test_config_serialized_once(self, tmp_path, monkeypatch):
        # ten output paths and the metadata all carry the hash of one config
        import chemostab.config as config_mod

        calls = []
        serialize = config_mod.serialize_config
        monkeypatch.setattr(config_mod, "serialize_config",
                            lambda cfg: calls.append(cfg) or serialize(cfg))
        cfg_path = self.random_seed_config(tmp_path, second=2)
        assert main(["stability-experiment", "--config", str(cfg_path)]) == 0
        assert len(list((tmp_path / "out").glob("exp_*.csv"))) > 1
        assert len(calls) == 1

    def test_identical_seed_states_rejected(self, tmp_path, capsys):
        cfg_path = self.random_seed_config(tmp_path, second=1)
        assert main(["stability-experiment", "--config", str(cfg_path)]) == 1
        assert "experiment.seeds" in capsys.readouterr().err

    def test_unmeasured_eta_leaves_gronwall_inconclusive(self, tmp_path, capsys):
        # the bump underflows to 0 away from its centre, so with no amplitude
        # burn-in eta is not measured; the configured eps still runs the
        # Gronwall check, which names the missing constant instead of failing
        text = """
grid: {extents: [1.0], counts: [41]}
params: {chi: 0.05, tau: 1.0, lambda: 1.0, mu: 1.0}
a0: {kind: constant, value: 1.0}
a1: {kind: constant, value: 1.0}
a2: {kind: constant, value: 0.0}
stepper: {error_tol: 1.0e-3}
experiment:
  t_end: 2.0
  sample_dt: 0.1
  burn_ins: [0.0, 0.0, 0.0]
  eps: 0.01
  t_back: 0
  fit_window: [0.5, 1.5]
  seeds:
    - {u: {profile: bump, baseline: 0.0, amplitude: 1.0, width: 0.01},
       v: {profile: constant, value: 0.0}}
    - {u: {profile: constant, value: 2.0}, v: {profile: constant, value: 0.0}}
output: {dir: OUTDIR, name: exp}
"""
        assert main(["stability-experiment", "--config", str(write_config(tmp_path, text))]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "gronwall=inconclusive constants missing: eta" in out
        assert "conclusion=inconclusive" in out
        (path,) = (tmp_path / "out").glob("exp_*_gronwall.csv")
        block = path.read_text().splitlines()
        assert "# conclusive: false" in block and "# note: constants missing: eta" in block
        assert len(list((tmp_path / "out").glob("exp_*.csv"))) == 6

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


RANDOM = BASE.replace("u: {profile: constant, value: 0.1}",
                      "u: {profile: random-positive, seed: 3}").replace(
    "counts: [31]", "counts: [21]").replace("t_end: 40.0", "t_end: 2.0").replace(
    "error_tol: 1.0e-8", "error_tol: 1.0e-4")  # rough data: a tight tolerance takes seconds


class TestSeed:
    """``--seed`` is one config edit, ``with_seed``, so the content hash covers it."""

    def test_seeded_runs_keep_their_own_files(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, text=RANDOM)
        cfg = parse_config(cfg_path.read_text())
        for seed in (1, 2):
            assert main(["simulate", "--config", str(cfg_path), "--seed", str(seed)]) == 0
        hashes = [with_seed(cfg, seed).content_hash for seed in (1, 2)]
        assert len({cfg.content_hash, *hashes}) == 3
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
            f"flat_{h}_{kind}.csv" for h in hashes for kind in ("final", "series"))
        for h in hashes:
            for kind in ("final", "series"):
                lines = (tmp_path / "out" / f"flat_{h}_{kind}.csv").read_text().splitlines()
                assert lines[1] == f"# config_hash: {h}"

    def test_seeded_data_drawn_from_mixed_entropy(self, tmp_path, capsys):
        # ``--seed 1`` on a declared seed 3 draws u0 from default_rng([1, 3]), as it did
        # before the seed became a config edit: the run equals one from that state as a file
        grid = build_grid(parse_config(RANDOM.replace("OUTDIR", "out")))
        u0 = initial_profile_chain(grid, {"profile": "random-positive", "seed": 3}, 1)
        np.savetxt(tmp_path / "u0.csv", u0, delimiter=",", fmt="%.17g")
        file_block = f"{{profile: file, path: {tmp_path / 'u0.csv'}}}"
        runs = {"seeded": (RANDOM, ["--seed", "1"]),
                "file": (RANDOM.replace("{profile: random-positive, seed: 3}", file_block), [])}
        for name, (text, extra) in runs.items():
            (tmp_path / name).mkdir()
            cfg_path = write_config(tmp_path / name, text=text)
            assert main(["simulate", "--config", str(cfg_path), *extra]) == 0
        for kind in ("final", "series"):
            (a,), (b,) = ((tmp_path / name / "out").glob(f"flat_*_{kind}.csv") for name in runs)
            assert a.name != b.name and data_section(a) == data_section(b)

    def test_experiment_seeds_mixed(self):
        text = RANDOM.replace("sample_dt: 2.0", "sample_dt: 2.0\n  seeds:\n"
                              "    - {u: {profile: random-positive}}\n"
                              "    - {u: {profile: random-positive, seed: [4, 5]}}\n"
                              "    - {u: {profile: constant, value: 2.0}}")
        cfg = with_seed(parse_config(text.replace("OUTDIR", "out")), 7)
        assert cfg.initial["u"]["seed"] == [7, 3]
        assert [s["u"].get("seed") for s in cfg.experiment["seeds"]] == [[7, 0], [7, 4, 5], None]
        assert cfg.initial["v"] == {"profile": "constant", "value": 0.0}

    def test_large_seed_kept_exact(self):
        seed = 2**64 + 1  # beyond a float's integers
        cfg = with_seed(parse_config(RANDOM.replace("OUTDIR", "out")), seed)
        assert cfg.initial["u"]["seed"] == [seed, 3]
        assert parse_config(serialize_config(cfg)) == cfg

    def test_sweep_axis_sets_seed_outright(self, tmp_path, capsys):
        # under --seed a point is one edit of the seeded config: an axis on the seed
        # replaces [override, declared], so the rows equal those of the unseeded sweep
        text = STABILITY.replace(
            "  constants: {M2: 1.0, eta: 0.9, C3_tilde: 1.0}\n",
            "  measure: true\n  sweep: {axes: {initial.u.seed: [4, 5]}}\n").replace(
            "experiment:", "initial:\n  u: {profile: random-positive, seed: 3}\nexperiment:")
        cfg_path = write_config(tmp_path, text=text)
        cfg = parse_config(cfg_path.read_text())
        assert apply_override(with_seed(cfg, 9), {"initial.u.seed": 4}) == apply_override(
            cfg, {"initial.u.seed": 4})
        outs = []
        for extra in ([], ["--seed", "9"]):
            assert main(["sweep", "--config", str(cfg_path), *extra]) == 0
            outs.append(capsys.readouterr().out)
        thetas = [float(row.split(",")[4]) for row in outs[0].splitlines()]
        assert thetas[0] != thetas[1]  # the seed reaches the measured constants
        assert outs[0] == outs[1]
        assert len(list((tmp_path / "out").iterdir())) == 2  # one file per config hash


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


def src_env() -> dict:
    """The environment of a child interpreter that imports chemostab from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, chemostab.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_command_loads_no_openssl(tmp_path):
    # the config hash comes from the interpreter's built-in SHA-256, so a command
    # without a random-positive profile never loads hashlib (and OpenSSL with it)
    cfg_path = write_config(tmp_path, text=STABILITY)
    code = ("import sys; from chemostab.cli import main; code = main(sys.argv[1:]); "
            "print(code, [m for m in ('hashlib', '_hashlib') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code, "stability", "--config", str(cfg_path)],
                         env=src_env(), capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 []"
    digest = hashlib.sha256(serialize_config(parse_config(cfg_path.read_text())).encode())
    (path,) = (tmp_path / "out").iterdir()
    assert path.name == f"crit_{digest.hexdigest()[:12]}_stability.csv"


def traced_child(tmp_path, command: str, text: str) -> dict:
    """Run one command under the benchmark's child process with tracing on."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cfg_path = write_config(tmp_path, text=text)
    result = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), str(result), "1",
         command, "--config", str(cfg_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


def test_traced_simulate_builds_no_field_per_step(tmp_path):
    # the benchmark's tracer hooks into the package by name; a renamed hook
    # or a Field built per step or per coefficient evaluation shows up here
    report = traced_child(tmp_path, "simulate", BASE.replace("t_end: 40.0", "t_end: 0.5"))
    calls = report["trace"]["calls"]
    assert calls["stepper.step"] > 0
    assert calls["grid.Field"] < 10


def test_traced_stability_experiment_marks_setup_end(tmp_path, monkeypatch):
    # the benchmark ends set-up at the first call from the CLI module into a
    # stepper function it holds by name; the batched run must go through it
    text = (EXPERIMENT.replace("t_end: 40.0", "t_end: 2.0")
            .replace("window: [0.0, 40.0]", "window: [0.0, 2.0]")
            .replace("burn_ins: [8.0, 8.0, 8.0]", "burn_ins: [0.5, 0.5, 0.5]")
            .replace("fit_window: [8.0, 30.0]", "fit_window: [0.5, 1.5]")
            .replace("error_tol: 1.0e-6", "error_tol: 1.0e-4")
            .replace("n_samples: 201", "n_samples: 201\n  t_back: 0"))
    report = traced_child(tmp_path, "stability-experiment", text)
    calls = report["trace"]["calls"]
    assert report["setup_end"] is not None
    assert calls["stepper.run"] >= 1
    assert calls["stepper.step"] > 0
    # a stepper function imported inside the command would not carry the mark
    import chemostab.cli as cli

    seen = []
    monkeypatch.setattr(cli, "run", lambda *args, **kw: seen.append(args) or run(*args, **kw))
    assert main(["stability-experiment", "--config", str(tmp_path / "config.yaml")]) == 0
    assert seen


def test_traced_benchmark_gates(tmp_path, monkeypatch):
    # the seed-1 benchmark inputs, each run once under the benchmark's child with
    # tracing on: every workload passes its oracle, and the work counts stay put.
    # experiment1d computes each result once and writes it once: 2 runs (the batch
    # and the pullback pair), 1 theta estimate, 4 gap series (3 pairs and the
    # pullback gate), 1 constants measurement, 1 Gronwall check and 9 files.  Each
    # coefficient is read once per time grid: experiment1d in 11 envelope calls (2
    # global envelopes for validate_roles, 3 for hypotheses, 3 for theta's
    # decay_terms and 3 for the Gronwall check's), sweep in 7 per point (1 for
    # validate_roles, 3 for hypotheses, 3 for decay_terms), and a sweep point is
    # one config edit
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave the benchmark's tree as it is
    workloads = importlib.import_module("workloads")
    calls = {}
    for name, (inputs, check) in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        bench = inputs(1, tmp_path / name)
        out, result = tmp_path / name / "out", tmp_path / name / "r.json"
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "child.py"), str(result), "1",
             bench.command, "--config", str(bench.config), "--out", str(out)],
            env=dict(src_env(), PYTHONDONTWRITEBYTECODE="1"), capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert check(proc.stdout, out) == [], name
        calls[name] = json.loads(result.read_text())["trace"]["calls"]
    # within 5% of the contraction-credited controller's step() calls
    assert calls["sim2d"]["stepper.step"] <= 1.05 * 94
    assert calls["experiment1d"]["stepper.step"] <= 1.05 * 416
    assert calls["experiment1d"]["grid.w2inf_norm"] <= 10  # one block per member's samples
    pinned = {"stepper.run": 2, "stability.estimate_theta": 1, "experiments.trajectory_gap": 4,
              "experiments.measure_constants": 1, "experiments.gronwall_check": 1,
              "cli._write_csv": 9, "coefficients.envelope": 11}
    assert {span: calls["experiment1d"][span] for span in pinned} == pinned
    assert calls["sweep"]["config.apply_override"] == 16
    assert calls["sweep"]["coefficients.envelope"] == 112


FUZZ_KEYS = ("grid.counts", "experiment.t_end", "experiment.sample_dt", "experiment.n_samples",
             "experiment.gap_tolerance", "params.chi", "params.tau", "params.lambda",
             "params.mu", "initial.u.axis", "initial.u.center", "a0.space.axis",
             "a0.space.width", "a0.value", "a1.value")

# a block that takes the fuzzed parameter, for keys whose block EXPERIMENT lacks
FUZZ_BLOCKS = {
    "initial.u.axis": {"u": {"profile": "cosine"}},
    "initial.u.center": {"u": {"profile": "bump"}},
    "a0.space.axis": {"kind": "separable", "space": {"profile": "linear-ramp"}},
    "a0.space.width": {"kind": "separable", "space": {"profile": "gaussian-bump"}},
}


@given(
    command=st.sampled_from(["simulate", "stability", "stability-experiment"]),
    key=st.sampled_from(FUZZ_KEYS),
    value=st.sampled_from([0, -1, 3, 0.5, 21.7, math.nan, math.inf, "x", [0.3, 0.9]]),
)
@example(command="simulate", key="experiment.t_end", value=math.inf)
@example(command="simulate", key="initial.u.axis", value=3)
@example(command="stability", key="a0.space.axis", value=-1)
@example(command="stability-experiment", key="a0.value", value=0)
@example(command="stability", key="a1.value", value=0)
@settings(max_examples=60, deadline=None)
def test_cli_fuzz_exit_codes(command, key, value):
    # any single bad number ends in a documented exit code, never an exception
    # or a traceback, and a config error names the fuzzed key's block
    cfg = yaml.safe_load(EXPERIMENT)
    cfg["grid"]["counts"] = [11]
    cfg["stepper"]["error_tol"] = 1.0e-3
    cfg["experiment"].update(t_end=0.5, sample_dt=0.1, window=[0.0, 0.5],
                             burn_ins=[0.1, 0.1, 0.1], fit_window=[0.1, 0.4])
    *parents, leaf = key.split(".")
    if key in FUZZ_BLOCKS:
        cfg[parents[0]] = copy.deepcopy(FUZZ_BLOCKS[key])
    node = cfg
    for part in parents:
        node = node[part]
    node[leaf] = [value] if leaf == "counts" else value
    with tempfile.TemporaryDirectory() as tmp:
        cfg["output"]["dir"] = tmp
        path = Path(tmp) / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().startswith(f"config error: {parents[0]}")
