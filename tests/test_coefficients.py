import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemostab import (
    CallableCoefficient,
    CoefficientRangeError,
    CoefficientSet,
    ConstantCoefficient,
    Field,
    Grid,
    SeparableCoefficient,
    TabulatedCoefficient,
    TimeFactor,
    spatial_profile,
    validate_roles,
)
from chemostab.coefficients import INITIAL_PROFILES, SPATIAL_PROFILES, build_profile_field
from chemostab.errors import ConfigError

from oracles import (
    PROFILE_KEYS,
    SPACE_PROFILE_KEYS,
    dense_envelope,
    initial_profile_chain,
    spatial_profile_chain,
)


@pytest.fixture
def grid():
    return Grid((1.0,), (101,))


def separable(grid, time, profile="constant", **space_kw):
    return SeparableCoefficient(grid, time, spatial_profile(grid, profile, **space_kw))


class TestEval:
    def test_constant(self, grid):
        spec = ConstantCoefficient(grid, 3.0)
        assert np.all(spec.eval(17.3) == 3.0)

    def test_separable_sinusoid_at_zero(self, grid):
        time = TimeFactor("sinusoid", offset=2.0, amplitude=1.0, frequency=1.0)
        spec = separable(grid, time, value=1.0)
        assert np.all(spec.eval(0.0) == 2.0)

    def test_tabulated_linear_interpolation(self, grid):
        spec = TabulatedCoefficient(grid, [0.0, 1.0], [np.zeros(101), np.full(101, 4.0)])
        assert np.all(spec.eval(0.25) == 1.0)

    def test_tabulated_clamp_and_flag(self, grid):
        spec = TabulatedCoefficient(grid, [0.0, 1.0], [np.zeros(101), np.ones(101)])
        assert np.all(spec.eval(2.0) == 1.0)
        assert spec.clamped_evals == 1

    def test_tabulated_range_error_without_clamp(self, grid):
        spec = TabulatedCoefficient(
            grid, [0.0, 1.0], [np.zeros(101), np.ones(101)], clamp=False
        )
        with pytest.raises(CoefficientRangeError):
            spec.eval(-0.5)

    def test_tabulated_knots_must_increase(self, grid):
        with pytest.raises(ValueError):
            TabulatedCoefficient(grid, [0.0, 0.0], [np.zeros(101), np.ones(101)])

    def test_tabulated_tables_must_be_finite(self, grid):
        table = np.ones(101)
        table[40] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            TabulatedCoefficient(grid, [0.0, 1.0], [np.zeros(101), table])

    def test_callable(self, grid):
        spec = CallableCoefficient(grid, lambda t: np.full(101, t * 2.0))
        assert np.all(spec.eval(1.5) == 3.0)


class TestEnvelope:
    def test_constant(self, grid):
        assert ConstantCoefficient(grid, 3.0).envelope(0.0) == (3.0, 3.0)

    def test_linear_ramp_endpoints(self, grid):
        spec = separable(grid, TimeFactor("constant", value=1.0),
                         profile="linear-ramp", start=0.0, stop=1.0)
        lo, hi = spec.envelope(5.0)
        assert lo == 0.0 and hi == 1.0

    def test_sine_envelope_vs_dense_oracle(self, grid):
        spec = separable(grid, TimeFactor("constant", value=1.0),
                         profile="sine", offset=0.0, amplitude=1.0, mode=2.0)
        lo, hi = spec.envelope(0.0)
        lo_ref, hi_ref = dense_envelope(lambda x: np.sin(2 * np.pi * x), 0.0, 1.0)
        assert abs(lo - lo_ref) < 5e-4
        assert abs(hi - hi_ref) < 5e-4


    @pytest.mark.parametrize("kind", [
        "constant", "separable-negative-time", "separable-expdecay", "tabulated-clamped",
        "callable",
    ])
    def test_array_matches_per_sample_eval(self, grid, kind):
        # sign-changing profile, so a negative time factor swaps the extremes
        profile = spatial_profile(grid, "sine", offset=0.2, amplitude=1.0, mode=3.0)
        specs = {
            "constant": lambda: ConstantCoefficient(grid, -1.7),
            "separable-negative-time": lambda: SeparableCoefficient(
                grid, TimeFactor("sinusoid", offset=-0.3, amplitude=1.1, frequency=2.3),
                profile),
            "separable-expdecay": lambda: SeparableCoefficient(
                grid, TimeFactor("expdecay", limit=-0.5, amplitude=2.0, rate=0.7), profile),
            "tabulated-clamped": lambda: TabulatedCoefficient(
                grid, [0.0, 1.5, 4.0],
                [profile.values, -2.0 * profile.values, np.linspace(-1.0, 3.0, 101)]),
            "callable": lambda: CallableCoefficient(
                grid, lambda t: np.sin(t * np.linspace(0.0, 5.0, 101))),
        }
        spec = specs[kind]()
        ts = np.linspace(-1.0, 6.0, 42)  # beyond both tabulated end knots
        lo, hi = spec.envelope(ts)
        assert lo.shape == hi.shape == ts.shape
        assert np.array_equal(lo, [spec.eval(t).min() for t in ts])
        assert np.array_equal(hi, [spec.eval(t).max() for t in ts])
        lo2, hi2 = spec.envelope(ts.reshape(6, 7)[:, ::2])
        assert np.array_equal(lo2, lo.reshape(6, 7)[:, ::2])
        assert np.array_equal(hi2, hi.reshape(6, 7)[:, ::2])
        lo0, hi0 = spec.envelope(0.7)
        assert np.ndim(lo0) == np.ndim(hi0) == 0
        assert lo0 == spec.eval(0.7).min() and hi0 == spec.eval(0.7).max()

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp")
    def test_non_finite_separable_envelope_raises(self, grid):
        spec = separable(grid, TimeFactor("expdecay", limit=1.0, amplitude=1.0, rate=-1.0),
                         value=1.0)
        with pytest.raises(ValueError, match="non-finite"):
            spec.eval(800.0)
        with pytest.raises(ValueError, match="non-finite"):
            spec.envelope(np.linspace(0.0, 800.0, 5))


class TestGlobalEnvelope:
    def test_constant(self, grid):
        spec = ConstantCoefficient(grid, 3.0)
        assert spec.global_envelope((0.0, 10.0)) == (3.0, 3.0)

    def test_sinusoid_over_period(self, grid):
        time = TimeFactor("sinusoid", offset=2.0, amplitude=1.0, frequency=1.0)
        spec = separable(grid, time, value=1.0)
        lo, hi = spec.global_envelope((0.0, 2 * math.pi))
        assert abs(lo - 1.0) < 1e-4 and abs(hi - 3.0) < 1e-4

    def test_sinusoid_partial_window_exact(self, grid):
        time = TimeFactor("sinusoid", offset=0.0, amplitude=1.0, frequency=1.0)
        spec = separable(grid, time, value=1.0)
        lo, hi = spec.global_envelope((0.0, math.pi / 2.0))
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx(1.0, abs=1e-15)

    def test_tabulated_knot_extremes(self, grid):
        spec = TabulatedCoefficient(grid, [0.0, 1.0], [np.zeros(101), np.full(101, 4.0)])
        assert spec.global_envelope((0.0, 1.0)) == (0.0, 4.0)

    def test_one_period_equals_two_periods(self, grid):
        time = TimeFactor("sinusoid", offset=1.0, amplitude=0.5, frequency=2.0)
        spec = separable(grid, time, value=1.0)
        one = spec.global_envelope((0.0, math.pi))
        two = spec.global_envelope((0.0, 2 * math.pi))
        assert one == two

    def test_expdecay_monotone_endpoints(self, grid):
        time = TimeFactor("expdecay", limit=1.0, amplitude=2.0, rate=0.5)
        spec = separable(grid, time, value=1.0)
        lo, hi = spec.global_envelope((0.0, 4.0))
        assert hi == pytest.approx(3.0, rel=1e-12)
        assert lo == pytest.approx(1.0 + 2.0 * math.exp(-2.0), rel=1e-12)

    def test_callable_sampled_at_65_even_times(self, grid):
        spec = CallableCoefficient(grid, lambda t: np.full(101, math.sin(3.7 * t)))
        ts = np.linspace(0.0, 10.0, 65)
        lo, hi = spec.global_envelope((0.0, 10.0))
        assert (lo, hi) == (np.sin(3.7 * ts).min(), np.sin(3.7 * ts).max())
        assert -1.0 < lo and hi < 1.0  # the sampled envelope is an inner estimate

    def test_extreme_times(self):
        # the window is cut to one period before the critical times are found
        sine = TimeFactor("sinusoid", amplitude=1.0, frequency=2.0, phase=0.3)
        ts = sine.extreme_times(0.0, 10.0)
        assert ts[:2] == [0.0, math.pi]
        assert np.allclose(np.abs(np.sin(2.0 * np.array(ts[2:]) + 0.3)), 1.0)
        assert len(ts) == 4 and all(0.0 < t < math.pi for t in ts[2:])
        assert TimeFactor("expdecay", rate=1.0).extreme_times(1.0, 3.0) == [1.0, 3.0]
        assert TimeFactor("constant").extreme_times(1.0, 3.0) == [1.0]
        assert TimeFactor("sinusoid", frequency=0.0).extreme_times(1.0, 3.0) == [1.0]

    def test_empty_window_rejected(self, grid):
        spec = ConstantCoefficient(grid, 1.0)
        with pytest.raises(ValueError):
            spec.global_envelope((1.0, 1.0))


class TestEnvelopeAlgebra:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_sum_envelope_bounds(self, seed):
        rng = np.random.default_rng(seed)
        g = Grid((1.0,), (31,))
        f = Field(g, rng.uniform(-3, 3, 31))
        h = Field(g, rng.uniform(-3, 3, 31))
        s = Field(g, f.values + h.values)
        assert s.min() >= f.min() + h.min() - 1e-12
        assert s.max() <= f.max() + h.max() + 1e-12


class TestCoefficientSet:
    def test_shared_grid_enforced(self, grid):
        other = Grid((1.0,), (11,))
        with pytest.raises(ValueError):
            CoefficientSet(
                ConstantCoefficient(grid, 1.0),
                ConstantCoefficient(other, 1.0),
                ConstantCoefficient(grid, 0.0),
            )

    def test_validate_roles(self, grid):
        cs = CoefficientSet(
            ConstantCoefficient(grid, -1.0),
            ConstantCoefficient(grid, 1.0),
            ConstantCoefficient(grid, 0.0),
        )
        validate_roles(cs, (0.0, 1.0))  # a1 fine, growth not required
        with pytest.raises(ValueError):
            validate_roles(cs, (0.0, 1.0), require_positive_growth=True)
        bad = CoefficientSet(
            ConstantCoefficient(grid, 1.0),
            ConstantCoefficient(grid, 0.0),
            ConstantCoefficient(grid, 0.0),
        )
        with pytest.raises(ValueError):
            validate_roles(bad, (0.0, 1.0))

    def test_validate_roles_names_slot(self, grid):
        one, zero = ConstantCoefficient(grid, 1.0), ConstantCoefficient(grid, 0.0)
        with pytest.raises(ConfigError) as info:
            validate_roles(CoefficientSet(one, zero, zero), (0.0, 1.0))
        assert info.value.key == "a1" and info.value.message.endswith("got 0.0")
        with pytest.raises(ConfigError) as info:
            validate_roles(CoefficientSet(zero, one, zero), (0.0, 1.0), require_positive_growth=True)
        assert info.value.key == "a0" and info.value.message.endswith("got 0.0")

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp")
    @pytest.mark.parametrize("slot", ["a0", "a1"])
    def test_non_finite_envelope_names_slot(self, grid, slot):
        roles = {"a0": ConstantCoefficient(grid, 1.0), "a1": ConstantCoefficient(grid, 1.0),
                 "a2": ConstantCoefficient(grid, 0.0)}
        roles[slot] = separable(grid, TimeFactor("expdecay", limit=1.0, amplitude=1.0, rate=-1.0),
                                value=1.0)  # exp(800) overflows
        with pytest.raises(ConfigError) as info:
            validate_roles(CoefficientSet(**roles), (0.0, 800.0), require_positive_growth=True)
        assert info.value.key == slot and "non-finite" in info.value.message

    def test_range_error_is_not_a_config_error(self, grid):
        table = TabulatedCoefficient(grid, [0.0, 1.0], [np.ones(101)] * 2, clamp=False)
        cs = CoefficientSet(ConstantCoefficient(grid, 1.0), table, ConstantCoefficient(grid, 0.0))
        with pytest.raises(CoefficientRangeError):
            validate_roles(cs, (0.0, 2.0))

    def test_regularity_notes(self, grid):
        cs = CoefficientSet(
            TabulatedCoefficient(grid, [0.0, 1.0], [np.ones(101), np.ones(101)]),
            ConstantCoefficient(grid, 1.0),
            ConstantCoefficient(grid, 0.0),
        )
        notes = cs.regularity_notes()
        assert len(notes) == 1 and notes[0].startswith("a0")


class TestSpatialProfiles:
    def test_gaussian_bump_peak(self, grid):
        f = spatial_profile(grid, "gaussian-bump", baseline=1.0, amplitude=2.0,
                            center=0.5, width=0.1)
        assert f.max() == pytest.approx(3.0, abs=1e-12)
        assert f.min() >= 1.0

    def test_unknown_profile(self, grid):
        with pytest.raises(ValueError):
            spatial_profile(grid, "nope")

    def test_time_factor_validation(self):
        with pytest.raises(ValueError):
            TimeFactor("wiggle")


PROFILE_GRIDS = [Grid((1.3,), (11,)), Grid((1.0, 0.7), (9, 7))]


def explicit_params(grid):
    """One non-default value for every parameter of every profile (normalized types)."""
    last = grid.dim - 1
    bump = {"baseline": 0.3, "amplitude": 1.5, "center": [0.2, 0.6][:grid.dim], "width": 0.25}
    return {
        "constant": [{"value": 2.5}],
        "bump": [bump, {**bump, "center": 0.4}],
        "gaussian-bump": [bump, {**bump, "center": 0.4}],
        "cosine": [{"baseline": 0.7, "amplitude": 0.2, "mode": 3, "axis": last}],
        "random-positive": [{"low": 0.2, "high": 0.8, "seed": 11}],
        "linear-ramp": [{"start": -0.5, "stop": 2.0, "axis": last}],
        "sine": [{"offset": 1.0, "amplitude": 0.4, "mode": 2, "axis": last, "phase": 0.3}],
    }


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestProfileRegistry:
    """The profile tables reproduce the if-chains they replaced, bit for bit."""

    @pytest.mark.parametrize("grid", PROFILE_GRIDS, ids=["1d", "2d"])
    def test_spatial_profiles_match_chain(self, grid):
        for name in SPATIAL_PROFILES:
            for params in [{}, *explicit_params(grid)[name]]:
                expected = spatial_profile_chain(grid, name, **params).values
                assert same_bits(spatial_profile(grid, name, **params).values, expected), name
                block = {"profile": name, **params}
                built = build_profile_field(grid, block, "a0.space", table=SPATIAL_PROFILES)
                assert same_bits(built.values, expected), name

    @pytest.mark.parametrize("grid", PROFILE_GRIDS, ids=["1d", "2d"])
    @pytest.mark.parametrize("seed", [None, 5])
    def test_initial_profiles_match_chain(self, grid, seed, tmp_path):
        data = tmp_path / "u0.csv"
        np.savetxt(data, np.linspace(0.2, 0.9, grid.node_count), delimiter=",", fmt="%.17g")
        cases = {**explicit_params(grid), "file": [{"path": str(data)}]}
        for name in INITIAL_PROFILES:
            for params in [{}, *cases[name]] if name != "file" else cases[name]:
                block = {"profile": name, **params}
                built = build_profile_field(grid, block, "initial.u", seed).values
                assert same_bits(built, initial_profile_chain(grid, block, seed)), (name, params)

    def test_accepted_keys_match_chain_tables(self):
        assert {n: set(p.defaults) for n, p in INITIAL_PROFILES.items()} == PROFILE_KEYS
        assert {n: set(p.defaults) for n, p in SPATIAL_PROFILES.items()} == SPACE_PROFILE_KEYS

    @pytest.mark.parametrize("params,key", [
        ({"axis": 1}, "space.axis"),
        ({"axis": -1}, "space.axis"),
        ({"center": [0.3, 0.9]}, "space.center"),
    ])
    def test_bad_axis_or_center_named(self, params, key):
        name = "gaussian-bump" if "center" in params else "sine"
        with pytest.raises(ValueError) as info:
            spatial_profile(PROFILE_GRIDS[0], name, **params)
        assert str(info.value).startswith(f"{key}: ")
