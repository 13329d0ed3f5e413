import cmath
import math

import numpy as np
import pytest

from mmwcodebook import (
    AngleInterval,
    beam_gain,
    beam_pattern,
    inf_norm_sq,
    normalize,
    phase_rotate,
    steering_vector,
)


def gain_oracle(w, omega):
    """Plain-Python beam gain: sum_n w_n exp(-j*pi*(n-1)*omega)."""
    return sum(wn * cmath.exp(-1j * math.pi * k * omega)
               for k, wn in enumerate(w))


def random_unit(rng, n):
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return w / np.linalg.norm(w)


class TestSteeringVector:
    def test_zero_ramp(self):
        assert np.allclose(steering_vector(4, 0.0), 0.5 * np.ones(4))

    def test_pi_ramp(self):
        assert np.allclose(steering_vector(2, 1.0),
                           np.array([1.0, -1.0]) / math.sqrt(2))

    def test_periodicity_wraps_exactly(self):
        assert np.array_equal(steering_vector(4, 0.5), steering_vector(4, 2.5))
        assert np.array_equal(steering_vector(8, -0.25),
                              steering_vector(8, 1.75))

    def test_unit_norm(self):
        for n in (1, 3, 17):
            assert np.linalg.norm(steering_vector(n, 0.37)) == pytest.approx(1.0)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            steering_vector(0, 0.1)

    @pytest.mark.parametrize("n", [-1, 2.5, 4.0, True, "4"])
    def test_antenna_count_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="^n must be an integer >= 1"):
            steering_vector(n, 0.1)

    def test_numpy_integer_antenna_count_accepted(self):
        assert np.array_equal(steering_vector(np.int64(4), 0.3),
                              steering_vector(4, 0.3))


class TestBeamGain:
    def test_matched_steering(self):
        w = steering_vector(8, 0.5)
        assert beam_gain(w, 0.5) == pytest.approx(math.sqrt(8), abs=1e-12)

    def test_orthogonal_angle_is_null(self):
        # geometric sum (1/2)(1 - j - 1 + j) = 0
        w = steering_vector(4, 0.0)
        assert abs(beam_gain(w, 0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_single_active_entry(self):
        w = np.array([1.0, 0.0, 0.0, 0.0])
        for omega in (-0.7, 0.0, 0.31):
            assert beam_gain(w, omega) == pytest.approx(1.0)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = random_unit(rng, int(rng.integers(1, 33)))
            omega = float(rng.uniform(-1, 1))
            assert beam_gain(w, omega) == pytest.approx(
                gain_oracle(w, omega), abs=1e-10)

    def test_periodicity(self):
        rng = np.random.default_rng(3)
        w = random_unit(rng, 16)
        for omega in rng.uniform(-1, 1, 10):
            assert beam_gain(w, omega) == pytest.approx(
                beam_gain(w, omega + 2.0), abs=1e-12)

    def test_matched_gain_sqrt_n_up_to_256(self):
        for n in range(1, 257):
            w = steering_vector(n, -0.3)
            assert abs(beam_gain(w, -0.3) - math.sqrt(n)) < 1e-12


class TestBeamPattern:
    def test_peak_and_null(self):
        w = steering_vector(4, 0.0)
        assert beam_pattern(w, [0.0])[0] == pytest.approx(4.0)
        assert beam_pattern(w, [0.5])[0] == pytest.approx(0.0, abs=1e-20)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            beam_pattern(steering_vector(4, 0.0), [])

    def test_average_power_is_one(self):
        # trapezoid quadrature of (1/2) * integral |A|^2 over a full period
        rng = np.random.default_rng(5)
        for n in (4, 16, 64):
            w = random_unit(rng, n)
            grid = np.linspace(-1, 1, 2048 * n + 1)
            p = beam_pattern(w, grid)
            mean = np.trapezoid(p, dx=2.0 / (grid.size - 1)) / 2.0
            assert mean == pytest.approx(1.0, abs=1e-6)


class TestPhaseRotate:
    def test_ramp_composition(self):
        got = phase_rotate(steering_vector(4, 0.0), 0.5)
        assert np.allclose(got, steering_vector(4, 0.5), atol=1e-15)

    def test_identity(self):
        w = steering_vector(4, 0.2)
        assert np.allclose(phase_rotate(w, 0.0), w, atol=0)

    def test_pattern_translation(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            w = random_unit(rng, 16)
            delta = float(rng.uniform(-1, 1))
            omega = float(rng.uniform(-1, 1))
            lhs = abs(beam_gain(phase_rotate(w, delta), omega))
            rhs = abs(gain_oracle(w, omega - delta))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_preserves_norms(self):
        rng = np.random.default_rng(9)
        w = random_unit(rng, 32)
        r = phase_rotate(w, 0.731)
        assert np.linalg.norm(r) == pytest.approx(np.linalg.norm(w), rel=1e-15)
        assert inf_norm_sq(r) == pytest.approx(inf_norm_sq(w), rel=1e-14)


class TestInfNormSq:
    def test_constant_amplitude(self):
        assert inf_norm_sq(steering_vector(8, 0.3)) == pytest.approx(1 / 8)

    def test_single_entry(self):
        assert inf_norm_sq([1.0, 0.0]) == 1.0

    def test_matches_scan(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            w = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            assert inf_norm_sq(w) == pytest.approx(
                max(abs(x) ** 2 for x in w), rel=1e-15)


class TestNormalize:
    def test_unit(self):
        assert np.allclose(normalize([2.0, 0.0], "unit"), [1.0, 0.0])

    def test_papc(self):
        assert np.allclose(normalize([0.5, 0.25], "papc"), [1.0, 0.5])

    def test_idempotent(self):
        rng = np.random.default_rng(17)
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        for mode in ("unit", "papc"):
            once = normalize(w, mode)
            assert np.allclose(normalize(once, mode), once, atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            normalize([0.0, 0.0], "unit")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            normalize([1.0], "max")


class TestAngleInterval:
    def test_fields(self):
        iv = AngleInterval(-1.0, 0.5)
        assert iv.end == -0.5
        assert iv.contains(-0.75)
        assert not iv.contains(0.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            AngleInterval(-1.5, 0.5)
        with pytest.raises(ValueError):
            AngleInterval(0.0, 0.0)
        with pytest.raises(ValueError):
            AngleInterval(0.9, 0.5)

    def test_shifted(self):
        iv = AngleInterval(-1.0, 0.5).shifted(0.25)
        assert iv.start == pytest.approx(-0.75)
        assert iv.width == 0.5


def test_weights_validation():
    with pytest.raises(ValueError):
        beam_gain([], 0.0)
    with pytest.raises(ValueError):
        inf_norm_sq(np.array([np.nan + 0j]))


def test_angle_validation():
    with pytest.raises(ValueError):
        steering_vector(4, math.nan)
    with pytest.raises(ValueError):
        beam_gain([1.0, 0.0], math.inf)
