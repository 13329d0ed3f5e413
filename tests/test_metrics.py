import math

import numpy as np
import pytest

from mmwcodebook import (
    AngleInterval,
    GdpConfig,
    LinkBudget,
    build_codebook,
    db_to_linear,
    gamma_per_from_link_budget,
    gdp,
    ideal_gdp_bound,
    inf_norm_sq,
    linear_to_db,
    link_budget_report,
    mtp,
    phase_rotate,
    steering_vector,
)
from mmwcodebook.metrics import _gdp_values, gdp_integrand


def random_unit(rng, n):
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return w / np.linalg.norm(w)


class TestGdp:
    def test_steering_peak_limit(self):
        # constant integrand at peak gain N with C = 1/N as the coverage
        # width shrinks around the steering angle
        for n in (4, 8, 16):
            w = steering_vector(n, 0.25)
            iv = AngleInterval(0.25 - 5e-9, 1e-8)
            expect = math.exp(-1.0 / (1.0 + n * n))
            assert gdp(w, iv) == pytest.approx(expect, abs=1e-9)

    def test_requires_unit_norm(self):
        with pytest.raises(ValueError):
            gdp(2.0 * steering_vector(4, 0.0), AngleInterval(-1.0, 1.0))

    def test_zero_width_interval_rejected(self):
        with pytest.raises(ValueError):
            AngleInterval(-1.0, 0.0)

    def test_upper_bound_random_codewords(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 33))
            w = random_unit(rng, n)
            width = float(rng.uniform(0.05, 2.0))
            start = float(rng.uniform(-1.0, 1.0 - width))
            iv = AngleInterval(start, width)
            bound = ideal_gdp_bound(inf_norm_sq(w), width)
            assert gdp(w, iv) <= bound + 1e-9

    def test_phase_shift_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(4, 33))
            w = random_unit(rng, n)
            width = float(rng.uniform(0.05, 0.8))
            start = float(rng.uniform(-1.0, 0.0))
            delta = float(rng.uniform(0.0, 1.0 - (start + width)))
            iv = AngleInterval(start, width)
            assert gdp(phase_rotate(w, delta), iv.shifted(delta)) == \
                pytest.approx(gdp(w, iv), abs=1e-6)

    @pytest.mark.parametrize("start, width", [
        (-1.0, 2.0), (-0.75, 0.5), (-1.0, 0.25), (0.1, 0.3), (-0.4, 1.35)])
    def test_mirror_about_the_coverage_centre_keeps_gdp(self, start, width):
        # w[n] -> exp(j*pi*n*2c) * conj(w[n]) mirrors |A|^2 about the
        # centre c, and the trapezoid grid is symmetric about c; the
        # conjugate reversal conj(w[::-1]) keeps |A|^2 itself
        rng = np.random.default_rng(37)
        iv = AngleInterval(start, width)
        for n in (4, 9, 16, 33):
            w = random_unit(rng, n)
            ramp = np.exp(1j * np.pi * 2.0 * iv.center * np.arange(n))
            assert abs(gdp(ramp * np.conj(w), iv) - gdp(w, iv)) <= 1e-12
            assert abs(gdp(np.conj(w[::-1]), iv) - gdp(w, iv)) <= 1e-12

    def test_gamma_scaling_raises_gdp(self):
        w = steering_vector(16, -0.9)
        iv = AngleInterval(-1.0, 0.125)
        low = gdp(w, iv, GdpConfig(gamma_per=1.0))
        high = gdp(w, iv, GdpConfig(gamma_per=db_to_linear(2.0)))
        assert high > low

    def test_quadrature_convergence_on_codebook_codewords(self):
        # gdp's resolution against twice it, on the kernel gdp calls
        cfg = GdpConfig()
        for n in (8, 16, 32, 64):
            cb = build_codebook("bmw-ms-cf", n, 2)
            pts = cfg.points_for(n)
            for k in range(cb.depth + 1):
                cw = cb.codeword(k, 1)
                values = [_gdp_values(cw.unit_awv[:, None], np.ones((1, 1)),
                                      cw.coverage, cfg, points)[0]
                          for points in (pts, 2 * pts)]
                assert values[0] == gdp(cw.unit_awv, cw.coverage)
                assert abs(values[1] - values[0]) <= 1e-7

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GdpConfig(gamma_per=0.0)

    def test_non_finite_gamma_rejected(self):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                GdpConfig(gamma_per=value)


class TestIntegrandMonotonicity:
    def test_smaller_c_dominates_pointwise(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            profile = rng.uniform(0.0, 10.0, 64)
            c_small, c_big = sorted(rng.uniform(0.01, 1.0, 2))
            low = gdp_integrand(c_big, profile)
            high = gdp_integrand(c_small, profile)
            assert np.all(high >= low)


class TestMtp:
    def test_constant_amplitude_maximizes(self):
        assert mtp(steering_vector(8, 0.0), 1.0) == pytest.approx(8.0)

    def test_single_entry(self):
        assert mtp([1.0] + [0.0] * 7, 1.0) == pytest.approx(1.0)

    def test_bounded_by_n(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            w = random_unit(rng, n)
            assert mtp(w, 1.0) <= n + 1e-9

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            mtp([0.0, 0.0], 1.0)


class TestIdealGdpBound:
    def test_values(self):
        assert ideal_gdp_bound(1 / 32, 2.0) == pytest.approx(
            math.exp(-1.0 / 33.0))
        assert ideal_gdp_bound(1.0, 2.0) == pytest.approx(math.exp(-0.5))

    def test_monotonic(self):
        # decreasing in the max entry power c and, since a wider coverage
        # dilutes the flat level 2/b, decreasing in b as well
        cs = np.linspace(0.01, 1.0, 50)
        vals = [ideal_gdp_bound(c, 1.0) for c in cs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        bs = np.linspace(0.05, 2.0, 50)
        vals = [ideal_gdp_bound(0.1, b) for b in bs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            ideal_gdp_bound(0.0, 1.0)
        with pytest.raises(ValueError):
            ideal_gdp_bound(0.1, 2.5)


class TestLinkBudget:
    def test_spreading_gain(self):
        lb = LinkBudget()
        assert lb.spreading_gain_db == pytest.approx(10 * math.log10(128))
        assert lb.spreading_gain_db == pytest.approx(21.0, abs=0.1)

    def test_received_power(self):
        lb = LinkBudget()
        assert lb.received_dbm == pytest.approx(
            15.0 - 20 * math.log10(4 * math.pi * 1e4))
        assert lb.received_dbm == pytest.approx(-87.0, abs=0.5)

    def test_noise_power_default_budget(self):
        assert LinkBudget().noise_dbm == pytest.approx(-74.0, abs=0.5)

    def test_gamma_linear(self):
        lb = LinkBudget()
        expect_db = lb.received_dbm - lb.noise_dbm + lb.spreading_gain_db
        assert linear_to_db(gamma_per_from_link_budget(lb)) == pytest.approx(
            expect_db, abs=1e-9)

    def test_report_notes_discrepancy(self):
        report = link_budget_report(LinkBudget())
        assert len(report["notes"]) == 2
        lo, hi = report["gamma_per_range_db"]
        assert hi - lo == pytest.approx(15.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkBudget(distance_m=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [
        "pa_saturation_dbm", "carrier_wavelength_m", "distance_m",
        "bandwidth_hz", "ambient_temp_k"])
    def test_non_finite_fields_refused(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            LinkBudget(**{name: value})

    @pytest.mark.parametrize("value", [0, 2.5, 128.0, True, "128"])
    def test_training_length_must_be_a_positive_integer(self, value):
        with pytest.raises(ValueError,
                           match="^training_length must be an integer"):
            LinkBudget(training_length=value)

    @pytest.mark.parametrize("excess", [(15.0, 0.0), (-1.0, 5.0),
                                        (0.0, math.nan)])
    def test_report_refuses_bad_excess_range(self, excess):
        with pytest.raises(ValueError, match="0 <= min <= max"):
            link_budget_report(LinkBudget(), excess)

    def test_report_refuses_a_non_finite_gamma_range(self):
        # every input and budget figure is finite, but gamma_per_db_no_excess
        # less the largest excess loss overflows to -inf
        lb = LinkBudget(pa_saturation_dbm=-1.7e308)
        with pytest.raises(ValueError, match="excess_loss_range_db must be "
                                             "finite, got -inf"):
            link_budget_report(lb, (0.0, 1.7e308))


def test_db_roundtrip():
    for x in (-31.7, 0.0, 2.0, 19.999):
        assert linear_to_db(db_to_linear(x)) == pytest.approx(x, abs=1e-12)
    for p in (1e-9, 1.0, 123.456):
        assert db_to_linear(linear_to_db(p)) == pytest.approx(p, rel=1e-12)


@pytest.mark.parametrize("x_db", [4000.0, math.inf, math.nan])
def test_db_to_linear_rejects_values_outside_float_range(x_db):
    with pytest.raises(ValueError, match=str(x_db)):
        db_to_linear(x_db)
