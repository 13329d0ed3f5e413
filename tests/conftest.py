"""Shared test fixtures."""

import numpy as np
import pytest

from mmwcodebook import GdpConfig, beam_pattern, inf_norm_sq
from mmwcodebook.metrics import gdp_integrand, quadrature_grid


def _gdp_reference(w, interval, cfg=GdpConfig(), points=None):
    """GDP of a unit-norm codeword by plain trapezoid quadrature.

    Samples `beam_pattern` over the whole quadrature grid of `points` per
    unit (None: `cfg.points_for(N)`, as `gdp` takes) and integrates with
    `np.trapezoid`: a second evaluation of the integral that shares
    neither the gain computation nor the summation with
    `metrics._gdp_values`.
    """
    w = np.asarray(w, dtype=np.complex128)
    psi = quadrature_grid(interval, points or cfg.points_for(w.size))
    y = gdp_integrand(inf_norm_sq(w), beam_pattern(w, psi), cfg.gamma_per)
    h = interval.width / (psi.size - 1)
    return float(np.trapezoid(y, dx=h) / interval.width)


@pytest.fixture(scope="session")
def gdp_reference():
    """`_gdp_reference(w, interval, cfg, points)`: the independent GDP."""
    return _gdp_reference
