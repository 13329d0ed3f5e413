"""Complex array math for half-wave-spaced uniform linear arrays.

All angles live in the cosine-angle domain: a physical angle theta enters
every formula as cos(theta) in [-1, 1], and every array response is
2-periodic in it.  Antenna indexing is 1-based in the math (entry n carries
the phase ramp pi*(n-1)*omega); storage is plain 0-based numpy arrays.

All functions are pure; returned arrays are freshly allocated and marked
read-only, so a caller can hold and share them without copying.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AngleInterval",
    "beam_gain",
    "beam_gains",
    "beam_pattern",
    "inf_norm_sq",
    "normalize",
    "phase_rotate",
    "response_matrix",
    "steering_vector",
    "wrap_angle",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_integer(name: str, value, lo: int, hi: int = 2 ** 63 - 1) -> None:
    """Refuse a value that is not an integer in [lo, hi]; a bool is not one.
    By default `hi` is the int64 maximum, above every size and count."""
    integer = type(value) is not bool and isinstance(value, (int, np.integer))
    if not (integer and lo <= value <= hi):
        huge = integer and value > hi
        bounds = f"in [{lo}, {hi}]" if huge or hi < 2 ** 63 - 1 else f">= {lo}"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def _check_real(name: str, value, lo: float | None = None,
                hi: float | None = None, above: bool = False) -> float:
    """`value` as a float; refuse a bool, a non-real, a value past the finite
    float range, and one below `lo` (at `lo` when `above`) or above `hi`."""
    top = sys.float_info.max
    real = type(value) is not bool and isinstance(value, numbers.Real)
    x = float(value) if real and -top <= value <= top else math.nan
    if (math.isnan(x) or (hi is not None and x > hi)
            or (lo is not None and (x < lo or (above and x == lo)))):
        low = ("" if lo is None else " and positive" if lo == 0 and above
               else f" and {'>' if above else '>='} {lo}")
        high = "" if hi is None else f" and <= {hi}"
        raise ValueError(f"{name} must be finite{low}{high}, got {value!r}")
    return x


def _check_finite(name: str, values, dtype=np.complex128) -> np.ndarray:
    """`values` as an array of `dtype`; refuse one with a non-finite entry."""
    try:
        arr = np.asarray(values, dtype=dtype)
    except OverflowError:
        arr = np.array(math.nan)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _squared_moduli(name: str, values: np.ndarray) -> np.ndarray:
    """|values|^2; refuse finite values whose squares pass the float range."""
    with np.errstate(over="ignore"):
        return _check_finite(name, np.abs(values) ** 2, float)


def as_weights(w) -> np.ndarray:
    """Validate and coerce an antenna weight vector to complex128."""
    arr = _check_finite("weights", w)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("weights must be a non-empty 1-D vector")
    return arr


def wrap_angle(omega):
    """Wrap a cosine angle (scalar or array) into [-1, 1) by 2-periodicity."""
    om = _check_finite("cosine angles", omega, float)
    return np.mod(om + 1.0, 2.0) - 1.0


def steering_vector(n: int, omega) -> np.ndarray:
    """Unit-norm steering vector: entry n is exp(j*pi*(n-1)*omega)/sqrt(N).

    An array of angles gives one vector per angle along a new last axis.
    `omega` outside [-1, 1) is wrapped rather than rejected; the response is
    2-periodic so the wrapped vector is the same vector.
    """
    _check_integer("n", n, 1)
    om = wrap_angle(omega)[..., None]
    v = np.exp(1j * np.pi * np.arange(n) * om) / math.sqrt(n)
    return _freeze(v)


def response_matrix(omegas, n: int) -> np.ndarray:
    """exp(-j*pi*k*omega) for k = 0..n-1, one row per angle.

    Row g is the conjugated (unnormalized) array response at omegas[g].
    Built by cumulative products: one exponential per angle instead of one
    per matrix entry, which matters on the dense quadrature grids.
    """
    om = np.atleast_1d(wrap_angle(omegas)).ravel()
    e = np.empty((om.size, n), dtype=np.complex128)
    e[:, 0] = 1.0
    if n > 1:
        z = np.exp(-1j * np.pi * om)
        for k in range(1, n):
            np.multiply(e[:, k - 1], z, out=e[:, k])
    return e


def beam_gains(w, omegas) -> np.ndarray:
    """Complex beam gain of `w` toward each cosine angle in `omegas`.

    A(w, omega) = sum_n [w]_n exp(-j*pi*(n-1)*omega) = sqrt(N) a(N,omega)^H w

    The phase ramp runs in place, so no (grid x antennas) array is formed.
    """
    w = as_weights(w)
    om = np.atleast_1d(wrap_angle(omegas)).ravel()
    z = np.exp(-1j * np.pi * om)
    acc = np.ones_like(z)
    out = np.full(om.size, w[0], dtype=np.complex128)
    term = np.empty_like(z)
    for k in range(1, w.size):
        np.multiply(acc, z, out=acc)
        np.multiply(acc, w[k], out=term)
        out += term
    return _freeze(out)


def beam_gain(w, omega: float) -> complex:
    """Beam gain toward a single cosine angle (see `beam_gains`)."""
    return complex(beam_gains(w, [omega])[0])


def beam_pattern(w, grid) -> np.ndarray:
    """|A(w, omega)|^2 sampled over a grid of cosine angles."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ValueError("angle grid must be non-empty")
    g = beam_gains(w, grid)
    return _freeze(_squared_moduli("squared beam gains of weights", g))


def phase_rotate(w, delta: float) -> np.ndarray:
    """Multiply entry n by exp(j*pi*(n-1)*delta), shifting the beam by delta.

    Entry moduli are preserved, so the 2-norm and the max entry power are
    unchanged and the whole pattern translates: |A(out, omega)| equals
    |A(w, omega - delta)|.
    """
    w = as_weights(w)
    d = float(wrap_angle(delta))
    return _freeze(w * np.exp(1j * np.pi * np.arange(w.size) * d))


def inf_norm_sq(w) -> float:
    """Largest entry power max_n |[w]_n|^2."""
    w = as_weights(w)
    return float(np.max(_squared_moduli("entry powers of weights", w)))


def normalize(w, mode: str = "unit") -> np.ndarray:
    """Rescale weights: 'unit' for 2-norm 1, 'papc' for max |entry| = 1.

    'papc' scaling puts entries in units of the per-antenna amplitude limit,
    the convention used when comparing patterns under a per-antenna power
    constraint.
    """
    w = as_weights(w)
    if mode not in ("unit", "papc"):
        raise ValueError(f"unknown normalization mode {mode!r}")
    # the 2-norm squares finite entries, and a modulus may pass the range
    with np.errstate(over="ignore"):
        s = np.linalg.norm(w) if mode == "unit" else np.max(np.abs(w))
    if s == 0.0:
        raise ValueError("cannot normalize the zero vector")
    _check_real(f"{mode} normalization scale of weights", s)
    return _freeze(w / s)


@dataclass(frozen=True)
class AngleInterval:
    """A coverage interval [start, start + width] in the cosine-angle domain."""

    start: float
    width: float

    def __post_init__(self):
        if not (-1.0 <= self.start < 1.0):
            raise ValueError(f"interval start must be in [-1, 1), got {self.start}")
        _check_real("interval width", self.width, 0, 2.0, above=True)
        if self.start + self.width > 1.0 + 1e-12:
            raise ValueError(
                f"interval [{self.start}, {self.start + self.width}] exceeds +1"
            )

    @property
    def end(self) -> float:
        return self.start + self.width

    @property
    def center(self) -> float:
        return self.start + self.width / 2.0

    def contains(self, omega: float) -> bool:
        return self.start <= omega <= self.end

    def shifted(self, delta: float) -> "AngleInterval":
        """Same-width interval with the start moved by delta (wrapped)."""
        return AngleInterval(float(wrap_angle(self.start + delta)), self.width)
