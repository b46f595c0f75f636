"""Closed-form radial and one-dimensional reference solutions.

Bessel J0/J1 are evaluated from scratch (power series plus Taylor
continuation of the defining ODE), so oracle values do not depend on any
special-function library and are reproducible digit-for-digit from the
source.  ``j01`` pins the first zero of J0; ``ball_solution`` and
``strip_solution`` turn a pair (lambda, alpha) into the exact constant-flux
profiles on the critical disk and on the flat strip.
``strip_flux_linearization`` is the flat strip's Dirichlet-to-Neumann
linearization (Sicbaldi 2010, Schlenk-Sicbaldi 2012): the flux deviation per
unit cos(2 pi x / T) wall perturbation, which changes sign at the
bifurcation period T* = 2 pi / sqrt(lambda).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonNegativeAlpha, NonPositiveLambda

_SERIES_CUTOFF = 8.0
_SERIES_TERMS = 42
_ANCHOR_STEP = 0.5
_TAYLOR_TERMS = 30


def _j_series(order: int, x: np.ndarray) -> np.ndarray:
    """Alternating power series; accurate to ~1e-14 absolute for x <= 8."""
    half = x / 2.0
    h2 = half * half
    if order == 0:
        term = np.ones_like(x)
    else:
        term = half.copy()
    total = term.copy()
    for m in range(1, _SERIES_TERMS):
        term = term * (-h2) / (m * (m + order))
        total += term
    return total


def _taylor_step(order: int, x0: float, y: float, dy: float, t: float) -> tuple[float, float]:
    """Advance (J, J') from x0 to x0+t through the Bessel ODE.

    Coefficients follow the recurrence obtained by expanding
    x^2 y'' + x y' + (x^2 - order^2) y = 0 about x0; |t| <= 0.5 keeps the
    truncation at 30 terms far below double precision.
    """
    c = [0.0] * (_TAYLOR_TERMS + 2)
    c[0] = y
    c[1] = dy
    mu2 = float(order * order)
    for m in range(_TAYLOR_TERMS):
        acc = x0 * (m + 1) * (2 * m + 1) * c[m + 1] + (m * m + x0 * x0 - mu2) * c[m]
        if m >= 1:
            acc += 2.0 * x0 * c[m - 1]
        if m >= 2:
            acc += c[m - 2]
        c[m + 2] = -acc / (x0 * x0 * (m + 2) * (m + 1))
    val = 0.0
    der = 0.0
    for m in range(_TAYLOR_TERMS + 1, -1, -1):
        val = val * t + c[m]
    for m in range(_TAYLOR_TERMS + 1, 0, -1):
        der = der * t + m * c[m]
    return val, der


class _AnchorTable:
    """Lazily grown table of (J0, J1) values at x = 8, 8.5, 9, ..."""

    def __init__(self) -> None:
        x0 = np.array([_SERIES_CUTOFF])
        self.j0 = [float(_j_series(0, x0)[0])]
        self.j1 = [float(_j_series(1, x0)[0])]

    def extend_to(self, xmax: float) -> None:
        while _SERIES_CUTOFF + (len(self.j0) - 1) * _ANCHOR_STEP < xmax:
            k = len(self.j0) - 1
            x0 = _SERIES_CUTOFF + k * _ANCHOR_STEP
            j0, dj0 = _taylor_step(0, x0, self.j0[k], -self.j1[k], _ANCHOR_STEP)
            j1, _ = _taylor_step(1, x0, self.j1[k], self.j0[k] - self.j1[k] / x0, _ANCHOR_STEP)
            self.j0.append(j0)
            self.j1.append(j1)

    def eval(self, order: int, x: float) -> float:
        self.extend_to(x + _ANCHOR_STEP)
        k = int(round((x - _SERIES_CUTOFF) / _ANCHOR_STEP))
        k = max(0, min(k, len(self.j0) - 1))
        x0 = _SERIES_CUTOFF + k * _ANCHOR_STEP
        if order == 0:
            val, _ = _taylor_step(0, x0, self.j0[k], -self.j1[k], x - x0)
        else:
            val, _ = _taylor_step(1, x0, self.j1[k], self.j0[k] - self.j1[k] / x0, x - x0)
        return val


_ANCHORS = _AnchorTable()


def bessel_j(order: int, x):
    """J0 or J1 at x >= 0 (scalar or array), absolute error <= 1e-12 on [0, 30]."""
    if order not in (0, 1):
        raise ValueError("only orders 0 and 1 are provided")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0):
        raise ValueError("bessel_j requires x >= 0")
    out = np.empty_like(arr)
    near = arr <= _SERIES_CUTOFF
    if np.any(near):
        out[near] = _j_series(order, arr[near])
    far_idx = np.nonzero(~near)[0]
    for i in far_idx:
        out[i] = _ANCHORS.eval(order, float(arr[i]))
    return float(out[0]) if scalar else out


@lru_cache(maxsize=1)
def j01() -> float:
    """First positive zero of J0: bisection on [2, 3], then Newton polish."""
    lo, hi = 2.0, 3.0
    flo = bessel_j(0, lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = bessel_j(0, mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    x = 0.5 * (lo + hi)
    for _ in range(3):
        x -= bessel_j(0, x) / (-bessel_j(1, x))
    return x


def r_lambda(lam: float) -> float:
    """Radius of the disk whose first Dirichlet eigenvalue equals lam."""
    if lam <= 0:
        raise NonPositiveLambda(f"lambda must be positive, got {lam}")
    return j01() / math.sqrt(lam)


@dataclass(frozen=True)
class BallSolution:
    """Radial profile A*J0(sqrt(lam)*r) with flux alpha at r = radius."""

    lam: float
    alpha: float
    radius: float
    amplitude: float
    h0: float

    def profile(self, r):
        return self.amplitude * bessel_j(0, np.sqrt(self.lam) * np.asarray(r, dtype=float))

    def profile_derivative(self, r):
        s = math.sqrt(self.lam)
        return -self.amplitude * s * bessel_j(1, s * np.asarray(r, dtype=float))


def ball_solution(lam: float, alpha: float) -> BallSolution:
    """Disk of radius r_lambda(lam) carrying the radial solution with
    boundary flux alpha < 0; h0 is the center (= maximum) value."""
    if lam <= 0:
        raise NonPositiveLambda(f"lambda must be positive, got {lam}")
    if alpha >= 0:
        raise NonNegativeAlpha(f"alpha must be negative, got {alpha}")
    amplitude = abs(alpha) / (math.sqrt(lam) * bessel_j(1, j01()))
    return BallSolution(
        lam=lam,
        alpha=alpha,
        radius=r_lambda(lam),
        amplitude=amplitude,
        h0=amplitude,
    )


@dataclass(frozen=True)
class StripSolution:
    """One-dimensional profile (|alpha|/sqrt(lam)) * sin(sqrt(lam) x) on [0, width]."""

    lam: float
    alpha: float
    width: float
    max_value: float

    def profile(self, x):
        s = math.sqrt(self.lam)
        return self.max_value * np.sin(s * np.asarray(x, dtype=float))

    def profile_derivative(self, x):
        s = math.sqrt(self.lam)
        return self.max_value * s * np.cos(s * np.asarray(x, dtype=float))

    def p_value(self, x):
        """u'^2 + lam*u^2, constant alpha^2 across the strip."""
        u = self.profile(x)
        du = self.profile_derivative(x)
        return du * du + self.lam * u * u


def strip_solution(lam: float, alpha: float) -> StripSolution:
    """Flat strip of width pi/sqrt(lam) with flux alpha < 0 on both walls."""
    if lam <= 0:
        raise NonPositiveLambda(f"lambda must be positive, got {lam}")
    if alpha >= 0:
        raise NonNegativeAlpha(f"alpha must be negative, got {alpha}")
    s = math.sqrt(lam)
    return StripSolution(lam=lam, alpha=alpha, width=math.pi / s, max_value=abs(alpha) / s)


def strip_flux_linearization(lam: float, T: float) -> float:
    """Flux deviation per unit cos(2 pi x / T) perturbation of both walls of
    the flat strip of half-width a = pi / (2 sqrt(lam)), for the eigenfunction
    of unit L2 norm on one period cell.

    With A = (T a)^(-1/2), k = 2 pi / T and w^2 = k^2 - lam this is
    A sqrt(lam) w tanh(w a); for k^2 < lam it continues as
    -A sqrt(lam) s tan(s a) with s^2 = lam - k^2.  Positive for T < T*,
    zero at T* = 2 pi / sqrt(lam), negative above.
    """
    if lam <= 0:
        raise NonPositiveLambda(f"lambda must be positive, got {lam}")
    if T <= 0:
        raise ValueError(f"period must be positive, got {T}")
    a = math.pi / (2.0 * math.sqrt(lam))
    scale = math.sqrt(lam / (T * a))
    w2 = (2.0 * math.pi / T) ** 2 - lam
    if w2 >= 0:
        w = math.sqrt(w2)
        return scale * w * math.tanh(w * a)
    s = math.sqrt(-w2)
    return -scale * s * math.tan(s * a)
