"""Piecewise-linear chord approximations of sin and cos over a yaw interval.

Segments interpolate the function at uniformly spaced breakpoints, so the
approximation is exact at every knot and its error is bounded by h^2/8 per
segment (h = segment width, |f''| <= 1 for sin and cos).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

_FUNCS = {"sin": math.sin, "cos": math.cos}
#: how far outside its range a table may be evaluated (rounding of the range ends)
_DOMAIN_TOL = 1e-9
#: segment counts tried above the requested one when looking for a knot at 0
_ZERO_KNOT_SEARCH = 64


def chord_error_bound(h: float) -> float:
    """Bound on |chord - exact| of sin or cos over a segment of width ``h``."""
    return h * h / 8.0


@dataclass(frozen=True, eq=False)
class PwlTable:
    """Chord segments of sin or cos over [theta_min, theta_max].

    ``breakpoints`` has n_segments + 1 strictly increasing entries; segment k
    (0-based) is the chord of the function between breakpoints k and k+1 with
    slope ``slopes[k]`` and intercept ``intercepts[k]``.
    """

    kind: str
    breakpoints: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self):
        for arr in (self.breakpoints, self.slopes, self.intercepts):
            np.asarray(arr).setflags(write=False)

    @property
    def n_segments(self) -> int:
        return len(self.slopes)

    @property
    def theta_min(self) -> float:
        return float(self.breakpoints[0])

    @property
    def theta_max(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def segment_width(self) -> float:
        return (self.theta_max - self.theta_min) / self.n_segments

    def error_bound(self) -> float:
        """Uniform bound on |table - exact| over the whole range."""
        return chord_error_bound(self.segment_width)

    def segment_of(self, theta):
        """0-based index of a segment containing theta (lower one at interior
        knots): an int for a scalar, an array of them for an array."""
        t, k = self._located(theta)
        return int(k) if t.ndim == 0 else k

    def eval(self, theta):
        """Value of the active chord at ``theta`` (scalar or array)."""
        t, k = self._located(theta)
        out = self.slopes[k] * t + self.intercepts[k]
        return float(out) if np.isscalar(theta) or t.ndim == 0 else out

    def _located(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """``theta`` as a float array and the segment of each entry. Every
        entry must lie within the table's range: a NaN lies in none, and an
        empty array has no entry to check."""
        t = np.asarray(theta, dtype=float)
        if t.size:
            for value in (float(np.min(t)), float(np.max(t))):  # either is NaN if an entry is
                if not self.theta_min - _DOMAIN_TOL <= value <= self.theta_max + _DOMAIN_TOL:
                    raise DomainError(
                        f"theta {value} outside [{self.theta_min}, {self.theta_max}] of {self.kind} table"
                    )
        k = np.searchsorted(self.breakpoints, t, side="right") - 1
        return t, np.minimum(np.maximum(k, 0), self.n_segments - 1)


def build_table(kind: str, theta_range: tuple[float, float], n_segments: int) -> PwlTable:
    """Build the chord table of ``kind`` ("sin" or "cos") over ``theta_range``."""
    if kind not in _FUNCS:
        raise ConfigurationError(f"kind must be 'sin' or 'cos', got {kind!r}")
    if n_segments < 2:
        raise ConfigurationError(f"n_segments must be >= 2, got {n_segments}")
    lo, hi = float(theta_range[0]), float(theta_range[1])
    if not lo < hi:
        raise ConfigurationError(f"empty theta range [{lo}, {hi}]")
    f = _FUNCS[kind]
    bp = np.linspace(lo, hi, n_segments + 1)
    vals = np.array([f(t) for t in bp])
    slopes = (vals[1:] - vals[:-1]) / (bp[1:] - bp[:-1])
    intercepts = vals[:-1] - slopes * bp[:-1]
    return PwlTable(kind=kind, breakpoints=bp, slopes=slopes, intercepts=intercepts)


def segment_count_with_zero_knot(theta_range: tuple[float, float], n_segments: int) -> int:
    """Smallest count >= n_segments that puts a breakpoint at 0, if one exists.

    Only applies when the range straddles 0; uniform spacing cannot hit 0
    exactly for every range, so the search is bounded and falls back to the
    requested count unchanged.
    """
    lo, hi = float(theta_range[0]), float(theta_range[1])
    if not lo < 0.0 < hi:
        return n_segments
    frac = -lo / (hi - lo)
    for ns in range(n_segments, n_segments + _ZERO_KNOT_SEARCH + 1):
        k = round(ns * frac)
        if 0 < k < ns and abs(ns * frac - k) <= 1e-9 * ns:
            return ns
    return n_segments
