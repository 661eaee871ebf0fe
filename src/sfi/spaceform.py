"""Space-form primitives and convex weight functions.

The three simply connected space forms of curvature K in {-1, 0, +1} are
modeled as warped products over the unit sphere with warping function

    phi(r) = sinh r (K=-1),  r (K=0),  sin r (K=+1),

together with its antiderivative Phi(r) = cosh r - 1, r^2/2, 1 - cos r.
Everything downstream (graph geometry, domain functionals, inequality
checks) consumes these scalars through the SpaceForm type defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def unit_sphere_area(n):
    """Area of the unit n-sphere, 2 pi^((n+1)/2) / Gamma((n+1)/2)."""
    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


@dataclass(frozen=True)
class SpaceForm:
    """Constant-curvature ambient space of dimension n+1.

    K is the curvature tag (-1 hyperbolic, 0 Euclidean, +1 spherical) and n
    is the dimension of the spherical factor, so hypersurfaces are graphs
    over S^n. The radial coordinate lives in [0, r_max).
    """

    K: int
    n: int

    def __post_init__(self):
        if self.K not in (-1, 0, 1):
            raise ValueError(f"curvature tag must be -1, 0 or +1, got {self.K}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise ValueError(f"dimension n must be an integer >= 2, got {self.n}")

    @property
    def r_max(self):
        return math.pi if self.K == 1 else math.inf

    @property
    def sphere_area(self):
        return unit_sphere_area(self.n)

    def _check_domain(self, r):
        if isinstance(r, float):  # np.float64 too: no ndarray round trip
            bad = r < 0 or r >= self.r_max
            r = np.float64(r)
        else:
            r = np.asarray(r, dtype=float)
            bad = np.any(r < 0) or np.any(r >= self.r_max)
        if bad:
            raise ValueError(f"radius out of range [0, {self.r_max})")
        return r

    def phi(self, r):
        r = self._check_domain(r)
        if self.K == -1:
            return np.sinh(r)
        if self.K == 0:
            return r + 0.0
        return np.sin(r)

    def dphi(self, r):
        """phi'(r); satisfies phi'^2 + K phi^2 = 1."""
        r = self._check_domain(r)
        if self.K == -1:
            return np.cosh(r)
        if self.K == 0:
            return r ** 0  # 1 at every r, NaN too; a scalar stays a scalar
        return np.cos(r)

    def warp(self, r):
        """(phi, phi', Phi) at r, Phi the antiderivative of phi with
        Phi(0) = 0: Phi = phi' - 1 (K = -1), r^2/2 (K = 0) and 1 - phi'
        (K = +1), so phi' and Phi share one cosh or cos."""
        r = self._check_domain(r)
        if self.K == -1:
            dph = np.cosh(r)
            return np.sinh(r), dph, dph - 1.0
        if self.K == 0:
            return r + 0.0, r ** 0, 0.5 * r * r
        dph = np.cos(r)
        return np.sin(r), dph, 1.0 - dph

    def volume_primitive(self, r):
        """Integral of phi^n from 0 to r, in closed form.

        The geodesic ball of radius r has volume sphere_area * primitive.
        """
        r = self._check_domain(r)
        if self.K == 0:
            # a scalar's ** calls libm's pow; np.power rounds as on arrays
            return np.power(r, self.n + 1) / (self.n + 1)
        if self.K == -1:
            return self.primitive_from_warp(np.sinh(r), np.cosh(r), r)
        return self.primitive_from_warp(np.sin(r), np.cos(r), r)

    def primitive_from_warp(self, ph, dph, r=None):
        """volume_primitive for K = +-1 from phi(r) and phi'(r).

        The reduction P_m = ((m-1) P_{m-2} - phi^{m-1} phi') / (K m),
        from d/dr (phi^{m-1} phi') = (m-1) phi^{m-2} - K m phi^m, starts
        at P_1 = K (1 - phi') for odd n and at P_0 = r for even n, so r
        itself is read only for even n and no transcendental function is
        evaluated here.
        """
        if self.n % 2:
            # K=-1: cosh r - 1; K=+1: 1 - cos r
            out, start = self.K * (1.0 - dph), 1
        else:
            out, start = r + 0.0, 0
        for m in range(start + 2, self.n + 1, 2):
            # np.power rounds a scalar as an array; a scalar's ** would
            # call libm's pow
            out = ((m - 1) * out - np.power(ph, m - 1) * dph) / (self.K * m)
        return out


@dataclass(frozen=True)
class WeightFunction:
    """Weight g on [0, inf) with analytic derivatives up to second order.

    The evaluators are closures; numerical differentiation is never used
    because second derivatives of g enter expansion coefficients at full
    precision. kind tags the family for reporting.
    """

    kind: str
    fn: callable = field(repr=False)
    d1: callable = field(repr=False)
    d2: callable = field(repr=False)
    label: str = ""

    def __call__(self, s):
        return self.fn(np.asarray(s, dtype=float))

    def deriv(self, s, order=1):
        s = np.asarray(s, dtype=float)
        if order == 0:
            return self.fn(s)
        if order == 1:
            return self.d1(s)
        if order == 2:
            return self.d2(s)
        raise ValueError(f"derivative order must be 0..2, got {order}")

    @classmethod
    def constant(cls, value=1.0):
        z = lambda s: np.zeros_like(s)
        return cls("constant", lambda s: np.full_like(s, float(value)), z, z,
                   label=f"{value:g}")

    @classmethod
    def affine(cls):
        """g(s) = 1 + s."""
        z = lambda s: np.zeros_like(s)
        return cls("affine", lambda s: 1.0 + s, lambda s: np.ones_like(s), z,
                   label="1+s")

    @classmethod
    def power(cls, alpha):
        """g(s) = s^alpha with alpha >= 1."""
        if alpha < 1:
            raise ValueError("power weights need alpha >= 1")
        return cls("power", *_power_closures(float(alpha), shift=0.0),
                   label=f"s^{alpha:g}")

    @classmethod
    def shifted_power(cls, alpha):
        """g(s) = (1+s)^alpha with alpha >= 1."""
        if alpha < 1:
            raise ValueError("shifted-power weights need alpha >= 1")
        return cls("shifted-power", *_power_closures(float(alpha), shift=1.0),
                   label=f"(1+s)^{alpha:g}")

    def scaled(self, c):
        """Return c * g as a new weight (same admissibility for c > 0)."""
        c = float(c)
        return WeightFunction(
            self.kind, lambda s: c * self.fn(s), lambda s: c * self.d1(s),
            lambda s: c * self.d2(s), label=f"{c:g}*({self.label})")


def _power_closures(alpha, shift):
    def dk(order):
        coef = 1.0
        for i in range(order):
            coef *= alpha - i
        def f(s, coef=coef, p=alpha - order):
            if coef == 0.0:
                return np.asarray(s, dtype=float) * 0.0
            base = shift + s
            if p >= 0:
                return coef * base ** p
            # negative exponent: finite only away from base = 0
            with np.errstate(divide="ignore"):
                out = coef * base ** p
            return out
        return f
    return dk(0), dk(1), dk(2)


@dataclass(frozen=True)
class WeightFlags:
    """Pointwise admissibility of a weight on a sampled s-grid."""

    positive: bool
    monotone: bool
    convex: bool
    hyperbolic_admissible: bool


def check_weight(w, s_grid):
    """Check weight admissibility flags on a sampled grid.

    positive requires g > 0 strictly at every sample; the remaining flags
    are non-strict inequalities with tolerance -1e-12: g' >= 0 (monotone),
    g'' >= 0 (convex) and (1+s) g' - g >= 0 (hyperbolic_admissible).
    """
    s = np.asarray(s_grid, dtype=float)
    if s.size == 0:
        raise ValueError("s_grid must be nonempty")
    if np.any(s < 0):
        raise ValueError("s_grid must be nonnegative")
    tol = -1e-12
    g = w(s)
    g1 = w.deriv(s, 1)
    g2 = w.deriv(s, 2)
    return WeightFlags(
        positive=bool(np.all(g > 0)),
        monotone=bool(np.all(g1 >= tol)),
        convex=bool(np.all(g2 >= tol)),
        hyperbolic_admissible=bool(np.all((1.0 + s) * g1 - g >= tol)),
    )


def default_weight_set():
    """The four weights used throughout the sweeps."""
    return [
        WeightFunction.constant(1.0),
        WeightFunction.power(1.0),
        WeightFunction.affine(),
        WeightFunction.shifted_power(2.0),
    ]
