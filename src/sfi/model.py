"""Ambient coordinate models for the three space forms.

K = 0 uses Cartesian coordinates in R^{n+1}. The curved cases use the
quadric models in R^{n+2}: the upper hyperboloid -y0^2 + |ybar|^2 = -1 for
K = -1 (with the Lorentz inner product) and the unit sphere for K = +1.
Points at geodesic polar coordinates (r, x), x in S^n, embed as

    K = -1: (cosh r, sinh r * x)      K = +1: (cos r, sin r * x)

so isometries fixing no point (translations) act linearly, which keeps
recentering and translated geodesic balls free of per-node transcendental
solves beyond a single 1D root-find.

Throughout, "model vector" c in R^{n+1} means the tangent vector at the
origin whose exponential is the point in question; |c| is the geodesic
distance from the origin. Lifting c to the ambient tangent space at O and
the reference radial profile of a geodesic ball are test oracles; they
live in tests/oracles.py.
"""

from __future__ import annotations

import numpy as np


def origin(sf):
    """Ambient coordinates of the distinguished origin O."""
    if sf.K == 0:
        return np.zeros(sf.n + 1)
    e0 = np.zeros(sf.n + 2)
    e0[0] = 1.0
    return e0


def embed(sf, r, x):
    """Map polar coordinates (r, x in S^n) to ambient coordinates.

    r broadcasts against the leading axes of x (shape (..., n+1)).
    """
    x = np.asarray(x, dtype=float)
    r = np.broadcast_to(np.asarray(r, dtype=float), x.shape[:-1])[..., None]
    if sf.K == 0:
        return r * x
    if sf.K == -1:
        return np.concatenate([np.cosh(r), np.sinh(r) * x], axis=-1)
    return np.concatenate([np.cos(r), np.sin(r) * x], axis=-1)


def polar(sf, y):
    """Inverse of embed; returns (r, x). Undefined direction at r = 0."""
    y = np.asarray(y, dtype=float)
    if sf.K == 0:
        r = np.linalg.norm(y, axis=-1)
        x = y / np.where(r[..., None] > 0, r[..., None], 1.0)
        return r, x
    spatial = y[..., 1:]
    s = np.linalg.norm(spatial, axis=-1)
    x = spatial / np.where(s[..., None] > 0, s[..., None], 1.0)
    r = np.arcsinh(s) if sf.K == -1 else np.arctan2(s, y[..., 0])
    return r, x


def _lorentz_dot(a, b):
    return -a[..., 0] * b[..., 0] + np.sum(a[..., 1:] * b[..., 1:], axis=-1)


def distance(sf, y, p):
    """Geodesic distance between ambient points (broadcasting)."""
    y = np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    if sf.K == 0:
        return np.linalg.norm(y - p, axis=-1)
    if sf.K == -1:
        # chord formula: <y-p, y-p>_L = 4 sinh^2(d/2), stable near d = 0
        q = np.maximum(_lorentz_dot(y - p, y - p), 0.0)
        return 2.0 * np.arcsinh(0.5 * np.sqrt(q))
    chord = np.linalg.norm(y - p, axis=-1)
    return 2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))


def log_map(sf, p, y):
    """Inverse exponential: tangent vector at p pointing to y.

    Returned in ambient components, with |v| equal to the geodesic
    distance. Stable as y -> p.
    """
    y = np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    if sf.K == 0:
        return y - p
    d = distance(sf, y, p)
    if sf.K == -1:
        rad = y - np.cosh(d)[..., None] * p
        den = np.sinh(d)
    else:
        rad = y - np.cos(d)[..., None] * p
        den = np.sin(d)
    scale = np.where(d > 1e-12, d / np.where(den > 0, den, 1.0), 1.0)
    return scale[..., None] * rad


def exp_map(sf, p, v):
    """Exponential map at p applied to tangent vector(s) v."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if sf.K == 0:
        return p + v
    if sf.K == -1:
        t = np.sqrt(np.maximum(_lorentz_dot(v, v), 0.0))
        co, si = np.cosh(t), np.sinh(t)
    else:
        t = np.linalg.norm(v, axis=-1)
        co, si = np.cos(t), np.sin(t)
    vhat = v / np.where(t[..., None] > 0, t[..., None], 1.0)
    return co[..., None] * p + si[..., None] * vhat


def model_vector(sf, p):
    """Inverse of c -> exp_O(c): p -> model vector c in R^{n+1}."""
    v = log_map(sf, origin(sf), p)
    return v if sf.K == 0 else v[..., 1:]


class Isometry:
    """Ambient isometry: linear map for K = +-1, translation for K = 0."""

    def __init__(self, matrix=None, offset=None):
        self.matrix = matrix
        self.offset = offset

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        if self.matrix is not None:
            return y @ self.matrix.T
        return y + self.offset

    def inverse(self):
        if self.matrix is not None:
            return Isometry(matrix=np.linalg.inv(self.matrix))
        return Isometry(offset=-self.offset)


def translation_to_origin(sf, p):
    """Isometry taking the ambient point p to the origin O.

    For K = +-1 this is the boost/rotation in the plane spanned by e0 and
    the spatial direction of p; directions orthogonal to that plane are
    fixed.
    """
    p = np.asarray(p, dtype=float)
    if sf.K == 0:
        return Isometry(offset=-p)
    m = sf.n + 2
    d, x = polar(sf, p)
    d = float(d)
    if d < 1e-300:
        return Isometry(matrix=np.eye(m))
    v = np.zeros(m)
    v[1:] = x
    e0 = np.zeros(m)
    e0[0] = 1.0
    if sf.K == -1:
        ch, sh = np.cosh(d), np.sinh(d)
        mat = (np.eye(m) + (ch - 1.0) * (np.outer(e0, e0) + np.outer(v, v))
               - sh * (np.outer(e0, v) + np.outer(v, e0)))
    else:
        co, si = np.cos(d), np.sin(d)
        mat = (np.eye(m) + (co - 1.0) * (np.outer(e0, e0) + np.outer(v, v))
               + si * (np.outer(e0, v) - np.outer(v, e0)))
    return Isometry(matrix=mat)

