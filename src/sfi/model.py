"""Ambient coordinate models for the three space forms.

K = 0 uses Cartesian coordinates in R^{n+1}. The curved cases use the
quadric models in R^{n+2}: the upper hyperboloid -y0^2 + |ybar|^2 = -1 for
K = -1 and the unit sphere for K = +1. Points at geodesic polar
coordinates (r, x), x in S^n, embed as

    K = -1: (cosh r, sinh r * x)      K = +1: (cos r, sin r * x)

so isometries fixing no point (translations) act linearly, which keeps
recentering free of per-node transcendental solves beyond a single 1D
root-find.

Throughout, "model vector" c in R^{n+1} means the tangent vector at the
origin whose exponential is the point in question; |c| is the geodesic
distance from the origin. A row needs three operations to recenter a
domain: point (exp_O of a model vector), model_vector (its inverse) and
translation_from_origin (the translation taking O to a point). The
general exponential and logarithm at any base point, the geodesic
distance and the translation to the origin with its inverse are test
oracles; they live in tests/oracles.py.
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
    """Inverse of embed; returns (r, x). The direction is 0 at r = 0."""
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


def point(sf, c):
    """exp_O(c): the ambient point of the model vector c."""
    c = np.asarray(c, dtype=float)
    if sf.K == 0:
        return c
    t = np.linalg.norm(c, axis=-1)
    return embed(sf, t, c / np.where(t[..., None] > 0, t[..., None], 1.0))


def model_vector(sf, p):
    """Inverse of point: the model vector r x of p = embed(r, x)."""
    if sf.K == 0:
        return np.asarray(p, dtype=float)
    r, x = polar(sf, p)
    return r[..., None] * x


def translation_from_origin(sf, p):
    """The translation taking O to the ambient point p, as a map on
    ambient points (shape (..., dim)).

    K = 0: y -> y + p. K = +-1: the boost or rotation by the distance d
    of p from O in the plane of e0 and p's spatial direction v, which
    fixes the directions orthogonal to that plane; at p = O, v = 0 and
    d = 0, so the map is the identity.
    """
    p = np.asarray(p, dtype=float)
    if sf.K == 0:
        return lambda y: y + p
    # p's polar coordinates, formed here rather than by polar so that a
    # translation is not counted as a ray-shooting residual evaluation
    s = np.linalg.norm(p[1:], axis=-1)
    v = np.zeros(sf.n + 2)
    v[1:] = p[1:] / (s if s > 0 else 1.0)
    e0 = origin(sf)
    if sf.K == -1:
        d = np.arcsinh(s)
        mat = (np.eye(sf.n + 2)
               + (np.cosh(d) - 1.0) * (np.outer(e0, e0) + np.outer(v, v))
               + np.sinh(d) * (np.outer(e0, v) + np.outer(v, e0)))
    else:
        d = np.arctan2(s, p[0])
        mat = (np.eye(sf.n + 2)
               + (np.cos(d) - 1.0) * (np.outer(e0, e0) + np.outer(v, v))
               - np.sin(d) * (np.outer(e0, v) - np.outer(v, e0)))
    return lambda y: y @ mat.T
