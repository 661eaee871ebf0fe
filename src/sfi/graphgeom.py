"""Pointwise geometry of radial graphs M = {(rho(1+u(x)), x)}.

All tensors are expressed in the per-node orthonormal frames of the grid,
so the round metric is the identity and raising indices is frame-trivial.
With w = rho * grad u and D = sqrt(phi^2 + |w|^2):

    g_ab   = w_a w_b + phi^2 delta_ab
    h_ab   = (2 phi' w_a w_b + phi^2 phi' delta_ab - phi rho u_ab) / D
    S^a_b  = phi'/D delta - rho u^a_b/(D phi) + phi' w^a w_b / D^3
             + rho w^a (u_bc w^c) / (D^3 phi)

The symmetric similarity g^{-1/2} h g^{-1/2} of the Weingarten map has
the same characteristic polynomial as S, because S is self-adjoint with
respect to g. The integrals read only sigma_k, which symfunc takes from
that polynomial without an eigensolve; the principal curvatures kappa are
derived on demand, by eigvalsh of the similarity, for the few readers
that need them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from sfi import spherebasis as sb
from sfi import symfunc as sy

DEGENERACY_TOL = 1e-13


@dataclass(frozen=True)
class RadialGraph:
    """Star-shaped hypersurface given by r(x) = rho (1 + u(x))."""

    sf: object
    rho: float
    u: object

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if np.isfinite(self.sf.r_max) and self.rho >= self.sf.r_max:
            raise ValueError("rho must lie below the radial domain bound")

    def radii(self, vals):
        """Radii rho (1 + u) from node values of u; a non-finite value
        raises ValueError, as the band checks let NaN through."""
        vals = np.asarray(vals)
        if not np.isfinite(vals).all():
            raise ValueError("non-finite values of u")
        return self.rho * (1.0 + vals)


@dataclass(frozen=True)
class SurfaceGeometry:
    """Batched per-node geometry of a radial graph on a grid.

    surface_geometry computes eagerly what the integrals read: the 2-jet
    of u (u_vals, du, d2u), r, phi, dphi, Phi, D, area_factor,
    second_form, sigma and H. kappa and H_plus are derived on first
    access and then cached; only the H^+ integral, convex_flags, the node
    dump and the tests read them. The Weingarten map and the
    divergence-form H, the oracles for sigma and H, live in
    tests/oracles.py.
    """

    graph: RadialGraph
    grid: object
    u_vals: np.ndarray = field(repr=False)
    du: np.ndarray = field(repr=False)
    d2u: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    dphi: np.ndarray = field(repr=False)
    Phi: np.ndarray = field(repr=False)
    D: np.ndarray = field(repr=False)
    area_factor: np.ndarray = field(repr=False)
    second_form: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    H: np.ndarray = field(repr=False)

    @property
    def _w(self):
        return self.graph.rho * self.du

    @cached_property
    def kappa(self):
        """Principal curvatures, ascending, per node."""
        return np.linalg.eigvalsh(
            _similarity(self._w, self.phi, self.D, self.second_form))

    @cached_property
    def H_plus(self):
        return np.maximum(self.H, 0.0)

    def relabeled(self, graph):
        """This surface's geometry as a graph over a new splitting.

        graph must re-label self.graph's surface, rho*(1 + u*) =
        rho(1 + u), as normalize.match_radius does. With lam = rho/rho*
        the jet becomes u* = lam u + lam - 1, grad u* = lam grad u and
        Hess u* = lam Hess u, while w = rho grad u and rho Hess u, and so
        every geometric field, are unchanged.
        """
        lam = self.graph.rho / graph.rho
        return replace(self, graph=graph,
                       u_vals=lam * self.u_vals + (lam - 1.0),
                       du=lam * self.du, d2u=lam * self.d2u)

    def convex_flags(self):
        """Per-node flag: all principal curvatures strictly positive."""
        return np.min(self.kappa, axis=1) > 0


def _similarity(w, ph, D, second):
    """g^{-1/2} h g^{-1/2} per node, symmetrized.

    g = w w^T + phi^2 I, so g^{-1/2} = I/phi + (1/D - 1/phi) w^ w^^T with
    w^ = w/|w|.
    """
    gn = np.sqrt(np.sum(w * w, axis=1))
    safe = np.where(gn > 0, gn, 1.0)
    what = w / safe[:, None]
    coeff = (1.0 / D - 1.0 / ph)
    ghalf_inv = np.eye(w.shape[1]) / ph[:, None, None] \
        + coeff[:, None, None] * what[:, :, None] * what[:, None, :]
    sym = ghalf_inv @ second @ ghalf_inv
    return 0.5 * (sym + np.swapaxes(sym, 1, 2))


def surface_geometry(graph, grid, jet=None):
    """Evaluate the pointwise geometry of the graph at every node.

    jet, if given, is the precomputed eval_jet_all(graph.u, grid).
    """
    sf = graph.sf
    n = grid.n
    vals, du, d2u = sb.eval_jet_all(graph.u, grid) if jet is None else jet
    if not (np.isfinite(du).all() and np.isfinite(d2u).all()):
        raise ValueError("non-finite 2-jet")
    r = graph.radii(vals)
    if np.any(r <= 0.0) or np.any(r >= sf.r_max):
        raise ValueError("graph radii leave the admissible band (0, r_max)")
    ph = sf.phi(r)
    dph = sf.dphi(r)
    Ph = sf.Phi(r)
    w = graph.rho * du
    gradsq = np.sum(w * w, axis=1)
    D = np.sqrt(ph * ph + gradsq)
    if np.min(D) < DEGENERACY_TOL or np.min(ph) < DEGENERACY_TOL:
        raise ValueError("degenerate metric: D or phi below tolerance")
    area = ph ** (n - 1) * D
    outer = w[:, :, None] * w[:, None, :]
    second = (2.0 * dph[:, None, None] * outer
              + (ph * ph * dph)[:, None, None] * np.eye(n)
              - ph[:, None, None] * (graph.rho * d2u)) / D[:, None, None]
    sigma = sy.sigma_all_batch(_similarity(w, ph, D, second))
    return SurfaceGeometry(
        graph=graph, grid=grid, u_vals=vals, du=du, d2u=d2u, r=r, phi=ph,
        dphi=dph, Phi=Ph, D=D, area_factor=area, second_form=second,
        sigma=sigma, H=sigma[:, 1])


def weighted_curvature_integral(graph, grid, w, k, positive_part=False,
                                geo=None):
    """Integral of g(Phi) sigma_k(kappa) over M, optionally with H^+.

    positive_part replaces sigma_1 = H by max(H, 0); it is only meaningful
    at k = 1.
    """
    n = grid.n
    if not 0 <= k <= n:
        raise ValueError(f"sigma order k={k} outside [0, {n}]")
    if positive_part and k != 1:
        raise ValueError("positive_part applies only to k = 1")
    if geo is None:
        geo = surface_geometry(graph, grid)
    core = geo.H_plus if positive_part else geo.sigma[:, k]
    return grid.integrate(w(geo.Phi) * core * geo.area_factor)


def sphere_curvature_integral(sf, rho, w, k):
    """Closed form of the same integral on the geodesic sphere r = rho."""
    from math import comb
    ph, dph, Ph = sf.phi(rho), sf.dphi(rho), sf.Phi(rho)
    return comb(sf.n, k) * sf.sphere_area * ph ** (sf.n - k) * dph ** k * w(Ph)


def node_dump_rows(geo):
    """Per-node diagnostic rows (index, r, kappa, H, sigma) for debugging."""
    rows = []
    for i in range(len(geo.r)):
        row = {"node": i, "r": float(geo.r[i]), "H": float(geo.H[i])}
        for a, kap in enumerate(geo.kappa[i]):
            row[f"kappa{a + 1}"] = float(kap)
        for k in range(geo.sigma.shape[1]):
            row[f"sigma{k}"] = float(geo.sigma[i, k])
        rows.append(row)
    return rows
