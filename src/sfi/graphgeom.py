"""Pointwise geometry of radial graphs M = {(rho(1+u(x)), x)}.

All tensors are expressed in the per-node orthonormal frames of the grid,
so the round metric is the identity and raising indices is frame-trivial.
With w = rho * grad u, B = rho * Hess u and D = sqrt(phi^2 + |w|^2):

    g_ab   = w_a w_b + phi^2 delta_ab
    h_ab   = (2 phi' w_a w_b + phi^2 phi' delta_ab - phi B_ab) / D
    S^a_b  = phi'/D delta - B^a_b/(D phi) + phi' w^a w_b / D^3
             + w^a (B_bc w^c) / (D^3 phi)

sigma_k of the shape operator S = g^{-1} h is taken in closed form from
the per-node invariants sigma_j(B) and Q_j = w^T T_j(B) w of
symfunc.hessian_invariants, with no matrix per node. Write
M = alpha I + beta B with alpha = phi^2 phi' and beta = -phi. As
g^{-1} = (I - w w^T / D^2) / phi^2 and 1 - |w|^2/D^2 = phi^2/D^2,

    S = (phi^2 D)^{-1} (M + w v^T),   v = (2 phi' phi^2 w - M w) / D^2,

a rank-one update of M. The update rule sigma_k(A + w v^T) =
sigma_k(A) + v^T T_{k-1}(A) w and the Newton relation
M T_{k-1}(M) = sigma_k(M) I - T_k(M) give, with q_m = w^T T_m(M) w,
q_{-1} = 0, q_0 = |w|^2 and q_n = 0 (Cayley-Hamilton),

    sigma_k(S) = [phi^2 sigma_k(M) + 2 phi' phi^2 q_{k-1} + q_k]
                 / (D^2 (phi^2 D)^k).

M shares its eigenvectors with B, so T_m(M) is diagonal with T_j(B) and

    sigma_k(M) = sum_j C(n-j, k-j) alpha^{k-j} beta^j sigma_j(B),
    q_m        = sum_j C(n-1-j, m-j) alpha^{m-j} beta^j Q_j.

Under u -> e u, sigma_j(B) scales by e^j and Q_j by e^{j+2}, so a Jet
carries the invariants of Hess u and grad u once, scaled to every
amplitude of a fit by scaled_curvature_integrals; relabeling the splitting
(SurfaceGeometry.relabeled) leaves w and B, and so every invariant,
unchanged. The principal curvatures kappa are derived on demand, by
eigvalsh of the symmetric similarity g^{-1/2} h g^{-1/2}, which has the
characteristic polynomial of S because S is self-adjoint with respect
to g; only a few readers need them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from math import comb
from typing import NamedTuple

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


class Jet(NamedTuple):
    """The 2-jet of u at the grid nodes (values, frame gradient, frame
    Hessian) with the invariants sigma_j(Hess u), shape (nodes, n+1), and
    Q_j = grad u^T T_j(Hess u) grad u, shape (nodes, n), that sigma_k of
    the shape operator reads."""

    vals: np.ndarray
    du: np.ndarray
    d2u: np.ndarray
    sigma: np.ndarray
    quad: np.ndarray

    @classmethod
    def of(cls, u, grid):
        vals, du, d2u = sb.eval_jet_all(u, grid)
        return cls(vals, du, d2u, *sy.hessian_invariants(d2u, du))


@dataclass(frozen=True)
class SurfaceGeometry:
    """Batched per-node geometry of a radial graph on a grid: the one
    input of every functional of the graph (weighted_curvature_integral,
    the domains functionals, Constraint.of_geometry).

    surface_geometry computes eagerly what the integrals read: the 2-jet
    of u (u_vals, du, d2u), r, phi, dphi, Phi, D, area_factor, sigma and
    H. second_form, kappa and H_plus are derived on first access and then
    cached; only the H^+ integral, convex_flags, the node dump and the
    tests read them. The Weingarten map, the divergence-form H and the
    similarity route to sigma, the oracles for sigma and H, live in
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
    sigma: np.ndarray = field(repr=False)
    H: np.ndarray = field(repr=False)

    @property
    def _w(self):
        return self.graph.rho * self.du

    @cached_property
    def second_form(self):
        """h_ab per node, the formula in the module docstring."""
        w, ph, dph = self._w, self.phi, self.dphi
        outer = w[:, :, None] * w[:, None, :]
        return (2.0 * dph[:, None, None] * outer
                + (ph * ph * dph)[:, None, None] * np.eye(w.shape[1])
                - ph[:, None, None] * (self.graph.rho * self.d2u)) \
            / self.D[:, None, None]

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


def _shape_sigma(n, orders, sig, quad, rho, ph, dph, D):
    """sigma_k of the shape operator for k in orders, a range from 1 up,
    by the closed form in the module docstring, forming only the terms
    those orders read; sig and quad yield sigma_j(Hess u) and Q_j from
    j = 0, node-minor like ph, dph and D, with any leading axis."""
    top = orders[-1]
    ph2 = ph * ph
    alpha, beta = ph2 * dph, -rho * ph
    apow, bpow = [1.0], [1.0]
    for _ in range(top):
        apow.append(apow[-1] * alpha)
        bpow.append(bpow[-1] * beta)
    # beta^j sigma_j(B) and beta^j Q_j with B = rho Hess u, w = rho grad u
    bsig = [b * s for b, s in zip(bpow, sig)]
    bquad = [(rho * rho) * b * q for b, q in zip(bpow, quad)]
    # q[m] = q_m, with q_n = 0 (Cayley-Hamilton)
    q = {m: sum(comb(n - 1 - j, m - j) * apow[m - j] * bquad[j]
                for j in range(m + 1)) if m < n else 0.0
         for m in range(orders[0] - 1, top + 1)}
    out, den = [], D * D
    for k in range(1, top + 1):
        den = den * (ph2 * D)
        if k in orders:
            sig_M = sum(comb(n - j, k - j) * apow[k - j] * bsig[j]
                        for j in range(k + 1))
            out.append((ph2 * sig_M + 2.0 * alpha * q[k - 1] + q[k]) / den)
    return out


def _radial_fields(graph, vals, quad0, du, d2u):
    """(r, phi, phi', Phi, D) from node values of u and Q_0 = |grad u|^2
    of any shape, after the finite 2-jet, band and degeneracy checks."""
    if not (np.isfinite(du).all() and np.isfinite(d2u).all()):
        raise ValueError("non-finite 2-jet")
    sf = graph.sf
    r = graph.radii(vals)
    if np.any(r <= 0.0) or np.any(r >= sf.r_max):
        raise ValueError("graph radii leave the admissible band (0, r_max)")
    ph, dph, Ph = sf.warp(r)
    D = np.sqrt(ph * ph + graph.rho ** 2 * quad0)
    if np.min(D) < DEGENERACY_TOL or np.min(ph) < DEGENERACY_TOL:
        raise ValueError("degenerate metric: D or phi below tolerance")
    return r, ph, dph, Ph, D


def surface_geometry(graph, grid):
    """Evaluate the pointwise geometry of the graph at every node."""
    n = grid.n
    jet = Jet.of(graph.u, grid)
    r, ph, dph, Ph, D = _radial_fields(graph, jet.vals, jet.quad[:, 0],
                                       jet.du, jet.d2u)
    sigma = np.column_stack([np.ones_like(ph), *_shape_sigma(
        n, range(1, n + 1), jet.sigma.T, jet.quad.T, graph.rho, ph, dph, D)])
    return SurfaceGeometry(
        graph=graph, grid=grid, u_vals=jet.vals, du=jet.du, d2u=jet.d2u,
        r=r, phi=ph, dphi=dph, Phi=Ph, D=D, area_factor=ph ** (n - 1) * D,
        sigma=sigma, H=sigma[:, 1])


def scaled_curvature_integrals(graph, grid, w, k, amplitudes, jet):
    """weighted_curvature_integral on rho (1 + e u) for each amplitude e,
    where graph = rho (1 + u) and jet = Jet.of(graph.u, grid), in one
    pass over blocks of NODE_BLOCK nodes with (amplitudes, block)
    temporaries that scales sigma_j by e^j and Q_j by e^(j+2) and forms
    only sigma_k. grid.integrate sums each row of the integrands, so each
    value is bit for bit that of a full-grid geometry of the scaled jet."""
    n = grid.n
    if not 0 <= k <= n:
        raise ValueError(f"sigma order k={k} outside [0, {n}]")
    e = np.asarray(amplitudes, dtype=float)[:, None]
    p = np.array([float(x) ** np.arange(n + 1) for x in e[:, 0]])
    pq = e * e * p[:, :-1]
    out = np.empty((len(e), grid.node_count))
    for start in range(0, grid.node_count, sb.NODE_BLOCK):
        b = slice(start, start + sb.NODE_BLOCK)
        sig = (jet.sigma[b, j] * p[:, j:j + 1] for j in range(n + 1))
        quad = (jet.quad[b, j] * pq[:, j:j + 1] for j in range(n))
        _, ph, dph, Ph, D = _radial_fields(
            graph, e * jet.vals[b], jet.quad[b, 0] * pq[:, :1], jet.du[b],
            jet.d2u[b])
        core = 1.0 if k == 0 else _shape_sigma(
            n, range(k, k + 1), sig, quad, graph.rho, ph, dph, D)[0]
        out[:, b] = w(Ph) * core * (ph ** (n - 1) * D)
    return [grid.integrate(row) for row in out]


def weighted_curvature_integral(geo, w, k, positive_part=False):
    """Integral of g(Phi) sigma_k(kappa) over M, optionally with H^+,
    on the grid of M's geometry geo.

    positive_part replaces sigma_1 = H by max(H, 0); it is only meaningful
    at k = 1.
    """
    n = geo.grid.n
    if not 0 <= k <= n:
        raise ValueError(f"sigma order k={k} outside [0, {n}]")
    if positive_part and k != 1:
        raise ValueError("positive_part applies only to k = 1")
    core = geo.H_plus if positive_part else geo.sigma[:, k]
    return geo.grid.integrate(w(geo.Phi) * core * geo.area_factor)


def sphere_curvature_integral(sf, rho, w, k):
    """Closed form of the same integral on the geodesic sphere r = rho."""
    ph, dph, Ph = sf.warp(rho)
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
