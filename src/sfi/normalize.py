"""Normalization of sampled radial graphs to the theorems' side conditions.

A row compares the sampled surface with the geodesic ball about the
barycenter p of its domain (domains.barycenter) whose radius rho*
matches one constraint functional. Nothing is moved: every row
functional is an integral over the sampled surface, and only the
weight's argument Phi(d_p) and the weighted volume depend on p. The
other constraints, sigma_k and the area element are read from the
sampled geometry as they are.

At the node y = (R, x), in the orthonormal frame {d_r, E_a} (E_a the
grid frame), X_p = phi(d_p) d_{r_p} has the components (R - p . x,
-p . E_a) at K = 0 and (p0 phi(R) - phi'(R) pbar . x, -pbar . E_a) at
K = +-1, p = (p0, pbar); phi_p = |X_p|, and Phi(d_p) is |y - p|^2 / 2 or
K (1 - p0 phi'(R)) - phi(R) pbar . x. As div X_p = (n+1) phi'(d_p), the
weighted volume about p is (n+1)^-1 int <X_p, nu> dmu, with
nu = (phi, -w) / D as in graphgeom.

The profile about p is u* = d_p / rho* - 1. Inverting graphgeom's graph
formulas with c = <X_p, nu> / phi_p: rho* grad u* = W = X_p - (phi_p / c)
nu, dsigma_p = (c / phi_p^n) dmu, and on d_{r_p}^perp

    rho* Hess u* = (2 phi'_p W W^T + phi_p^2 phi'_p P - (phi_p / c) h^p)
                   / phi_p,

P the projector onto d_{r_p}^perp, h^p(V, V') = phi^-2 (T V)_E^T h
(T V')_E with T V = <W, V> d_{r_p} + phi_p V, and h the second
fundamental form in graphgeom's frame. W, d_p and that Hessian do not
depend on rho*, so they are formed once per sampled graph
(center_fields) and each constraint divides by its own rho*.

A SampledGraph holds everything that does not depend on the constraint,
so every constraint normalized from one sampled graph shares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from sfi import domains as dm
from sfi import graphgeom as gg
from sfi import model
from sfi import spherebasis as sb


@dataclass(frozen=True)
class Constraint:
    """Constraint functional tag: quermassintegral W_j or weighted volume.

    j = -1 selects the volume. kind is "quermass" or "weighted_volume".
    """

    kind: str
    j: int = -1

    def __post_init__(self):
        if self.kind not in ("quermass", "weighted_volume"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")

    @property
    def label(self):
        if self.kind == "weighted_volume":
            return "weighted_volume"
        return "volume" if self.j == -1 else f"W{self.j}"

    def of_geometry(self, geo):
        """The constraint functional of the graph with geometry geo, the
        weighted volume taken about the origin."""
        if self.kind == "weighted_volume":
            return dm.weighted_volume(geo)
        if self.j == -1:
            return dm.volume(geo)
        return dm.quermassintegrals(geo)[self.j]

    def of_ball(self, sf, rho):
        if self.kind == "weighted_volume":
            return dm.ball_weighted_volume(sf, rho)
        return dm.ball_quermassintegrals(sf, rho)[self.j]

    def ball_radius_cap(self, sf):
        if sf.K != 1:
            return np.inf
        return np.pi - 1e-9 if (self.kind == "quermass" and self.j == -1) \
            else np.pi / 2

    def ball_radius(self, sf, value, start=1.0):
        """Radius of the geodesic ball whose constraint functional equals
        value; raises ValueError when no ball attains it."""
        return dm.ball_radius(lambda r: self.of_ball(sf, r), value,
                              self.ball_radius_cap(sf), start=start)


def volume_constraint():
    return Constraint(kind="quermass", j=-1)


def weighted_volume_constraint():
    return Constraint(kind="weighted_volume")


def quermass_constraint(j):
    return Constraint(kind="quermass", j=j)


def parse_constraint(text):
    """Parse "volume", "weighted_volume" or "W<j>" into a Constraint."""
    t = text.strip().lower()
    if t == "volume":
        return volume_constraint()
    if t == "weighted_volume":
        return weighted_volume_constraint()
    if t.startswith("w"):
        try:
            return quermass_constraint(int(t[1:]))
        except ValueError:
            pass
    raise ValueError(f"unrecognized constraint {text!r}")


def _position_field(geo, p):
    """(X_r, X_E, Phi(d_p)) at geo's nodes, X_E node-minor (n, N)."""
    sf, grid = geo.graph.sf, geo.grid
    frames = grid.frames.transpose(1, 2, 0)
    if sf.K == 0:
        Xr = geo.r - grid.nodes @ p
        XE = -(p @ frames)
        return Xr, XE, 0.5 * (Xr * Xr + _dot(XE, XE))
    px = grid.nodes @ p[1:]
    XE = -(p[1:] @ frames)
    return (p[0] * geo.phi - geo.dphi * px, XE,
            sf.K * (1.0 - p[0] * geo.dphi) - geo.phi * px)


def _dot(a, b):
    """Node-wise dot products of node-minor vector fields (m, N)."""
    return np.einsum("an,an->n", a, b)


def weight_argument(geo, p):
    """Phi(d_p) at geo's nodes, the weight's argument about the ambient
    point p; geo.Phi when p is the origin."""
    return _position_field(geo, p)[2]


class CenterFields(NamedTuple):
    """A graph's fields about a center p at its grid's nodes: Phi(d_p),
    the weighted volume about p, and the rho*-free parts of the norms of
    u* = d_p / rho* - 1: d_p, the quadrature weights of dsigma_p,
    |rho* grad u*|^2 and the largest operator norm of rho* Hess u*."""

    Phi: np.ndarray
    weighted_volume: float
    dist: np.ndarray
    measure: np.ndarray
    grad_sq: np.ndarray
    hess_norm: float

    def norms(self, rho):
        """Sobolev norms of u* = dist / rho - 1, sup norms over the nodes."""
        u = self.dist / rho - 1.0
        l2 = np.sqrt(max(float(np.sum(self.measure * (u * u))), 0.0))
        grad_l2 = np.sqrt(max(float(np.sum(self.measure * self.grad_sq)),
                              0.0)) / rho
        c1 = max(float(np.max(np.abs(u))),
                 float(np.sqrt(np.max(self.grad_sq))) / rho)
        return sb.SobolevNorms(l2=float(l2), grad_l2=float(grad_l2), c1=c1,
                               w2inf=max(c1, self.hess_norm / rho))


def center_fields(geo, p):
    """CenterFields of the graph with geometry geo about the ambient point
    p; raises ValueError unless the surface is a radial graph about p
    (<X_p, nu> > 0 at every node)."""
    sf, grid = geo.graph.sf, geo.grid
    Xr, XE, Phi = _position_field(geo, p)
    w, ph = geo.graph.rho * geo.du.T, geo.phi
    # <X_p, nu> D
    flux = Xr * ph - _dot(XE, w)
    if not np.all(flux > 0.0):
        raise ValueError("surface is not a radial graph about its "
                         "barycenter")
    dmu = flux * ph ** (sf.n - 1)
    phi_p = np.sqrt(Xr * Xr + _dot(XE, XE))
    dphi_p = 1.0 - sf.K * Phi
    if sf.K == 0:
        dist = phi_p
    elif sf.K == -1:
        dist = np.arcsinh(phi_p)
    else:
        dist = np.arctan2(phi_p, dphi_p)
    # Y = X_p - W = q (phi, -w) lies along nu; Z = W - Y
    q = phi_p * phi_p / flux
    Y = np.vstack([q * ph, -q * w])
    Z = np.vstack([Xr, XE]) - 2.0 * Y
    W = Z + Y
    return CenterFields(
        Phi=Phi, weighted_volume=grid.integrate(dmu) / (sf.n + 1),
        dist=dist, measure=grid.weights * dmu / phi_p ** (sf.n + 1),
        grad_sq=_dot(W, W), hess_norm=sb.hessian_norm(
            _center_hessian(geo, XE, Y, Z, phi_p, dphi_p)))


def _center_hessian(geo, XE, Y, Z, phi_p, dphi_p):
    """rho* Hess u* at geo's nodes, (n+1) x (n+1) in the frame
    {d_r, E_a}, shape (N, n+1, n+1), a view of a node-minor array; its
    zero eigenvalue along d_{r_p} leaves the operator norm unchanged.

    With Y and Z of center_fields, lam = q D / phi^2, g = h X_E (radial
    entry 0) and gam = X_E . g, the module docstring's formula is

        phi_p phi'_p I + (phi'_p / phi_p) Z Z^T
        - (2 phi'_p / phi_p + gam lam / phi_p^3) Y Y^T
        + (lam / phi_p) (Y g^T + g Y^T) - phi_p lam h,

    h = (2 phi' w w^T + phi^2 phi' I - phi rho Hess u) / D in the E_a
    block. The upper entries are formed row by row on node vectors and
    mirrored, so few node vectors are alive at once.
    """
    ph, dph, D = geo.phi, geo.dphi, geo.D
    rho = geo.graph.rho
    w, d2u = rho * geo.du.T, geo.d2u.transpose(1, 2, 0)
    lam = Y[0] * D / (ph * ph * ph)
    hX = ((2.0 * dph * _dot(w, XE)) * w + (ph * ph * dph) * XE
          - (rho * ph) * np.einsum("abn,bn->an", d2u, XE)) / D
    a, gY = dphi_p / phi_p, lam / phi_p
    # Y V^T gathers the Y Y^T terms and one of the two Y g^T terms
    V = (-2.0 * a - _dot(XE, hX) * gY / (phi_p * phi_p)) * Y
    V[1:] += gY * hX
    # phi_p lam h = cw w w^T + hd I - cB Hess u
    hs = phi_p * lam / D
    cw, cB = 2.0 * dph * hs, rho * ph * hs
    diag = [phi_p * dphi_p, phi_p * dphi_p - ph * ph * dph * hs]
    m = len(Y)
    out = np.empty((m, m, len(ph)))
    for i in range(m):
        zi = a * Z[i]
        if i:
            gi, wi = gY * hX[i - 1], cw * w[i - 1]
        for j in range(i, m):
            e = zi * Z[j] + Y[i] * V[j]
            if i:
                e += gi * Y[j] - wi * w[j - 1] + cB * d2u[i - 1, j - 1]
            out[i, j] = out[j, i] = e
        out[i, i] += diag[min(i, 1)]
    return out.transpose(2, 0, 1)


def _kept(compute):
    """A property whose first outcome, a value or an exception, is kept."""
    def get(self):
        kept = self.__dict__.setdefault(compute.__name__, [])
        if not kept:
            try:
                kept.append(compute(self))
            except Exception as exc:
                kept.append(exc)
        if isinstance(kept[0], Exception):
            raise kept[0]
        return kept[0]
    return property(get, doc=compute.__doc__)


@dataclass(frozen=True, eq=False)
class SampledGraph:
    """The constraint-independent stage of normalizing a sampled graph on
    grid: its geometry on grid and on err_quad's coarse grid, the
    barycenter p of its domain, its CenterFields about p, the weight's
    argument about p on the coarse grid and its Fraenkel asymmetry.

    Each is computed on first use and then kept, so every constraint
    normalized from this object shares them. A use that raises keeps its
    exception and every later use raises it again, with the message a
    separate normalization of the sampled graph would give.
    """

    graph: gg.RadialGraph
    grid: object

    @_kept
    def geometry(self):
        return gg.surface_geometry(self.graph, self.grid)

    @_kept
    def coarse_geometry(self):
        coarse = sb.build_grid(self.grid.n, max(8, self.grid.d_exact // 2))
        return gg.surface_geometry(self.graph, coarse)

    @_kept
    def barycenter(self):
        """domains.barycenter of the domain, an ambient point."""
        return dm.barycenter(self.geometry)

    @_kept
    def fields(self):
        return center_fields(self.geometry, self.barycenter)

    @_kept
    def coarse_Phi(self):
        return weight_argument(self.coarse_geometry, self.barycenter)

    @_kept
    def asymmetry(self):
        """(alpha, center) of domains.fraenkel_asymmetry, the search
        seeded at the barycenter, which lies close to the optimal ball
        center."""
        return dm.fraenkel_asymmetry(
            self.geometry, model.model_vector(self.graph.sf, self.barycenter))


def sampled_graph(graph, grid):
    """graph's SampledGraph on grid: graph itself when it is one, which
    must have been built on grid."""
    if not isinstance(graph, SampledGraph):
        return SampledGraph(graph, grid)
    if graph.grid is not grid:
        raise ValueError("the sampled graph was built on another grid")
    return graph


@dataclass(frozen=True)
class NormalizedGraph:
    """A sampled graph read about its barycenter with one constraint
    matched: the radius rho of the comparison ball about the barycenter,
    the constraint's value and relative residual, and the norms of the
    profile u* = d_p / rho - 1."""

    sampled: SampledGraph
    constraint: Constraint
    rho: float
    constraint_value: float
    constraint_residual: float
    norms: sb.SobolevNorms


def normalize(graph, grid, constraint):
    """Match the constraint about the barycenter: a NormalizedGraph.

    graph is a RadialGraph or its SampledGraph on grid, whose stages are
    then reused. The constraint value is read from the sampled geometry
    (the weighted volume about the barycenter), and rho* is
    constraint.ball_radius of it.
    """
    shared = sampled_graph(graph, grid)
    if constraint.kind == "weighted_volume":
        value = shared.fields.weighted_volume
    else:
        value = constraint.of_geometry(shared.geometry)
    sf = shared.graph.sf
    rho = constraint.ball_radius(sf, value, start=shared.graph.rho)
    target = constraint.of_ball(sf, rho)
    resid = abs(value - target) / max(abs(target), 1e-300)
    if not resid < 1e-10:
        raise RuntimeError("normalization did not match the constraint")
    return NormalizedGraph(
        sampled=shared, constraint=constraint, rho=rho,
        constraint_value=value, constraint_residual=resid,
        norms=shared.fields.norms(rho))
