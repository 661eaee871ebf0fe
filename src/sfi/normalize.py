"""Normalization of radial graphs to the theorems' side conditions.

Two operations compose the pipeline. Recentering moves the domain by an
ambient isometry until its barycenter sits at the origin O: each pass
takes one Newton step of the Karcher energy from its gradient and
Hessian at O, which are closed-form angular quadratures of radial
primitives (domains.origin_newton_step), and re-derives the radial
profile by the per-node ray shooting that domains.barycenter also uses
at each of its iterates. Radius matching then re-labels the
same surface as rho*(1 + u*) so the chosen constraint functional of the
enclosed domain equals its value on the comparison ball of radius rho*.
Matching is a pure re-parametrization, so it never moves the
barycenter, and it runs after recentering, so the weighted volume (the
one constraint not invariant under isometries) is matched on the final
surface. normalize is therefore a single pass.

Because matching only re-labels the surface, normalize computes the
fine-grid 2-jet and geometry once, after recentering, and carries them
across matching (SurfaceGeometry.relabeled rescales the jet); the
constraint value is read from that geometry (Constraint.of_geometry),
the norms from its jet, and the barycenter displacement it reports is
the one recentering measured on that same surface.

Nothing before matching depends on the constraint, so a RecenteredGraph
holds that stage (the recentered graph, its geometries and the Fraenkel
asymmetry of the recentered domain, or the error of a stage that
raised) for every constraint normalized from the same sampled graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sfi import domains as dm
from sfi import graphgeom as gg
from sfi import model
from sfi import spherebasis as sb

BAR_TOL = 1e-9
RECENTER_PASSES = 30
OUT_OF_BAND_LIMIT = 1e-8


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
        """The constraint functional of the graph with geometry geo."""
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


def match_radius(graph, constraint, value):
    """Re-label the surface as rho*(1+u*) with the constraint matched.

    Returns (rho_star, new_graph). The underlying surface is unchanged:
    rho*(1+u*) = rho(1+u) pointwise, only the splitting moves. value is
    the constraint value of the graph (Constraint.of_geometry).
    """
    sf = graph.sf
    rho_star = constraint.ball_radius(sf, value, start=graph.rho)
    ratio = graph.rho / rho_star
    coeffs = graph.u.coeffs * ratio
    coeffs[0] += (ratio - 1.0) * np.sqrt(sf.sphere_area)
    new_u = sb.from_coeffs(graph.u.basis, coeffs)
    return rho_star, gg.RadialGraph(sf=sf, rho=rho_star, u=new_u)


def reproject_after_isometry(graph, grid, center, radii):
    """Radial graph of the surface translated so that the ambient point
    center moves to O, by per-node secant ray shooting
    (domains._shoot_radii).

    radii are the graph's radii at the grid nodes. Returns
    (new_graph, out_energy, values): out_energy is the absolute L2 energy
    of the part of the re-derived profile that the harmonic basis cannot
    represent, and values are the new u at the grid nodes.
    """
    sf = graph.sf
    r = dm._shoot_radii(graph, grid, center, radii)
    samples = r / graph.rho - 1.0
    u_new = sb.project(samples, grid, graph.u.basis)
    values = sb.values_on_grid(u_new, grid)
    out_energy = grid.integrate((samples - values) ** 2)
    return gg.RadialGraph(sf=sf, rho=graph.rho, u=u_new), out_energy, values


def recenter(graph, grid):
    """Translate the domain so its barycenter is the origin.

    Newton iteration at the origin: each pass computes the Karcher
    energy's gradient -G and Hessian H at O in closed form and stops
    when G meets the barycenter's own criterion (displacement 0) or the
    step H^{-1} G is shorter than BAR_TOL (displacement |H^{-1} G|).
    Otherwise it translates the domain so that exp_O(H^{-1} G) moves to
    O and re-derives the graph; the next pass's closed forms confirm the
    result on the re-derived graph. When H is not positive definite
    (K = +1 domains far past pi/2) the step is origin_newton_step's
    damped one. At K = 0, H is the mass times the identity and each step
    is the centroid.

    Returns (new_graph, displacement, out_of_band), the last being the
    worst per-pass out-of-band energy relative to the energy of the
    profile handed in (floored to absorb root-solve noise). Each pass
    reuses the node values the previous reprojection computed.
    """
    sf = graph.sf
    values = sb.values_on_grid(graph.u, grid)
    ref = max(grid.integrate(values ** 2), 1e-16)
    worst_band = 0.0
    for _ in range(RECENTER_PASSES):
        radii = graph.radii(values)
        step, met = dm.origin_newton_step(sf, grid, radii)
        disp = 0.0 if met else float(np.linalg.norm(step))
        if disp < BAR_TOL:
            return graph, disp, worst_band
        graph, out_energy, values = reproject_after_isometry(
            graph, grid, model.point(sf, step), radii)
        worst_band = max(worst_band, out_energy / ref)
        if worst_band > OUT_OF_BAND_LIMIT:
            raise RuntimeError(
                f"out-of-band energy ratio {worst_band:.3e} exceeds "
                f"{OUT_OF_BAND_LIMIT:.0e}; direction too rough for the basis")
    raise RuntimeError("recentering did not converge")


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
class RecenteredGraph:
    """The constraint-independent stage of normalizing a sampled graph on
    grid: recenter's result, the recentered graph's geometry on grid and
    on err_quad's coarse grid, and the Fraenkel asymmetry of its domain.

    Each is computed on first use and then kept, so every constraint
    normalized from this object shares them. A use that raises keeps its
    exception and every later use raises it again, with the message a
    separate normalization of the sampled graph would give.
    """

    sampled: gg.RadialGraph
    grid: object

    @_kept
    def recentering(self):
        """recenter(sampled, grid): (graph, displacement, out_of_band)."""
        return recenter(self.sampled, self.grid)

    @_kept
    def geometry(self):
        return gg.surface_geometry(self.recentering[0], self.grid)

    @_kept
    def coarse_geometry(self):
        coarse = sb.build_grid(self.grid.n, max(8, self.grid.d_exact // 2))
        return gg.surface_geometry(self.recentering[0], coarse)

    @_kept
    def asymmetry(self):
        """(alpha, center) of domains.fraenkel_asymmetry. It reads only
        the radii, which matching keeps, so it is also the asymmetry of
        every matched graph. The barycenter is not the optimal ball
        center, but the optimum lies close to the origin, so the center
        search is seeded there."""
        return dm.fraenkel_asymmetry(self.geometry,
                                     np.zeros(self.sampled.sf.n + 1))


def recentered(graph, grid):
    """graph's RecenteredGraph on grid: graph itself when it is one,
    which must have been built on grid."""
    if not isinstance(graph, RecenteredGraph):
        return RecenteredGraph(graph, grid)
    if graph.grid is not grid:
        raise ValueError("the recentered graph was built on another grid")
    return graph


@dataclass(frozen=True)
class NormalizedGraph:
    """A graph satisfying bar = O and one matched constraint, with the
    constraint's value, residual bookkeeping, its geometry on the grid
    and its norms.

    bar_displacement is recenter's last Newton step |H^{-1} G| on the
    final graph, below BAR_TOL, or 0 when the gradient there met the
    barycenter's criterion.
    """

    graph: gg.RadialGraph
    constraint: Constraint
    constraint_value: float
    constraint_residual: float
    bar_displacement: float
    out_of_band: float
    norms: sb.SobolevNorms
    geometry: gg.SurfaceGeometry = field(repr=False)

    @property
    def rho(self):
        return self.graph.rho


def normalize(graph, grid, constraint):
    """Recenter and match the constraint; returns a NormalizedGraph.

    graph is a RadialGraph or its RecenteredGraph on grid, whose
    recentering and geometry are then reused rather than recomputed.
    One pass suffices: recenter returns only once the barycenter
    displacement is below BAR_TOL, and matching only relabels that
    surface, so neither the barycenter nor the matched value can move
    afterwards. The recentered graph's geometry is built once; it gives
    the constraint value and, relabeled, the returned geometry and norms.
    Relabeling keeps every field the constraint reads (radii, sigma and
    area factor), so the value is also that of the returned graph.
    """
    shared = recentered(graph, grid)
    graph, bar_after, band = shared.recentering
    geo = shared.geometry
    value = constraint.of_geometry(geo)
    rho_star, graph = match_radius(graph, constraint, value)
    geo = geo.relabeled(graph)
    target = constraint.of_ball(graph.sf, rho_star)
    resid = abs(value - target) / max(abs(target), 1e-300)
    if not (resid < 1e-10 and bar_after < 1e-8):
        raise RuntimeError("normalization did not reach joint tolerance")
    return NormalizedGraph(
        graph=graph, constraint=constraint, constraint_value=value,
        constraint_residual=resid, bar_displacement=bar_after,
        out_of_band=band,
        norms=sb.sobolev_norms(grid, (geo.u_vals, geo.du, geo.d2u)),
        geometry=geo)
