"""Inequality laboratory for weighted curvature integrals.

Everything here compares a curvature integral of a nearly spherical
hypersurface against its value on the matching geodesic ball:

* equality_function evaluates the sharp comparison value for a given
  constraint level by root-finding the ball radius;
* stability_constant gives the closed-form coefficient of the
  quantitative (asymmetry-squared) lower bounds;
* verify runs the full pipeline on one graph: normalize, integrate,
  compare, and flag; it is called once per row, and verify_rows runs it
  for several cases on one sampled graph, which share the graph's
  recentering, geometries and asymmetry (nz.RecenteredGraph);
* expansion_oracle fits the small-amplitude Taylor expansion of the
  integral and compares the fitted coefficients against the closed-form
  coefficient blocks;
* sweep drives verify_rows with its one case over a deterministic
  family of random directions and amplitudes and returns a SweepResult;
  it writes no CSV or JSON (the sfi sweep command calls verify_rows
  itself, with every case of its configuration) and stays for the
  benchmark, which calls it.

Every second-order closed form comes from one source, the expansion
about the geodesic sphere: sigma_expansion_blocks gives the blocks of
int g(Phi) sigma_k dmu (at k = 1 those of the mean-curvature integral
too), constraint_blocks those of the volume, the weighted volume or
W_j (the quermassintegral recurrence applied to the constant-weight
blocks), and deficit_coefficients composes the two into the quadratic
form of the constrained deficit, for every theorem case. The gradient
bounds below are the paper's lower bounds on that form. Independent
derivations (the mean-curvature blocks, the forms expanded by hand)
live in tests/oracles.py.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass
from math import comb, inf

import numpy as np

from sfi import domains as dm
from sfi import graphgeom as gg
from sfi import normalize as nz
from sfi import spherebasis as sb
from sfi.spaceform import WeightFunction, check_weight

# Norm budgets inside which the comparisons are asserted; rows whose
# normalized profile exceeds the relevant budget are flagged, not failed.
C1_BUDGET = 0.05
W2INF_BUDGET = 0.05

# Relative floor used when turning quadrature-error estimates into
# pass/fail tolerances.
REL_TOL_FLOOR = 1e-11

# Largest condition number of the column-scaled expansion-fit design.
FIT_COND_LIMIT = 1e8


# ---------------------------------------------------------------------------
# theorem registry

@dataclass(frozen=True)
class TheoremFamily:
    """Static description of one comparison theorem."""

    tid: str
    kind: str              # "validity" or "stability"
    target: str            # "H" (mean curvature, H^+ on the left) or "sigma"
    constraint_kind: str   # "volume", "weighted_volume" or "quermass"
    K_allowed: tuple
    needs_hyperbolic: bool
    min_n: int


THEOREMS = {
    t.tid: t for t in (
        TheoremFamily("H-volume", "validity", "H", "volume",
                      (-1, 0, 1), False, 3),
        TheoremFamily("H-weighted-volume", "validity", "H", "weighted_volume",
                      (-1,), True, 3),
        TheoremFamily("sigmak-weighted-volume", "validity", "sigma",
                      "weighted_volume", (-1,), True, 2),
        TheoremFamily("sigmak-quermass-hyperbolic", "stability", "sigma",
                      "quermass", (-1,), True, 2),
        TheoremFamily("sigmak-quermass-hyperbolic-validity", "validity",
                      "sigma", "quermass", (-1,), True, 2),
        TheoremFamily("sigmak-quermass-euclidean", "stability", "sigma",
                      "quermass", (0,), False, 2),
    )
}

@dataclass(frozen=True)
class TheoremCase:
    """One concrete instance: theorem id, space form, weight and indices.

    k is the curvature order of the left-hand integral (forced to 1 for
    the mean-curvature theorems); j indexes the quermassintegral
    constraint W_j and must be None for the volume/weighted-volume
    theorems. rho is the reference ball radius used to seed sweeps and
    to evaluate case-level constants; eta_frac expresses the stability
    slack eta as a fraction of the constant C.
    """

    theorem: str
    sf: object
    w: object
    k: int = 1
    j: object = None
    rho: float = 1.0
    eta_frac: float = 0.25

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(
                f"unknown theorem id {self.theorem!r}; expected one of "
                f"{sorted(THEOREMS)}")
        fam = THEOREMS[self.theorem]
        n, K = self.sf.n, self.sf.K
        if K not in fam.K_allowed:
            raise ValueError(
                f"{self.theorem} requires K in {fam.K_allowed}, got K={K}")
        if n < fam.min_n:
            raise ValueError(f"{self.theorem} requires n >= {fam.min_n}, "
                             f"got n={n}")
        if fam.target == "H":
            if self.k != 1:
                raise ValueError(f"{self.theorem} is a mean-curvature "
                                 f"comparison; k must be 1, got k={self.k}")
        else:
            k_hi = n - 1 if self.theorem == "sigmak-quermass-hyperbolic" \
                else n
            if not 0 <= self.k <= k_hi:
                raise ValueError(f"{self.theorem} needs 0 <= k <= {k_hi}, "
                                 f"got k={self.k}")
        if fam.constraint_kind == "quermass":
            if not isinstance(self.j, (int, np.integer)):
                raise ValueError(f"{self.theorem} needs an integer "
                                 f"constraint index j, got {self.j!r}")
            if not -1 <= self.j < self.k:
                raise ValueError(f"{self.theorem} needs -1 <= j < k, got "
                                 f"j={self.j}, k={self.k}")
        elif self.j is not None:
            raise ValueError(f"{self.theorem} takes no constraint index j")
        if not 0 <= self.eta_frac < 1:
            raise ValueError("eta_frac must lie in [0, 1)")
        if not (0 < self.rho < self.sf.r_max):
            raise ValueError(f"rho={self.rho} outside (0, r_max)")

    @property
    def family(self):
        return THEOREMS[self.theorem]

    @property
    def norm_budget(self):
        """(norm name, budget) asserted by the comparison."""
        if self.family.target == "H":
            return ("c1", C1_BUDGET)
        return ("w2inf", W2INF_BUDGET)

    def constraint(self):
        kind = self.family.constraint_kind
        if kind == "volume":
            return nz.volume_constraint()
        if kind == "weighted_volume":
            return nz.weighted_volume_constraint()
        return nz.quermass_constraint(int(self.j))

    def required_flags(self):
        flags = ["positive", "monotone", "convex"]
        if self.family.needs_hyperbolic:
            flags.append("hyperbolic_admissible")
        return tuple(flags)


# ---------------------------------------------------------------------------
# expansion coefficient blocks

@dataclass(frozen=True)
class ExpansionBlocks:
    """Pointwise Taylor coefficients of a functional of the graph, such
    as int g(Phi) sigma_k dmu or a constraint functional, about the round
    sphere r = rho, for graphs r = rho (1 + u).

    The functional equals
        c0 |S^n|  +  cu rho int u  +  cuu rho^2 int u^2
                  +  cgrad rho^2 int |grad u|^2  +  O(||u||^3-type terms),
    with all integrals over the unit sphere.
    """

    c0: float
    cu: float
    cuu: float
    cgrad: float

    def integrated(self, jet, grid, rho, area):
        """(C0, C1, C2): closed-form Taylor coefficients of eps for the
        one-parameter family u = eps * u0, given the values and gradient
        of u0 at the grid nodes as the first two entries of jet."""
        vals, grad = jet[:2]
        i1 = grid.integrate(vals)
        i2 = grid.integrate(vals * vals)
        ig = grid.integrate(np.sum(grad * grad, axis=1))
        return (self.c0 * area,
                self.cu * rho * i1,
                self.cuu * rho ** 2 * i2 + self.cgrad * rho ** 2 * ig)


def sigma_expansion_blocks(sf, w, k, rho):
    """Second-order coefficient blocks of int g(Phi) sigma_k dmu."""
    n, K = sf.n, sf.K
    if not 0 <= k <= n:
        raise ValueError(f"sigma order k={k} outside [0, {n}]")
    ph, dp, s = sf.warp(rho)
    if dp <= 0:
        raise ValueError("expansion blocks need phi'(rho) > 0")
    G = float(w(s))
    G1 = float(w.deriv(s, 1))
    G2 = float(w.deriv(s, 2))
    C = comb(n, k)
    c0 = C * ph ** (n - k) * dp ** k * G
    cu = C * (((n - k) * ph ** (n - k - 1) * dp ** (k + 1)
               - K * k * ph ** (n - k + 1) * dp ** (k - 1)) * G
              + ph ** (n - k + 1) * dp ** k * G1)
    cuu = C * (((n - k) * (n - k - 1) / 2.0 * ph ** (n - k - 2) * dp ** (k + 2)
                + K * (k * k - k * n - n / 2.0) * ph ** (n - k) * dp ** k
                + K * K * k * (k - 1) / 2.0 * ph ** (n - k + 2)
                * dp ** (k - 2)) * G
               + (n - k + 0.5) * ph ** (n - k) * dp ** (k + 1) * G1
               - K * k * ph ** (n - k + 2) * dp ** (k - 1) * G1
               + 0.5 * ph ** (n - k + 2) * dp ** k * G2)
    cgrad = C * (((n - k) * (k + 1) / (2.0 * n) * ph ** (n - k - 2) * dp ** k
                  - K * k * (k - 1) / (2.0 * n) * ph ** (n - k)
                  * dp ** (k - 2)) * G
                 + k / float(n) * ph ** (n - k) * dp ** (k - 1) * G1)
    return ExpansionBlocks(c0=c0, cu=cu, cuu=cuu, cgrad=cgrad)


def constraint_blocks(sf, constraint, rho):
    """Second-order coefficient blocks of a constraint functional, in
    ExpansionBlocks' convention: the volume int P_n(r), the weighted
    volume int phi^{n+1}(r) / (n+1), or W_j, which the quermassintegral
    recurrence builds from the volume and the constant-weight sigma_k
    blocks."""
    n, K = sf.n, sf.K
    ph, dp, _ = sf.warp(rho)
    if constraint.kind == "weighted_volume":
        return ExpansionBlocks(
            c0=ph ** (n + 1) / (n + 1), cu=ph ** n * dp,
            cuu=0.5 * (n * ph ** (n - 1) * dp ** 2 - K * ph ** (n + 1)),
            cgrad=0.0)
    vol = np.array([sf.volume_primitive(rho), ph ** n,
                    0.5 * n * ph ** (n - 1) * dp, 0.0])
    if constraint.j == -1:
        return ExpansionBlocks(*map(float, vol))
    one = WeightFunction.constant(1.0)
    sig = [np.array(astuple(sigma_expansion_blocks(sf, one, k, rho)))
           for k in range(n + 1)]
    W = dm.quermass_recurrence(K, n, vol, sig)[constraint.j]
    return ExpansionBlocks(*map(float, W))


# ---------------------------------------------------------------------------
# constrained deficit quadratic forms

def deficit_coefficients(sf, w, k, constraint, rho):
    """(cu2, cgrad2) of the constrained sigma_k deficit.

    To second order,
        int g(Phi) sigma_k dmu - ball value
            = cu2 rho^2 int u^2 + cgrad2 rho^2 int |grad u|^2
    for graphs rho (1 + u) on which the constraint takes its value on
    the ball of radius rho. Holding the constraint's expansion at zero
    fixes rho int u, which eliminates the linear term of the integral's
    expansion: with F and C the blocks of the integral and of the
    constraint and r = F.cu / C.cu, the form is
    (F.cuu - r C.cuu, F.cgrad - r C.cgrad). The same holds for the
    mean-curvature comparisons at k = 1.
    """
    F = sigma_expansion_blocks(sf, w, k, rho)
    C = constraint_blocks(sf, constraint, rho)
    if C.cu == 0:
        raise ValueError(f"constraint {constraint.label} has no first "
                         f"variation at rho={rho}")
    r = F.cu / C.cu
    return F.cuu - r * C.cuu, F.cgrad - r * C.cgrad


def poincare_saturation_limit(sf, w, rho):
    """Limit of deficit / (rho^2 ||grad u||^2) for pure degree-2
    directions under the volume constraint, as the amplitude tends to 0.

    Uses the exact quadratic form together with the degree-2 identity
    ||grad u||^2 = 2(n+1) ||u||^2.
    """
    cu2, cgrad2 = deficit_coefficients(sf, w, 1, nz.volume_constraint(),
                                       rho)
    return cgrad2 + cu2 / (2.0 * (sf.n + 1))


def h_volume_gradient_bound(sf, w, rho):
    """Lower-bound coefficient of deficit / (rho^2 ||grad u||^2) for the
    volume-constrained mean-curvature comparison on pure degree-2
    directions; coincides with poincare_saturation_limit for constant
    weights and is otherwise a lower bound."""
    n = sf.n
    ph, dp, s = sf.warp(rho)
    A = (n - 1) * ph ** (n - 3) * dp * float(w(s)) \
        + ph ** (n - 1) * float(w.deriv(s, 1))
    return (n + 2) / (2.0 * (n + 1)) * A


def sigma_weighted_volume_gradient_bound(sf, w, k, rho):
    """Proved lower-bound coefficient of deficit / (rho^2 ||grad u||^2)
    for the weighted-volume-constrained sigma_k comparison (hyperbolic
    space form)."""
    if sf.K != -1:
        raise ValueError("this bound is specific to K = -1")
    n = sf.n
    ph, dp, s = sf.warp(rho)
    G = float(w(s))
    G1 = float(w.deriv(s, 1))
    C = comb(n, k)
    return 0.5 * C * (((n - k) * (k + 1) / (2.0 * n) * ph ** (n - k - 2)
                       * dp ** k
                       + k * (k - 1) / (2.0 * n) * ph ** (n - k)
                       * dp ** (k - 2)) * G
                      + k / float(n) * ph ** (n - k) * dp ** (k - 1) * G1)


def quermass_gradient_bound(sf, w, k, j, rho):
    """Proved lower-bound coefficient of deficit / (rho^2 ||grad u||^2)
    for the W_j-constrained sigma_k comparison (K = -1 and K = 0)."""
    n = sf.n
    ph, dp, s = sf.warp(rho)
    G = float(w(s))
    C = comb(n, k)
    if sf.K == -1:
        return C * (n - k) * (k - j) / (4.0 * n) * ph ** (n - k - 2) \
            * dp ** k * G
    if sf.K == 0:
        G1 = float(w.deriv(s, 1))
        return 0.5 * C * ((n - k) * (k - j) / (2.0 * n)
                          * rho ** (n - k - 2) * G
                          + (2 * k - j - 1) / (2.0 * n) * rho ** (n - k)
                          * G1)
    raise ValueError("bound available for K = -1 and K = 0 only")


# ---------------------------------------------------------------------------
# equality functions

def equality_function(sf, w, k, constraint, value):
    """Value of int g(Phi) sigma_k dmu on the geodesic ball whose
    constraint functional equals value; the sharp comparison profile of
    the validity theorems."""
    rho = constraint.ball_radius(sf, value)
    return gg.sphere_curvature_integral(sf, rho, w, k)


# ---------------------------------------------------------------------------
# stability constants

def stability_constant(case, rho=None):
    """Closed-form constant C of the stability lower bound
    deficit >= (C - eta) alpha^2, at ball radius rho (defaults to the
    case's reference radius)."""
    fam = THEOREMS[case.theorem]
    if fam.kind != "stability":
        raise ValueError(f"{case.theorem} is a validity comparison; it has "
                         "no stability constant")
    sf, w, k, j = case.sf, case.w, case.k, int(case.j)
    n = sf.n
    omega = sf.sphere_area
    r = case.rho if rho is None else rho
    ph, dp, s = sf.warp(r)
    G = float(w(s))
    if case.theorem == "sigmak-quermass-hyperbolic":
        return comb(n, k) * n * (n - k) * (k - j) / (4.0 * omega) \
            * dp ** k * G / ph ** (n + k + 2)
    G1 = float(w.deriv(s, 1))
    return comb(n, k) * n * ((n - k) * (k - j) * G
                             + (2 * k - j - 1) * r ** 2 * G1) \
        / (4.0 * omega * r ** (n + k + 2))


# ---------------------------------------------------------------------------
# verify

@dataclass(frozen=True)
class DeficitReport:
    """One verified comparison; fields mirror the CSV schema plus the
    active norm budget and free-text notes."""

    theorem: str
    K: int
    n: int
    k: int
    j: object
    weight_kind: str
    rho: float
    epsilon: object
    direction_id: str
    lhs: float
    rhs: float
    deficit: float
    alpha: float
    C: object
    eta: object
    bound: object
    status: str
    err_quad: float
    norm_c1: float
    norm_w2inf: float
    grad_l2: float
    budget: float
    notes: str = ""


def verify(case, graph_raw, grid, *, direction_id="", epsilon=None):
    """Normalize graph_raw under the case's constraint and compare the
    weighted curvature integral against the theorem's right-hand side.

    graph_raw is a RadialGraph or its nz.RecenteredGraph on grid;
    verify_rows passes the latter, so that the cases verified on one
    sampled graph share its recentering, geometries and asymmetry.

    The deficit column is always LHS minus the matched-ball value; for
    stability cases the rhs column additionally carries the
    (C - eta) alpha^2 term, so pass means deficit >= bound in both
    conventions. Normalization failures raise; violated hypotheses
    (weight admissibility, norm budget) downgrade the status to
    hypothesis_unmet without suppressing the numbers.
    """
    fam = case.family
    sf, w, k = case.sf, case.w, case.k
    constraint = case.constraint()
    shared = nz.recentered(graph_raw, grid)
    normalized = nz.normalize(shared, grid, constraint)
    rho_star = normalized.rho
    norms = normalized.norms

    weight_notes, budget_notes = [], []
    name, budget = case.norm_budget
    norm_val = norms.c1 if name == "c1" else norms.w2inf
    if norm_val > budget:
        budget_notes.append(f"{name} norm {norm_val:.3e} exceeds budget "
                            f"{budget:g}")

    geo = normalized.geometry
    s_lo = float(np.min(geo.Phi))
    s_hi = float(np.max(geo.Phi))
    flags = check_weight(w, np.linspace(s_lo, s_hi, 65))
    for flag in case.required_flags():
        if not getattr(flags, flag):
            weight_notes.append(f"weight {w.label!r} fails {flag} on "
                                f"[{s_lo:.3e}, {s_hi:.3e}]")

    positive_part = fam.target == "H"
    lhs = gg.weighted_curvature_integral(geo, w, k,
                                         positive_part=positive_part)
    err_quad = abs(lhs - gg.weighted_curvature_integral(
        shared.coarse_geometry, w, k, positive_part=positive_part))

    # An early stop of the center search can only raise alpha above the
    # minimum over centers of the discrete alpha on this grid, and so
    # raise the bound. That holds for the discrete alpha only: its
    # quadrature error against the true asymmetry is two-sided,
    # percent-sized and not estimated (ROADMAP item 1), and can move the
    # bound either way.
    alpha, _center = shared.asymmetry

    if fam.kind == "validity":
        rhs = equality_function(sf, w, k, constraint,
                                normalized.constraint_value)
        deficit = lhs - rhs
        C = eta = bound = None
        gap = deficit
    else:
        C = stability_constant(case, rho_star)
        eta = case.eta_frac * C
        bound = (C - eta) * alpha ** 2
        sphere = gg.sphere_curvature_integral(sf, rho_star, w, k)
        rhs = sphere + bound
        deficit = lhs - sphere
        gap = deficit - bound

    # A weight that fails the theorem's admissibility conditions voids
    # the comparison outright; an exceeded norm budget only means a
    # violated inequality is no counterexample, so it downgrades a fail
    # but does not block a pass.
    tol = max(err_quad, REL_TOL_FLOOR * max(1.0, abs(lhs), abs(rhs)))
    if weight_notes:
        status = "hypothesis_unmet"
    elif gap >= -tol:
        status = "pass"
    elif budget_notes:
        status = "hypothesis_unmet"
    else:
        status = "fail"
    notes = weight_notes + budget_notes

    return DeficitReport(
        theorem=case.theorem, K=sf.K, n=sf.n, k=k, j=case.j,
        weight_kind=w.label, rho=rho_star, epsilon=epsilon,
        direction_id=direction_id, lhs=lhs, rhs=rhs, deficit=deficit,
        alpha=alpha, C=C, eta=eta, bound=bound, status=status,
        err_quad=err_quad, norm_c1=norms.c1, norm_w2inf=norms.w2inf,
        grad_l2=norms.grad_l2, budget=budget, notes="; ".join(notes))


# ---------------------------------------------------------------------------
# expansion oracle

@dataclass(frozen=True)
class ExpansionReport:
    """Fit of F(eps) = int g(Phi) sigma_k dmu on graphs rho (1 + eps u0)
    against the closed-form coefficient blocks."""

    target_id: str
    weight_kind: str
    K: int
    n: int
    rho: float
    constraint: str
    eps: tuple
    fitted: tuple
    closed: tuple
    rel_errors: tuple
    residual_slope: float
    condition_number: float

    @property
    def max_rel_error(self):
        """The largest relative error, NaN if any is NaN."""
        return float(np.max(self.rel_errors))


def expansion_amplitudes(eps_list):
    """Sorted amplitudes in [1e-4, 1e-1], at least 6 of them distinct."""
    eps = np.asarray(sorted(float(e) for e in eps_list))
    if not np.all((eps >= 1e-4 - 1e-12) & (eps <= 1e-1 + 1e-12)):
        raise ValueError("amplitudes must lie in [1e-4, 1e-1]")
    if len(set(eps)) < 6:
        raise ValueError("need at least 6 distinct amplitudes for the "
                         "expansion fit")
    return eps


def expansion_oracle(sf, w, k, constraint_tag, u0, eps_list, grid, *,
                     rho=1.0):
    """Fit the small-amplitude expansion of the weighted curvature
    integral along direction u0 and compare with the closed-form blocks.

    The fit is unconstrained (the expansion needs no normalization); the
    constraint tag is carried into the report for bookkeeping only. The
    integral is evaluated at +eps and -eps for every scheduled amplitude
    plus the exact anchor F(0); the differences F(eps) - F(0) are fitted
    with powers eps..eps^5 so that the reported (c0, c1, c2) carry no
    contamination from the cubic and higher terms, which are treated as
    the residual model. At k = 1 the blocks are those of the
    mean-curvature integral as well.
    """
    eps = expansion_amplitudes(eps_list)
    # one jet of u0 and one pass over its Hessian invariants serve every
    # amplitude: one node-blocked pass scales them to F(0) and F(+-eps)
    jet = gg.Jet.of(u0, grid)
    l2 = np.sqrt(max(grid.integrate(jet.vals ** 2), 0.0))
    if abs(l2 - 1.0) > 1e-6:
        raise ValueError(f"direction must have unit L2 norm, got {l2:.3e}")

    xs = np.concatenate([eps, -eps])
    F = np.array(gg.scaled_curvature_integrals(
        gg.RadialGraph(sf=sf, rho=rho, u=u0), grid, w, k, [0.0, *xs], jet))
    if not np.isfinite(F).all():
        raise ValueError("non-finite curvature integral in the fit")
    F0, ys = float(F[0]), F[1:] - F[0]
    design = np.column_stack([xs ** p for p in range(1, 6)])
    scale = np.linalg.norm(design, axis=0)
    cond = float(np.linalg.cond(design / scale))
    if cond > FIT_COND_LIMIT:
        raise ValueError(f"ill-conditioned expansion fit: condition number "
                         f"{cond:.3e}")
    coef, *_ = np.linalg.lstsq(design / scale, ys, rcond=None)
    coef = coef / scale
    c1, c2 = float(coef[0]), float(coef[1])
    fitted = (F0, c1, c2)

    closed = sigma_expansion_blocks(sf, w, k, rho).integrated(
        jet, grid, rho, sf.sphere_area)

    mag = max(1.0, *(abs(c) for c in closed))
    rel = tuple(abs(f - c) / max(abs(c), 1e-9 * mag)
                for f, c in zip(fitted, closed))

    # Residual order after removing the fitted linear and quadratic
    # terms. The odd and even parts of F are measured separately: each
    # decays as a clean single power (eps^3 resp. eps^4, with relative
    # eps^2 corrections), whereas their sum can change sign inside the
    # window and flatten a log-log fit. The reported slope is the
    # slowest resolvable decay; points on the quadrature-noise plateau
    # or in the lower half of the window are excluded.
    m = len(eps)
    odd = np.abs(0.5 * (ys[:m] - ys[m:]) - c1 * eps)
    even = np.abs(0.5 * (ys[:m] + ys[m:]) - c2 * eps ** 2)
    floor = 1e-12 * max(1.0, abs(F0))
    upper = eps >= np.sqrt(eps[0] * eps[-1])
    slopes = []
    for resid in (odd, even):
        keep = (resid > floor) & upper
        if np.count_nonzero(keep) >= 2:
            slopes.append(float(np.polyfit(np.log(eps[keep]),
                                           np.log(resid[keep]), 1)[0]))
    slope = min(slopes) if slopes else inf

    return ExpansionReport(
        target_id=f"sigma{k}", weight_kind=w.label, K=sf.K, n=sf.n, rho=rho,
        constraint=str(constraint_tag), eps=tuple(eps), fitted=fitted,
        closed=closed, rel_errors=rel, residual_slope=slope,
        condition_number=cond)


# ---------------------------------------------------------------------------
# samplers and sweeps

def philox_rng(seed, stream):
    """Counter-based generator keyed by (seed, stream); independent
    streams for a fixed seed, fully reproducible."""
    key = (int(seed) << 64) | int(stream)
    return np.random.Generator(np.random.Philox(key=key))


def sample_direction(basis, seed, stream, degrees=(2, 3, 4)):
    """Random unit-L^2 direction supported on the given degrees."""
    rng = philox_rng(seed, stream)
    coeffs = np.zeros(basis.size)
    for d in degrees:
        idx = basis.degree_block(d)
        if len(idx) == 0:
            raise ValueError(f"basis has no elements of degree {d}")
        coeffs[idx] = rng.standard_normal(len(idx))
    norm = np.linalg.norm(coeffs)
    if norm == 0:
        raise ValueError("empty degree set for direction sampling")
    return sb.from_coeffs(basis, coeffs / norm)


@dataclass(frozen=True)
class SweepResult:
    """All rows of one (direction, amplitude) product sweep."""

    case: TheoremCase
    reports: tuple
    failures: tuple
    empirical_constant: object


# Errors that mark a single row as a numerical failure in a sweep or a
# verify run; the other rows are still computed and reported.
NUMERICAL_ERRORS = (RuntimeError, ValueError, FloatingPointError,
                    ZeroDivisionError)


def verify_row(case, graph, grid, direction_id, epsilon):
    """verify's report of one row, or (direction_id, epsilon, message)
    when the row fails numerically."""
    try:
        return verify(case, graph, grid, direction_id=direction_id,
                      epsilon=epsilon)
    except NUMERICAL_ERRORS as exc:
        return direction_id, epsilon, str(exc)


def verify_rows(cases, graph, grid, direction_id, epsilon):
    """verify_row of each case on the sampled graph, in case order.

    The cases share one nz.RecenteredGraph, so the graph is recentered,
    its geometries built and its asymmetry searched once for all of them.
    A row fails only where its own verify raises: a shared step that
    raises runs once and fails each later case's row with its message.
    """
    shared = nz.RecenteredGraph(graph, grid)
    return [verify_row(case, shared, grid, direction_id, epsilon)
            for case in cases]


def empirical_constant(reports):
    """The minimum of deficit / alpha^2 over rows whose hypotheses are met
    and whose asymmetry is resolvable; None when no row qualifies."""
    ratios = [r.deficit / r.alpha ** 2 for r in reports
              if r.status != "hypothesis_unmet" and r.alpha ** 2 > 1e-30]
    return min(ratios) if ratios else None


def sweep(case, grid, basis, *, directions=30, eps_schedule=(0.003, 0.01),
          seed=2025, degrees=(2, 3, 4)):
    """verify_rows of the one case over a deterministic grid of sampled
    directions and amplitudes; row failures are recorded and the sweep
    continues."""
    rows = []
    for i in range(directions):
        u0 = sample_direction(basis, seed, i, degrees=degrees)
        for eps in eps_schedule:
            graph = gg.RadialGraph(sf=case.sf, rho=case.rho,
                                   u=u0.scaled(eps))
            rows += verify_rows([case], graph, grid, f"d{i:03d}", eps)
    reports = tuple(r for r in rows if isinstance(r, DeficitReport))
    return SweepResult(case=case, reports=reports,
                       failures=tuple(r for r in rows
                                      if not isinstance(r, DeficitReport)),
                       empirical_constant=empirical_constant(reports))


# ---------------------------------------------------------------------------
# report serialization

CSV_COLUMNS = ("theorem", "K", "n", "k", "j", "weight_kind", "rho",
               "epsilon", "direction_id", "lhs", "rhs", "deficit", "alpha",
               "C", "eta", "bound", "pass", "err_quad", "norm_c1",
               "norm_w2inf")


def report_cells(rep):
    """Report fields in fixed column order, pass taken from status; None
    marks empty cells."""
    return {c: getattr(rep, "status" if c == "pass" else c)
            for c in CSV_COLUMNS}


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _json_cell(value):
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def table_text(rows, fmt, columns=None, meta=None):
    """CSV or JSON text of rows, a list of dicts or one dict (a record).

    A cell's type picks its format: None is an empty cell (JSON null),
    text is given as is, booleans are true/false, integers (numpy's too)
    decimal, and any other number %.17g in CSV or a float in JSON. CSV
    has a header, columns or else the first row's keys, and one line per
    row. JSON is the list of rows, the record's object, or with meta the
    object {**meta, "rows": rows}.
    """
    record = isinstance(rows, dict)
    rows = [rows] if record else rows
    if fmt == "csv":
        header = list(columns or rows[0])
        lines = [",".join(header)]
        lines += [",".join(_csv_cell(row[c]) for c in header) for row in rows]
        return "\n".join(lines) + "\n"
    rows = [{c: _json_cell(row[c]) for c in columns or row} for row in rows]
    doc = rows[0] if record else rows
    if meta is not None:
        doc = {**meta, "rows": doc}
    return json.dumps(doc, indent=2) + "\n"


def report_text(reports, fmt):
    """Reports as CSV_COLUMNS rows, in CSV or in JSON wrapped with the
    norm budgets that applied."""
    return table_text([report_cells(r) for r in reports], fmt, CSV_COLUMNS,
                      meta={"budget_c1": C1_BUDGET,
                            "budget_w2inf": W2INF_BUDGET})


def csv_text(reports):
    """report_text in CSV."""
    return report_text(reports, "csv")
