"""Acceptance gate: one test per release criterion, each with pinned
tolerances and a wall-clock budget.  Every test prints a single
PASS/FAIL line so the gate can be read off the terminal directly."""

import contextlib
import time
from math import comb

import numpy as np
import pytest

import oracles
from sfi import cli
from sfi import domains as dm
from sfi import graphgeom as gg
from sfi import lab
from sfi import spherebasis as sb
from sfi.spaceform import SpaceForm, WeightFunction, default_weight_set

RHO = {-1: 0.9, 0: 1.0, 1: 0.8}


@pytest.fixture(scope="module")
def basis8():
    return sb.build_basis(3, 8)


@pytest.fixture(scope="module")
def grid24():
    return sb.build_grid(3, sb.default_resolution(8))


@pytest.fixture(scope="module")
def grid44():
    return sb.build_grid(3, 44)


@pytest.fixture
def announce(capsys):
    """Context manager printing one PASS/FAIL line per criterion and
    enforcing the wall-clock budget; offset accounts for shared fixture
    work that already ran on behalf of the criterion."""

    @contextlib.contextmanager
    def run(label, seconds, offset=0.0):
        t0 = time.perf_counter()
        try:
            yield
        except BaseException:
            dt = offset + time.perf_counter() - t0
            with capsys.disabled():
                print(f"\nacceptance {label}: FAIL ({dt:.1f}s)")
            raise
        dt = offset + time.perf_counter() - t0
        ok = dt < seconds
        with capsys.disabled():
            print(f"\nacceptance {label}: {'PASS' if ok else 'FAIL'}"
                  f" ({dt:.1f}s, budget {seconds:.0f}s)")
        assert ok, f"{label}: runtime {dt:.1f}s exceeds {seconds:.0f}s"

    return run


def test_criterion_1_ball_integral_closed_forms(announce):
    # quadrature on exact geodesic spheres against the closed form
    # C(n,k) omega_n phi^(n-k) phi'^k in all three space forms
    with announce("1 ball closed forms", 5.0):
        for K in (-1, 0, 1):
            for n in (2, 3):
                sf = SpaceForm(K=K, n=n)
                grid = sb.build_grid(n, 8)
                u0 = sb.zero_function(sb.build_basis(n, 2))
                for rho in (0.5, 1.0):
                    graph = gg.RadialGraph(sf=sf, rho=rho, u=u0)
                    geo = gg.surface_geometry(graph, grid)
                    ph, dph = sf.phi(rho), sf.dphi(rho)
                    for k in range(n + 1):
                        quad = grid.integrate(
                            geo.sigma[:, k] * geo.area_factor)
                        want = (comb(n, k) * sf.sphere_area
                                * ph ** (n - k) * dph ** k)
                        assert quad == pytest.approx(want, rel=1e-10), \
                            (K, n, rho, k)
                        route = gg.sphere_curvature_integral(
                            sf, rho, WeightFunction.constant(1.0), k)
                        assert route == pytest.approx(want, rel=1e-12)


def test_criterion_2_laplacian_eigenfunctions_pointwise(announce, basis8):
    # trace of the covariant frame Hessian must reproduce the spectrum
    # -d(d+n-1) on every basis element, node by node
    with announce("2 Laplacian spectrum", 10.0):
        grid = sb.build_grid(3, 12)
        for i in range(basis8.size):
            c = np.zeros(basis8.size)
            c[i] = 1.0
            u = sb.SphericalFunction(basis8, c)
            vals, _, hess = sb.eval_jet_all(u, grid)
            lap = np.trace(hess, axis1=1, axis2=2)
            want = -oracles.eigenvalues(basis8)[i] * vals
            scale = max(1.0, float(np.max(np.abs(want))))
            err = float(np.max(np.abs(lap - want)))
            assert err < 1e-9 * scale, (int(basis8.degrees[i]), err)


def test_criterion_3_poincare_inequality_and_saturation(announce, basis8):
    # grad-L2 dominates 2(n+1) L2 once degrees 0 and 1 are projected
    # out; pure degree-2 saturates the constant
    with announce("3 Poincare inequality", 10.0):
        grid = sb.build_grid(3, 18)
        rng = np.random.default_rng(2026)
        low = basis8.degrees < 2
        for _ in range(100):
            c = rng.standard_normal(basis8.size)
            c[low] = 0.0
            u = sb.SphericalFunction(basis8, c)
            nm = sb.sobolev_norms(grid, sb.eval_jet_all(u, grid))
            gap = nm.grad_l2 ** 2 - 8.0 * nm.l2 ** 2
            assert gap >= -1e-10 * nm.grad_l2 ** 2
        block = basis8.degree_block(2)
        for _ in range(5):
            c = np.zeros(basis8.size)
            c[block] = rng.standard_normal(len(block))
            u = sb.SphericalFunction(basis8, c)
            nm = sb.sobolev_norms(grid, sb.eval_jet_all(u, grid))
            assert nm.grad_l2 ** 2 == pytest.approx(8.0 * nm.l2 ** 2,
                                                    rel=1e-9)


def test_criterion_4_expansion_coefficient_fits(announce, basis8, grid24):
    # fitted second-order coefficients against the closed-form blocks,
    # then the mean-curvature blocks against the k = 1 blocks
    with announce("4 expansion coefficients", 300.0):
        eps = np.geomspace(2e-3, 2e-2, 6)
        aff = WeightFunction.affine()
        for K in (-1, 0, 1):
            sf = SpaceForm(K=K, n=3)
            for k in range(4):
                for stream in range(10):
                    u0 = lab.sample_direction(basis8, 42, stream,
                                              degrees=(0, 1, 2, 3, 4))
                    rep = lab.expansion_oracle(sf, aff, k, "volume", u0,
                                               eps, grid24, rho=RHO[K])
                    assert rep.max_rel_error < 1e-4, \
                        (K, k, stream, rep.rel_errors)
        for K in (-1, 0, 1):
            sf = SpaceForm(K=K, n=3)
            for w in default_weight_set():
                a = oracles.H_expansion_blocks(sf, w, RHO[K])
                b = lab.sigma_expansion_blocks(sf, w, 1, RHO[K])
                for f in ("c0", "cu", "cuu", "cgrad"):
                    assert getattr(a, f) == pytest.approx(
                        getattr(b, f), rel=1e-8, abs=1e-12), (K, w.label, f)


# (identity, degree m, exact on the 3-sphere); identities that close
# exactly sit at the quadrature floor, which is stronger than the
# cubic-order remainder bound
IDENTITY_CASES = [(1, 1, True), (1, 2, False), (2, 2, True), (2, 3, True),
                  (4, 1, True), (4, 2, False), (4, 3, False), (5, 1, False),
                  (5, 2, False), (5, 3, False)]


def test_criterion_5_hessian_integral_identities(announce, basis8, grid44):
    with announce("5 Hessian identities", 60.0):
        eps = np.geomspace(3e-3, 3e-2, 7)
        u0 = lab.sample_direction(basis8, 5, 1, degrees=(2, 3, 4))
        for which, m, exact in IDENTITY_CASES:
            res, ref = [], 1.0
            for e in eps:
                lhs, rhs = oracles.hessian_identity(which, u0.scaled(e),
                                                    grid44, m)
                res.append(abs(lhs - rhs))
                ref = max(ref, abs(lhs), abs(rhs))
            res = np.array(res)
            keep = res > 1e-12 * ref
            if exact:
                assert not np.any(keep), (which, m, res)
            else:
                assert np.count_nonzero(keep) >= 3
                slope = np.polyfit(np.log(eps[keep]), np.log(res[keep]),
                                   1)[0]
                assert slope >= 2.9, (which, m, slope)
        for stream in range(3):
            u = lab.sample_direction(basis8, 12, stream, degrees=(2, 3, 4))
            lhs, rhs = oracles.hessian_identity(3, u.scaled(0.05), grid44)
            assert rhs == 0.0
            assert abs(lhs) < 1e-10


def test_criterion_6_validity_deficits_nonnegative(announce, basis8, grid24):
    # comparison theorems without a stability constant: the deficit of
    # every normalized perturbed sphere is nonnegative, and strictly
    # positive whenever the profile has gradient energy
    with announce("6 validity deficits", 600.0):
        aff = WeightFunction.affine()
        cases = [lab.TheoremCase("H-volume", SpaceForm(K=K, n=3), aff,
                                 rho=RHO[K]) for K in (-1, 0, 1)]
        cases.append(lab.TheoremCase("H-weighted-volume",
                                     SpaceForm(K=-1, n=3), aff, rho=0.9))
        cases.extend(lab.TheoremCase("sigmak-weighted-volume",
                                     SpaceForm(K=-1, n=3), aff, k=k,
                                     rho=0.9) for k in range(4))
        for case in cases:
            sw = lab.sweep(case, grid24, basis8, directions=10,
                           eps_schedule=(0.002, 0.004, 0.006), seed=2025)
            assert sw.failures == ()
            assert len(sw.reports) == 30
            for rep in sw.reports:
                assert rep.status == "pass", (case.theorem, rep.notes)
                assert rep.deficit >= -1e-9
                assert max(rep.norm_c1, rep.norm_w2inf) <= 0.05
                assert rep.grad_l2 > 1e-6
                assert rep.deficit > 0.0, (case.theorem, rep.direction_id)


@pytest.fixture(scope="module")
def stability_sweeps(basis8, grid24):
    """Full product sweep behind criteria 7 and 8: every admissible
    (k, j) pair in both stability families, all four weights."""
    specs = []
    sfh = SpaceForm(K=-1, n=3)
    sfe = SpaceForm(K=0, n=3)
    for k in range(3):
        for j in range(-1, k):
            specs.append((sfh, "sigmak-quermass-hyperbolic", k, j, 0.9))
    for k in range(4):
        for j in range(-1, k):
            specs.append((sfe, "sigmak-quermass-euclidean", k, j, 1.0))
    t0 = time.perf_counter()
    results = []
    for sf, tid, k, j, rho in specs:
        for w in default_weight_set():
            case = lab.TheoremCase(tid, sf, w, k=k, j=j, rho=rho)
            sw = lab.sweep(case, grid24, basis8, directions=15,
                           eps_schedule=(0.003, 0.01), seed=2025)
            results.append((case, sw))
    return results, time.perf_counter() - t0


def test_criterion_7_stability_deficit_lower_bounds(announce,
                                                    stability_sweeps):
    # every admissible row clears (C - eta) alpha^2 with eta = C/4, and
    # each sweep's empirical constant keeps at least half of C; slack is
    # calibrated from the per-row quadrature error estimates
    results, elapsed = stability_sweeps
    with announce("7 stability sweeps", 1200.0, offset=elapsed):
        assert len(results) == 64
        unmet = 0
        for case, sw in results:
            assert sw.failures == ()
            assert len(sw.reports) == 30
            if (case.theorem == "sigmak-quermass-hyperbolic"
                    and case.w.kind == "constant"):
                # constant weights miss the strict monotonicity the
                # hyperbolic stability statement requires
                assert {r.status for r in sw.reports} == {"hypothesis_unmet"}
                assert sw.empirical_constant is None
                unmet += 1
                continue
            C = lab.stability_constant(case)
            slack = 0.0
            for rep in sw.reports:
                assert rep.status == "pass", (case.theorem, case.w.label,
                                              rep.notes)
                tol = max(rep.err_quad, 1e-11 * max(1.0, abs(rep.lhs)))
                assert rep.eta == pytest.approx(0.25 * rep.C, rel=1e-12)
                assert rep.bound == pytest.approx(
                    0.75 * rep.C * rep.alpha ** 2, rel=1e-9, abs=1e-300)
                assert rep.deficit >= rep.bound - tol
                slack = max(slack, (rep.err_quad + 1e-11
                                    * max(1.0, abs(rep.lhs)))
                            / rep.alpha ** 2)
            assert sw.empirical_constant is not None
            assert sw.empirical_constant >= 0.5 * C - slack, \
                (case.theorem, case.k, case.j, case.w.label)
        assert unmet == 6


def test_criterion_8_asymmetry_gradient_energy_bound(announce,
                                                     stability_sweeps):
    # alpha^2 <= omega_n phi^(2n)(rho) rho^2 |grad u|_2^2 / n^2 with a
    # 10 percent allowance, on every row of the stability sweeps
    results, _ = stability_sweeps
    with announce("8 asymmetry bound", 60.0):
        rows = 0
        for case, sw in results:
            for rep in sw.reports:
                cap = oracles.asymmetry_upper_bound(case.sf, rep.rho,
                                                    rep.grad_l2 ** 2)
                assert rep.alpha ** 2 <= 1.1 * cap + 1e-18, \
                    (case.theorem, case.k, case.j, rep.direction_id)
                rows += 1
        assert rows == 64 * 30


DETERMINISM_CONFIG = """\
[space]
K = -1
n = 3
rho = 0.9

[grid]
basis_degree = 5

[weight]
kind = affine

[perturbation]
mode = random
degrees = 2, 3
directions = 4
seed = 31
epsilon = 0.004

[case]
theorem = sigmak-quermass-hyperbolic
k = 1
j = 0

[output]
format = csv
"""


def test_criterion_9_determinism_and_grid_refinement(announce, basis8,
                                                     grid24, tmp_path):
    with announce("9 determinism", 120.0):
        cfg = tmp_path / "det.ini"
        cfg.write_text(DETERMINISM_CONFIG)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = cli.main(["verify", "--config", str(cfg), "--out",
                           str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

        u0 = lab.sample_direction(basis8, 3, 0, degrees=(2, 3, 4))
        graph = gg.RadialGraph(sf=SpaceForm(K=-1, n=3), rho=0.9,
                               u=u0.scaled(0.006))
        aff = WeightFunction.affine()
        grids = {"coarse": grid24, "fine": sb.build_grid(3, 48)}
        vals = {}
        for tag, grid in grids.items():
            geo = gg.surface_geometry(graph, grid)
            row = [gg.weighted_curvature_integral(geo, aff, k)
                   for k in range(4)]
            row.append(dm.volume(geo))
            row.append(dm.weighted_volume(geo))
            W = dm.quermassintegrals(geo)
            row.extend(W[j] for j in range(-1, 4))
            vals[tag] = np.array(row)
        diff = np.abs(vals["coarse"] - vals["fine"])
        cap = 1e-8 * np.maximum(1.0, np.abs(vals["fine"]))
        assert np.all(diff < cap), diff
