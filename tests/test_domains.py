"""Tests for bulk domain functionals."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq, minimize

import oracles
from sfi import domains as dm
from sfi import graphgeom as gg
from sfi import lab
from sfi import model
from sfi import normalize as nz
from sfi import spherebasis as sb
from sfi.spaceform import SpaceForm, unit_sphere_area

ALL_K = [-1, 0, 1]
TRANSLATION = np.array([0.05, -0.02, 0.04, 0.01])


@pytest.fixture(scope="module")
def grid3():
    return sb.build_grid(3, 20)


@pytest.fixture(scope="module")
def basis3():
    return sb.build_basis(3, 5)


def ball_graph(K, rho, basis, n=3):
    return gg.RadialGraph(sf=SpaceForm(K=K, n=n), rho=rho,
                          u=sb.zero_function(basis))


def perturbed(K, basis, eps, seed=0, rho=1.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(basis.size)
    a /= np.linalg.norm(a)
    return gg.RadialGraph(sf=SpaceForm(K=K, n=3), rho=rho,
                          u=sb.from_coeffs(basis, eps * a))


def materialized_barycenter(graph, grid, radial_points=16, tol=1e-10):
    """Newton-scaled Karcher iteration summing oracles.log_map over the
    embedded points from the origin: the barycenter's reference
    computation. The step is G / h, with h = sum m (1 + n d cot_K d)/(n+1)
    from per-point oracles.distance, bounded below by sum m / (n+1)."""
    sf = graph.sf
    pts, mass = oracles.embedded_mass_points(graph, grid, radial_points)
    total = np.sum(mass)
    p = model.origin(sf)
    for _ in range(100):
        G = mass @ oracles.log_map(sf, p, pts)
        if 2.0 * np.linalg.norm(G) < tol * max(1.0, total):
            return p
        h = mass @ hessian_trace_density(sf, oracles.distance(sf, pts, p))
        p = oracles.exp_map(sf, p, G / max(h, total / (sf.n + 1)))
        if sf.K == 1:
            p = p / np.linalg.norm(p)
        elif sf.K == -1:
            p = p / np.sqrt(p[0] ** 2 - np.sum(p[1:] ** 2))
    raise AssertionError("reference barycenter did not converge")


def hessian_trace_density(sf, d):
    """tr Hess(d^2/2) / (n+1) = (1 + n d coth d) / (n+1) at K = -1,
    (1 + n d cot d) / (n+1) at K = +1 and 1 at K = 0."""
    if sf.K == 0:
        return np.ones_like(d)
    t = np.tanh(d) if sf.K == -1 else np.tan(d)
    safe = np.where(d > 0, t, 1.0)
    dcot = np.where(d > 0, d / safe, 1.0)
    return (1.0 + sf.n * dcot) / (sf.n + 1)


def symmetric_difference_oracle(graph, grid, c, rho_bar):
    """Symmetric-difference volume from the ball's radial profile
    (oracles.ball_radial_profile) and SpaceForm.volume_primitive."""
    sf = graph.sf
    if np.linalg.norm(c) >= 0.995 * rho_bar:
        return np.inf
    Rb = oracles.ball_radial_profile(sf, c, rho_bar, grid.nodes)
    if not np.all(np.isfinite(Rb)):
        return np.inf
    P = sf.volume_primitive(graph.radii(sb.values_on_grid(graph.u, grid)))
    return grid.integrate(np.abs(P - sf.volume_primitive(Rb)))


def nelder_mead_asymmetry(geo):
    """Asymmetry by Nelder-Mead over model vectors from the origin, with
    xatol 1e-8 and fatol 1e-11 (the search lab.verify ran before the
    Newton search): the reference for fraenkel_asymmetry."""
    sf = geo.graph.sf
    rho_bar = dm.radius_for_volume(sf, dm.volume(geo))
    res = minimize(
        lambda c: dm.symmetric_difference_to_ball(geo, c, rho_bar),
        np.zeros(sf.n + 1), method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-11, "maxiter": 4000,
                 "maxfev": 6000})
    assert res.success
    return res.fun, rho_bar


def barycenter_seed(geo):
    """The barycenter as a model vector, a seed for fraenkel_asymmetry."""
    return model.model_vector(geo.graph.sf, dm.barycenter(geo))


def ball_primitive_of_q(sf, q, rho_bar, x):
    """P_n of the ball profile as a function of the search parameter q."""
    a = math.sqrt(1.0 - sf.K * (q @ q))
    _b, ph, dph = dm._ball_warp(sf, q, a, rho_bar, x)
    return dm._warp_primitive(sf, ph, dph)


class TestVolume:
    def test_flat_ball(self, grid3, basis3):
        g = ball_graph(0, 1.4, basis3)
        got = dm.volume(gg.surface_geometry(g, grid3))
        assert got == pytest.approx(unit_sphere_area(3) * 1.4**4 / 4,
                                    rel=1e-12)

    def test_hyperbolic_disc(self, basis3):
        grid = sb.build_grid(2, 12)
        basis = sb.build_basis(2, 3)
        g = gg.RadialGraph(sf=SpaceForm(K=-1, n=2), rho=1.0,
                           u=sb.zero_function(basis))
        want = math.pi * (math.sinh(2.0) - 2.0)
        assert dm.volume(gg.surface_geometry(g, grid)) == pytest.approx(
            want, rel=1e-12)

    def test_first_variation_orthogonal_mode(self, grid3, basis3):
        sf = SpaceForm(K=-1, n=3)
        a = np.zeros(basis3.size)
        a[basis3.degree_block(2)[2]] = 1.0
        h = 1e-5
        vols = []
        for eps in (-h, h):
            g = gg.RadialGraph(sf=sf, rho=1.0,
                               u=sb.from_coeffs(basis3, eps * a))
            vols.append(dm.volume(gg.surface_geometry(g, grid3)))
        assert abs(vols[1] - vols[0]) / (2 * h) < 1e-9

    @pytest.mark.parametrize("K", ALL_K)
    def test_bruteforce_oracle(self, K, grid3, basis3):
        g = perturbed(K, basis3, 0.04, seed=K + 7)
        a = dm.volume(gg.surface_geometry(g, grid3))
        b = oracles.volume_bruteforce(g, grid3)
        assert a == pytest.approx(b, rel=1e-9)


class TestWeightedVolume:
    def test_ball_closed_form(self, grid3, basis3):
        sf = SpaceForm(K=-1, n=3)
        g = ball_graph(-1, 1.2, basis3)
        want = sf.sphere_area * sf.phi(1.2) ** 4 / 4
        assert dm.weighted_volume(gg.surface_geometry(g, grid3)) \
            == pytest.approx(want, rel=1e-12)

    def test_flat_equals_volume(self, grid3, basis3):
        g = perturbed(0, basis3, 0.05, seed=1)
        geo = gg.surface_geometry(g, grid3)
        assert dm.weighted_volume(geo) == pytest.approx(dm.volume(geo),
                                                        rel=1e-12)

    def test_bruteforce_oracle(self, grid3, basis3):
        a = np.zeros(basis3.size)
        a[basis3.degree_block(3)[0]] = 0.05
        g = gg.RadialGraph(sf=SpaceForm(K=-1, n=3), rho=1.0,
                           u=sb.from_coeffs(basis3, a))
        assert dm.weighted_volume(gg.surface_geometry(g, grid3)) \
            == pytest.approx(oracles.weighted_volume_bruteforce(g, grid3),
                             rel=1e-9)


class TestQuermass:
    def test_flat_unit_ball(self, grid3, basis3):
        g = ball_graph(0, 1.0, basis3)
        W = dm.quermassintegrals(gg.surface_geometry(g, grid3))
        omega = unit_sphere_area(3)
        for k in range(4):
            assert W[k] == pytest.approx(math.comb(3, k) * omega, rel=1e-10)
        assert W[-1] == pytest.approx(omega / 4, rel=1e-10)

    @pytest.mark.parametrize("K", ALL_K)
    def test_ball_closed_forms(self, K, grid3, basis3):
        g = ball_graph(K, 0.9, basis3)
        W = dm.quermassintegrals(gg.surface_geometry(g, grid3))
        Wb = dm.ball_quermassintegrals(g.sf, 0.9)
        for k in W:
            assert W[k] == pytest.approx(Wb[k], rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("K", ALL_K)
    def test_area_derivative_oracle(self, K):
        # d/drho W_0(ball) equals the sigma_1 surface integral, i.e.
        # W_1 - K n Vol, for every space form
        sf = SpaceForm(K=K, n=3)
        rho, h = 1.1, 1e-6
        area = lambda r: dm.ball_quermassintegrals(sf, r)[0]
        fd = (area(rho + h) - area(rho - h)) / (2 * h)
        W = dm.ball_quermassintegrals(sf, rho)
        sig1 = W[1] - sf.K * 3 * W[-1]
        assert fd == pytest.approx(sig1, rel=1e-8)

    def test_spherical_cap_invariant(self):
        # for K=+1, n=2 the top quermassintegral of a geodesic ball is
        # independent of the radius
        sf = SpaceForm(K=1, n=2)
        vals = [dm.ball_quermassintegrals(sf, rho)[2]
                for rho in (0.3, math.pi / 4, 1.2)]
        assert np.allclose(vals, 4 * math.pi, rtol=1e-12)
        grid = sb.build_grid(2, 12)
        basis = sb.build_basis(2, 3)
        g = gg.RadialGraph(sf=sf, rho=math.pi / 4,
                           u=sb.zero_function(basis))
        W = dm.quermassintegrals(gg.surface_geometry(g, grid))
        assert W[2] == pytest.approx(4 * math.pi, rel=1e-10)


class TestRadiusSolvers:
    @pytest.mark.parametrize("K", ALL_K)
    def test_volume_roundtrip(self, K):
        sf = SpaceForm(K=K, n=3)
        for rho in (0.4, 1.0, 1.7):
            V = dm.ball_volume(sf, rho)
            assert dm.radius_for_volume(sf, V) == pytest.approx(rho,
                                                                abs=1e-10)

    def test_weighted_roundtrip(self):
        sf = SpaceForm(K=-1, n=3)
        Wv = dm.ball_weighted_volume(sf, 1.3)
        con = nz.weighted_volume_constraint()
        assert con.ball_radius(sf, Wv) == pytest.approx(1.3, abs=1e-10)

    def test_unattainable_target(self):
        sf = SpaceForm(K=1, n=3)
        total = dm.ball_volume(sf, math.pi - 1e-9)
        with pytest.raises(ValueError, match="above the attainable"):
            dm.radius_for_volume(sf, 2 * total)
        with pytest.raises(ValueError, match="below the attainable"):
            dm.radius_for_volume(sf, -1.0)

    def test_brent_matches_scipy_brentq(self, monkeypatch):
        # every constraint's ball radius over 40 radii and three starts,
        # against scipy's brentq on the same bracket, bit for bit
        solve, seen = dm._brent, []

        def both(f, lo, hi, flo, fhi):
            got = solve(f, lo, hi, flo, fhi)
            seen.append((got, brentq(f, lo, hi, xtol=dm.RADIUS_XTOL,
                                     rtol=dm.RADIUS_RTOL)))
            return got

        monkeypatch.setattr(dm, "_brent", both)
        for K in ALL_K:
            for n in (2, 3, 4):
                sf = SpaceForm(K=K, n=n)
                constraints = [nz.volume_constraint(),
                               nz.weighted_volume_constraint()]
                constraints += [nz.quermass_constraint(j) for j in range(n)]
                for con in constraints:
                    top = min(con.ball_radius_cap(sf), 3.0)
                    for rho in np.linspace(0.02, 0.999 * top, 40):
                        value = con.of_ball(sf, rho)
                        for start in (0.05, 1.0, 3.0):
                            got = con.ball_radius(sf, value, start=start)
                            assert type(got) is float
                            assert got == seen[-1][0]
        assert len(seen) == 5400
        assert all(got == want for got, want in seen)

    def test_brent_failures(self, monkeypatch):
        def f(x):
            return x - 0.3

        # scipy also gives up after the step that lands on the root
        with pytest.raises(RuntimeError):
            brentq(f, 0.0, 1.0, maxiter=1)
        monkeypatch.setattr(dm, "RADIUS_MAX_ITER", 1)
        with pytest.raises(RuntimeError):
            dm._brent(f, 0.0, 1.0, -0.3, 0.7)
        monkeypatch.undo()
        assert dm._brent(f, 0.0, 1.0, -0.3, 0.7) == brentq(
            f, 0.0, 1.0, xtol=dm.RADIUS_XTOL, rtol=dm.RADIUS_RTOL)
        with pytest.raises(ValueError, match="NaN"):
            dm._brent(lambda x: math.nan, 0.0, 1.0, -0.3, 0.7)
        with pytest.raises(ValueError, match="NaN"):
            dm._brent(f, 0.0, 1.0, math.nan, 0.7)


class TestBarycenter:
    @pytest.mark.parametrize("K", ALL_K)
    def test_ball_center(self, K, grid3, basis3):
        g = ball_graph(K, 1.1, basis3)
        b = dm.barycenter(gg.surface_geometry(g, grid3))
        assert np.linalg.norm(model.model_vector(g.sf, b)) < 1e-10

    @pytest.mark.parametrize("K, rho, sampled", [
        *(pytest.param(K, rho, False, id=f"{K}-{rho}") for K, rho in
          [(-1, 1.0), (1, 1.0), (1, math.pi / 2 - 0.02), (1, 2.5)]),
        pytest.param(1, 0.8, True, id="1-0.8-sampled")])
    def test_agrees_with_the_materialized_iteration(self, K, rho, sampled):
        # against the materialized iteration run to tol = 1e-14, which
        # stops far closer to its limit than the barycenter's own
        # criterion; K = +1 also reaches past pi/2 from the barycenter,
        # where H at O stays positive definite, so every pass is a
        # Newton step. The sampled direction (degrees 1-4, seed 2025,
        # eps = 0.01) meets the criterion after one step with a step of
        # 4.4e-11 still to take: returning before it lands 3.9e-11 away.
        if sampled:
            grid = sb.build_grid(3, 24)
            u = lab.sample_direction(sb.build_basis(3, 8), 2025, 0,
                                     degrees=(1, 2, 3, 4))
            g = gg.RadialGraph(sf=SpaceForm(K=K, n=3), rho=rho,
                               u=u.scaled(0.01))
        else:
            grid = sb.build_grid(3, 30)
            g = perturbed(K, sb.build_basis(3, 5), 0.05, seed=4, rho=rho)
        R = g.radii(sb.values_on_grid(g.u, grid))
        assert (np.max(R) > math.pi / 2) == (rho > 1.0)
        _total, _G, _h, H = dm._origin_derivatives(g.sf, grid, R)
        assert np.linalg.eigvalsh(H)[0] > 0
        want = materialized_barycenter(g, grid, tol=1e-14)
        got = dm.barycenter(gg.surface_geometry(g, grid))
        assert np.linalg.norm(model.model_vector(g.sf, got)) > 1e-3
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert oracles.barycenter_gradient_criterion(g, grid, got) < 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("K", ALL_K)
    def test_first_radial_moment(self, K, n):
        # M = R P_n - Q_n against a 40-point Gauss-Legendre rule, from
        # R = 0.02 to 3.1 (K = +1, r_max = pi) or 6. The oracle rounds to
        # a few 1e-15; the closed form loses what the reduction cancels
        # for small R, eps / R^2 for n = 2 and eps / R^4 for n = 3, 4
        # (8.9e-10 relative at R = 0.02, n = 3, K = +1)
        sf = SpaceForm(K=K, n=n)
        R = np.geomspace(0.02, 3.1 if K == 1 else 6.0, 25)
        _P, M, _H = dm._origin_moments(sf, R)
        want = oracles.first_radial_moment_bruteforce(sf, R)
        power = 2 * ((n + 1) // 2)
        tol = 1e-13 + 8 * np.finfo(float).eps / np.minimum(R, 1.0) ** power
        assert np.all(np.abs(M / want - 1.0) < tol)

    @pytest.mark.parametrize("K", ALL_K)
    def test_closed_form_origin_pass(self, K, grid3, basis3):
        # the gradient and Hessian trace at O, from radial moments,
        # against per-point log maps and distances of the embedded points
        g = perturbed(K, basis3, 0.05, seed=K + 5)
        R = g.radii(sb.values_on_grid(g.u, grid3))
        P, M, H = dm._origin_moments(g.sf, R)
        O = model.origin(g.sf)
        pts, mass = oracles.embedded_mass_points(g, grid3, 16)
        G_quad = mass @ oracles.log_map(g.sf, O, pts)
        h_quad = mass @ hessian_trace_density(g.sf,
                                              oracles.distance(g.sf, pts, O))
        G = (grid3.weights * M) @ grid3.nodes
        assert np.allclose(G, G_quad[-4:], rtol=0, atol=1e-14)
        assert grid3.integrate(H) == pytest.approx(h_quad, rel=1e-14)
        assert grid3.integrate(P) == pytest.approx(
            dm.volume(gg.surface_geometry(g, grid3)), rel=1e-15)

    @pytest.mark.parametrize("K", ALL_K)
    def test_returned_point_meets_the_tolerance(self, K, grid3, basis3):
        # the materialized gradient at the returned point meets the
        # BARYCENTER_TOL criterion, with no help from the closed forms
        for seed, eps in ((1, 0.003), (2, 0.05)):
            g = perturbed(K, basis3, eps, seed=seed)
            assert oracles.barycenter_gradient_criterion(
                g, grid3, dm.barycenter(gg.surface_geometry(g, grid3))) < 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("K", ALL_K)
    def test_origin_derivatives_match_central_differences(self, K, n):
        # G and the full Hessian H of the Karcher energy at O against the
        # embedded points: G against their mass-weighted log maps at
        # exp_O(+-h e_j) averaged, column j of H against its central
        # difference. A parallel frame along the geodesic keeps e_k
        # (k != j) and turns e_j within the e_0, e_j plane, so the spatial
        # components differentiate to H e_j up to O(h^2). Directions carry
        # degree-1 content; K = +1 also reaches past pi/2 (rho = 2.0,
        # 2.8), where the tangential eigenvalue t cot t is negative
        grid = sb.build_grid(n, 12)
        basis = sb.build_basis(n, 4)
        sf = SpaceForm(K=K, n=n)
        rng = np.random.default_rng(10 * n + K)
        h = 1e-5
        for rho in ((1.0, 2.0, 2.8) if K == 1 else (1.0,)):
            for eps in (0.003, 0.05):
                a = rng.standard_normal(basis.size)
                g = gg.RadialGraph(sf=sf, rho=rho, u=sb.from_coeffs(
                    basis, eps * a / np.linalg.norm(a)))
                R = g.radii(sb.values_on_grid(g.u, grid))
                total, G, h_tr, H = dm._origin_derivatives(sf, grid, R)
                pts, mass = oracles.embedded_mass_points(g, grid, 16)
                O = model.origin(sf)
                spatial = 0 if K == 0 else 1
                for j in range(n + 1):
                    e = np.zeros(len(O))
                    e[spatial + j] = h
                    Gp, Gm = ((mass @ oracles.log_map(
                        sf, oracles.exp_map(sf, O, s * e), pts))[spatial:]
                        for s in (1.0, -1.0))
                    assert np.allclose(0.5 * (Gp + Gm), G, rtol=0,
                                       atol=1e-10 * total)
                    assert np.allclose(-(Gp - Gm) / (2 * h), H[:, j],
                                       rtol=0,
                                       atol=1e-7 * np.max(np.abs(H)))
                assert np.allclose(H, H.T, rtol=0, atol=1e-15 * total)
                assert np.trace(H) / (n + 1) == pytest.approx(h_tr,
                                                              rel=1e-13)
                if K == 0:
                    # the centroid step: the barycenter's first, which its
                    # later passes, on radii shot about that point, move
                    # only by the grid's quadrature error
                    assert np.array_equal(H, total * np.eye(n + 1))
                    assert np.allclose(dm.origin_newton_step(sf, grid, R)[0],
                                       dm.barycenter(
                                           gg.surface_geometry(g, grid)),
                                       rtol=0, atol=1e-8)

    @pytest.mark.parametrize("K", ALL_K)
    def test_recenter_needs_no_radial_quadrature(self, K, grid3, basis3,
                                                 monkeypatch):
        # for eps <= 0.05 one closed-form Newton step at O recenters: no
        # barycenter call and one reprojection, and the materialized
        # gradient at O of the returned graph meets the barycenter's
        # criterion
        calls = {"barycenter": 0, "reproject": 0}
        barycenter, reproject = dm.barycenter, nz.reproject_after_isometry

        def counting(name, fun):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fun(*args, **kwargs)
            return counted

        monkeypatch.setattr(dm, "barycenter",
                            counting("barycenter", barycenter))
        monkeypatch.setattr(nz, "reproject_after_isometry",
                            counting("reproject", reproject))
        sf = SpaceForm(K=K, n=3)
        for eps in (0.003, 0.01, 0.05):
            for seed in range(3):
                calls.update(barycenter=0, reproject=0)
                u = lab.sample_direction(basis3, seed, 0).scaled(eps)
                new, disp, _ = nz.recenter(
                    gg.RadialGraph(sf=sf, rho=0.9, u=u), grid3)
                assert calls == {"barycenter": 0, "reproject": 1}
                assert disp < nz.BAR_TOL
                assert oracles.barycenter_gradient_criterion(
                    new, grid3, model.origin(sf)) < 1

    def test_even_perturbation(self, grid3, basis3):
        a = np.zeros(basis3.size)
        rng = np.random.default_rng(3)
        for d in (2, 4):
            block = basis3.degree_block(d)
            a[block] = 0.03 * rng.standard_normal(len(block))
        g = gg.RadialGraph(sf=SpaceForm(K=-1, n=3), rho=1.0,
                           u=sb.from_coeffs(basis3, a))
        b = dm.barycenter(gg.surface_geometry(g, grid3))
        assert np.linalg.norm(model.model_vector(g.sf, b)) < 1e-9

    def test_degree_one_flat_matches_monte_carlo(self, grid3, basis3):
        sf = SpaceForm(K=0, n=3)
        a = np.zeros(basis3.size)
        a[1] = 0.05  # degree-1 element along a coordinate axis
        u = sb.from_coeffs(basis3, a)
        g = gg.RadialGraph(sf=sf, rho=1.0, u=u)
        b = dm.barycenter(gg.surface_geometry(g, grid3))
        axis = np.argmax(np.abs(b))
        # sign matches the bump direction of the degree-1 element
        probe = sb.evaluate(u, np.eye(4)[axis][None, :])[0]
        assert np.sign(b[axis]) == np.sign(probe)
        # Monte-Carlo centroid oracle (rejection sampling in a box); the
        # degree-1 element is 0.05 sqrt(4/omega) x_0 in closed form
        rng = np.random.default_rng(2025)
        scale = 0.05 * math.sqrt(4 / unit_sphere_area(3))
        pts = rng.uniform(-1.1, 1.1, size=(2_000_000, 4))
        radii = np.linalg.norm(pts, axis=1)
        keep = radii > 1e-9
        pts, radii = pts[keep], radii[keep]
        R = 1.0 + scale * pts[:, 0] / radii
        acc = pts[radii < R]
        centroid = acc.mean(axis=0)
        sigma = acc.std(axis=0) / math.sqrt(len(acc))
        assert np.all(np.abs(centroid - b) < 2.0 * sigma + 1e-12)


class TestFraenkel:
    @pytest.mark.parametrize("K", ALL_K)
    def test_ball_zero(self, K, grid3, basis3):
        geo = gg.surface_geometry(ball_graph(K, 1.0, basis3), grid3)
        alpha, center = dm.fraenkel_asymmetry(geo, barycenter_seed(geo))
        assert alpha < 1e-10
        assert np.linalg.norm(center) < 1e-4

    @staticmethod
    def translated_ball(K, grid):
        """The graph of the ball of radius 1 about c = TRANSLATION."""
        sf = SpaceForm(K=K, n=3)
        R = oracles.ball_radial_profile(sf, TRANSLATION, 1.0, grid.nodes)
        rho = grid.integrate(R) / sf.sphere_area
        u = sb.project(R / rho - 1.0, grid, sb.build_basis(3, 8))
        return gg.RadialGraph(sf=sf, rho=rho, u=u)

    @pytest.mark.parametrize("K", ALL_K)
    def test_translated_ball(self, K):
        grid = sb.build_grid(3, 24)
        geo = gg.surface_geometry(self.translated_ball(K, grid), grid)
        alpha, center = dm.fraenkel_asymmetry(geo, barycenter_seed(geo))
        assert alpha < 1e-6
        assert np.allclose(center, TRANSLATION, atol=1e-4)

    def test_exact_ball_stops_at_the_alpha_floor(self, monkeypatch):
        # alpha falls geometrically towards rounding on an exact ball, so
        # only the absolute floor stops the search well before SEARCH_STEPS
        grid = sb.build_grid(3, 24)
        calls = []
        warp = dm._ball_warp

        def counted(*args):
            calls.append(1)
            return warp(*args)

        monkeypatch.setattr(dm, "_ball_warp", counted)
        for K in ALL_K:
            geo = gg.surface_geometry(self.translated_ball(K, grid), grid)
            seed = barycenter_seed(geo)
            calls.clear()
            alpha, _ = dm.fraenkel_asymmetry(geo, seed)
            assert len(calls) <= 30, K
            assert alpha <= 1e-12 * dm.volume(geo)

    @pytest.mark.parametrize("K", ALL_K)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_symmetric_difference_matches_profile_oracle(self, K, n):
        # odd n uses phi, phi' of the ball profile only; even n also R
        grid = sb.build_grid(n, 12)
        basis = sb.build_basis(n, 4)
        rng = np.random.default_rng(17 + n)
        a = rng.standard_normal(basis.size)
        g = gg.RadialGraph(sf=SpaceForm(K=K, n=n), rho=0.9,
                           u=sb.from_coeffs(basis, 0.03 * a / np.linalg.norm(a)))
        geo = gg.surface_geometry(g, grid)
        rho_bar = 0.9
        unit = rng.standard_normal(n + 1)
        unit /= np.linalg.norm(unit)
        for scale in (0.0, 1e-3, 0.02, 0.5, 0.99):
            c = scale * rho_bar * unit
            got = dm.symmetric_difference_to_ball(geo, c, rho_bar)
            want = symmetric_difference_oracle(g, grid, c, rho_bar)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        # beyond the 0.995 rho_bar guard and beyond the ball itself
        for scale in (0.996, 1.5):
            c = scale * rho_bar * unit
            assert dm.symmetric_difference_to_ball(geo, c, rho_bar) == np.inf
            assert symmetric_difference_oracle(g, grid, c, rho_bar) == np.inf

    def test_ball_profile_past_pi_is_infinite(self, basis3):
        # a K = +1 direction whose ball profile is finite but reaches past
        # the antipode leaves the radial domain: the oracle's
        # volume_primitive raises there, and alpha on a one-node rule in
        # that direction is +inf, as the center search sees it
        sf = SpaceForm(K=1, n=3)
        c = np.array([1.8, 0.0, 0.0, 0.0])
        x = np.array([[0.5, math.sqrt(0.75), 0.0, 0.0]])
        Rb = oracles.ball_radial_profile(sf, c, 1.82, x)
        assert np.pi < Rb[0] < 2 * np.pi
        with pytest.raises(ValueError):
            sf.volume_primitive(Rb)
        one_node = types.SimpleNamespace(
            graph=ball_graph(1, 1.0, basis3),
            grid=types.SimpleNamespace(nodes=x, integrate=np.sum),
            r=np.ones(1))
        assert dm.symmetric_difference_to_ball(one_node, c, 1.82) == np.inf

    # basis degree and grid resolution per n: the sweep's degree-8 setup
    # for n = 2, 3, and degree 4 on a 12393-node grid for n = 4
    ORACLE_SETUP = {2: (8, 24), 3: (8, 24), 4: (4, 16)}

    @pytest.mark.parametrize("K", ALL_K)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_search_matches_nelder_mead_oracle(self, K, n):
        # on normalized rows, as lab.verify sees them: never more than
        # 2e-5 above Nelder-Mead, and alpha is the symmetric difference
        # at the returned center, bit for bit
        degree, res = self.ORACLE_SETUP[n]
        basis, grid = sb.build_basis(n, degree), sb.build_grid(n, res)
        sf = SpaceForm(K=K, n=n)
        u0 = lab.sample_direction(basis, 31, 0)
        for eps in (0.003, 0.01, 0.03):
            g0 = gg.RadialGraph(sf=sf, rho=0.9, u=u0.scaled(eps))
            ng = nz.normalize(g0, grid, nz.volume_constraint())
            alpha, center = dm.fraenkel_asymmetry(ng.geometry,
                                                  np.zeros(n + 1))
            want, rho_bar = nelder_mead_asymmetry(ng.geometry)
            assert alpha <= want * (1 + 2e-5)
            assert alpha == dm.symmetric_difference_to_ball(
                ng.geometry, center, rho_bar)

    def test_kernel_width_is_numpys_quantile(self):
        # bit for bit np.quantile(size, 0.1), on random arrays and on
        # arrays with ties, of lengths that put (N - 1) q on, below and
        # above the half-way point between two order statistics
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 6, 10, 11, 16, 91, 325, 4225):
            arrays = [np.abs(rng.standard_normal(n)),
                      rng.exponential(size=n) * 10.0 ** rng.integers(-12, 3),
                      rng.integers(0, 3, size=n).astype(float),
                      np.full(n, 0.25), np.zeros(n)]
            for size in arrays:
                want = float(np.quantile(size, dm.SEARCH_KERNEL_QUANTILE))
                assert dm._lower_quantile(size) == want
                assert dm._lower_quantile(size[::-1]) == want

    @pytest.mark.parametrize("K", ALL_K)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ball_primitive_gradient_matches_central_differences(self, K, n):
        sf = SpaceForm(K=K, n=n)
        x = sb.build_grid(n, 8).nodes
        rho_bar, h = 0.9, 1e-5
        rng = np.random.default_rng(41 + n)
        unit = rng.standard_normal(n + 1)
        unit /= np.linalg.norm(unit)
        for scale in (0.0, 0.01, 0.3):
            q, a = dm._center_params(sf, scale * rho_bar * unit)
            b, ph, dph = dm._ball_warp(sf, q, a, rho_bar, x)
            got = dm._ball_primitive_gradient(sf, q, a, b, ph, dph, x)
            want = np.array([
                (ball_primitive_of_q(sf, q + h * e, rho_bar, x)
                 - ball_primitive_of_q(sf, q - h * e, rho_bar, x)) / (2 * h)
                for e in np.eye(n + 1)])
            assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want))

    @given(K=st.sampled_from(ALL_K), n=st.sampled_from([2, 3]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_search_is_rotation_equivariant(self, K, n, seed):
        # the surface rotated by Q has its optimal ball rotated by Q; the
        # Newton search sees only rotation-invariant quantities, so it
        # must return the same alpha and the rotated center. Q is one of
        # the grid's own symmetries, which map its nodes onto its nodes
        # to rounding: a sign flip of each polar coordinate and an
        # element of the dihedral group of the m azimuths. (On the
        # 91-node n = 2 grid of resolution 12, rounding steered by the
        # discontinuous sign(r) reaches 1.4e-12 in about 1 of 600 draws.)
        grid = sb.build_grid(n, 16)
        basis = sb.build_basis(n, 4)
        rng = np.random.default_rng(seed)
        m = len(grid.levels[-1][0])
        turn = 2 * np.pi * rng.integers(m) / m
        Q = np.diag(np.append(rng.choice([-1.0, 1.0], n - 1), [1.0, 1.0]))
        Q[-2:, -2:] = np.array([[np.cos(turn), -np.sin(turn)],
                                [np.sin(turn), np.cos(turn)]]) \
            @ np.diag([1.0, rng.choice([-1.0, 1.0])])
        a = rng.standard_normal(basis.size)
        u = sb.from_coeffs(basis, 0.02 * a / np.linalg.norm(a))
        sf = SpaceForm(K=K, n=n)
        g = gg.RadialGraph(sf=sf, rho=0.9, u=u)
        # u(Q^T x), projected exactly: the grid is exact through degree 8
        g_rot = gg.RadialGraph(
            sf=sf, rho=0.9,
            u=sb.project(sb.evaluate(u, grid.nodes @ Q), grid, basis))
        alpha, center = dm.fraenkel_asymmetry(gg.surface_geometry(g, grid),
                                              np.zeros(n + 1))
        alpha_r, center_r = dm.fraenkel_asymmetry(
            gg.surface_geometry(g_rot, grid), np.zeros(n + 1))
        assert alpha_r == pytest.approx(alpha, rel=1e-12)
        assert np.allclose(center_r, Q @ center, rtol=0, atol=1e-10)

    def test_flat_mode_upper_bound(self, grid3, basis3):
        sf = SpaceForm(K=0, n=3)
        a = np.zeros(basis3.size)
        a[basis3.degree_block(2)[1]] = 0.02
        u = sb.from_coeffs(basis3, a)
        geo = gg.surface_geometry(gg.RadialGraph(sf=sf, rho=1.0, u=u), grid3)
        alpha, _ = dm.fraenkel_asymmetry(geo, barycenter_seed(geo))
        norms = sb.sobolev_norms(grid3, sb.eval_jet_all(u, grid3))
        bound = math.sqrt(unit_sphere_area(3) / 9) * norms.grad_l2
        assert 0 < alpha <= 1.1 * bound

