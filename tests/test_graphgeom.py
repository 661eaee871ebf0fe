"""Tests for radial-graph geometry."""

import math

import numpy as np
import pytest

import oracles
from sfi import graphgeom as gg
from sfi import spherebasis as sb
from sfi import symfunc as sy
from sfi.spaceform import SpaceForm, WeightFunction

ALL_K = [-1, 0, 1]


@pytest.fixture(scope="module")
def grid3():
    return sb.build_grid(3, 20)


@pytest.fixture(scope="module")
def basis3():
    return sb.build_basis(3, 5)


def perturbed_graph(K, grid, basis, eps, seed=0, rho=1.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(basis.size)
    a /= np.linalg.norm(a)
    return gg.RadialGraph(sf=SpaceForm(K=K, n=grid.n), rho=rho,
                          u=sb.from_coeffs(basis, eps * a))


class TestRadialGraph:
    def test_invalid_rho(self, basis3):
        sf = SpaceForm(K=0, n=3)
        with pytest.raises(ValueError):
            gg.RadialGraph(sf=sf, rho=0.0, u=sb.zero_function(basis3))
        with pytest.raises(ValueError):
            gg.RadialGraph(sf=SpaceForm(K=1, n=3), rho=3.5,
                           u=sb.zero_function(basis3))

    def test_band_violation(self, grid3, basis3):
        sf = SpaceForm(K=1, n=3)
        a = np.zeros(basis3.size)
        a[0] = 1.0  # large constant bump
        g = gg.RadialGraph(sf=sf, rho=3.0, u=sb.from_coeffs(basis3, a))
        with pytest.raises(ValueError):
            gg.surface_geometry(g, grid3)

    def test_non_finite_jet_rejected(self, grid3, basis3, monkeypatch):
        # NaN compares false, so it passes the band and degeneracy checks
        # unless rejected explicitly
        g = perturbed_graph(-1, grid3, basis3, 0.01)
        jet = sb.eval_jet_all(g.u, grid3)
        for i in range(3):
            bad = list(jet)
            bad[i] = bad[i].copy()
            bad[i].flat[0] = np.nan
            monkeypatch.setattr(sb, "eval_jet_all", lambda u, grid: bad)
            with pytest.raises(ValueError, match="non-finite"):
                gg.surface_geometry(g, grid3)
        with pytest.raises(ValueError, match="non-finite"):
            g.radii(np.full(3, np.inf))


class TestGeodesicSphere:
    @pytest.mark.parametrize("K", ALL_K)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_closed_forms(self, K, n):
        grid = sb.build_grid(n, 12)
        basis = sb.build_basis(n, 3)
        sf = SpaceForm(K=K, n=n)
        rho = 0.9
        g = gg.RadialGraph(sf=sf, rho=rho, u=sb.zero_function(basis))
        geo = gg.surface_geometry(g, grid)
        ratio = sf.dphi(rho) / sf.phi(rho)
        assert np.allclose(geo.kappa, ratio, rtol=1e-10)
        assert np.allclose(geo.area_factor, sf.phi(rho) ** n, rtol=1e-10)
        w = WeightFunction.affine()
        for k in range(n + 1):
            got = gg.weighted_curvature_integral(geo, w, k)
            want = gg.sphere_curvature_integral(sf, rho, w, k)
            assert got == pytest.approx(want, rel=1e-10)

    def test_flat_mean_curvature(self, basis3):
        grid = sb.build_grid(3, 12)
        g = gg.RadialGraph(sf=SpaceForm(K=0, n=3), rho=2.0,
                           u=sb.zero_function(basis3))
        geo = gg.surface_geometry(g, grid)
        assert np.allclose(geo.H, 1.5, rtol=1e-12)

    def test_area_example(self, grid3, basis3):
        sf = SpaceForm(K=-1, n=3)
        g = gg.RadialGraph(sf=sf, rho=1.3, u=sb.zero_function(basis3))
        got = gg.weighted_curvature_integral(gg.surface_geometry(g, grid3),
                                             WeightFunction.constant(1.0), 0)
        assert got == pytest.approx(sf.sphere_area * sf.phi(1.3) ** 3,
                                    rel=1e-12)


class TestPerturbedGeometry:
    @pytest.mark.parametrize("K", ALL_K)
    def test_sigma_dual_path(self, K, grid3, basis3):
        g = perturbed_graph(K, grid3, basis3, 0.03, seed=K + 5)
        geo = gg.surface_geometry(g, grid3)
        S = oracles.weingarten(geo)
        for i in range(0, grid3.node_count, 97):
            for k in range(4):
                oracle = oracles.sigma_minor_sum(S[i], k)
                assert geo.sigma[i, k] == pytest.approx(oracle, abs=1e-9,
                                                        rel=1e-9)

    def test_half_splitting(self, grid3, basis3):
        g = perturbed_graph(-1, grid3, basis3, 0.04, seed=3)
        geo = gg.surface_geometry(g, grid3)
        # H = H^+ - H^- with H^+, H^- >= 0 and H^+ H^- = 0
        H_minus = geo.H_plus - geo.H
        assert np.all(geo.H_plus >= 0)
        assert np.all(H_minus >= 0)
        assert np.allclose(geo.H_plus * H_minus, 0.0, atol=1e-14)

    def test_direct_H_formula(self, grid3, basis3):
        g = perturbed_graph(1, grid3, basis3, 0.03, seed=4)
        geo = gg.surface_geometry(g, grid3)
        rho = g.rho
        lap = np.trace(geo.d2u, axis1=1, axis2=2)
        gradsq = np.sum(geo.du**2, axis=1)
        cubic = np.einsum("ia,iab,ib->i", geo.du, geo.d2u, geo.du)
        direct = (3 * geo.dphi / geo.D
                  - rho * lap / (geo.D * geo.phi)
                  + geo.dphi * rho**2 * gradsq / geo.D**3
                  + rho**3 * cubic / (geo.D**3 * geo.phi))
        assert np.allclose(geo.H, direct, atol=1e-11)

    @pytest.mark.parametrize("K", ALL_K)
    def test_relabeled_matches_fresh_geometry(self, K, grid3, basis3):
        # rho(1 + u) = rho*(1 + u*) with u* = lam u + lam - 1, lam = rho/rho*
        g = perturbed_graph(K, grid3, basis3, 0.03, seed=K + 12)
        rho_star = 0.93
        lam = g.rho / rho_star
        coeffs = lam * g.u.coeffs
        coeffs[0] += (lam - 1.0) * math.sqrt(g.sf.sphere_area)
        new = gg.RadialGraph(sf=g.sf, rho=rho_star,
                             u=sb.from_coeffs(basis3, coeffs))
        geo = gg.surface_geometry(g, grid3)
        moved = geo.relabeled(new)
        fresh = gg.surface_geometry(new, grid3)
        assert moved.graph is new
        for name in ("u_vals", "du", "d2u", "r", "phi", "dphi", "Phi", "D",
                     "area_factor", "second_form", "kappa", "sigma", "H",
                     "H_plus"):
            assert np.allclose(getattr(moved, name), getattr(fresh, name),
                               rtol=1e-12, atol=1e-14), name
        assert np.allclose(oracles.weingarten(moved),
                           oracles.weingarten(fresh), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("K", ALL_K)
    def test_scaled_jet_matches_fresh_geometry(self, K, grid3, basis3):
        # expansion fits take the geometry of eps u0 from the jet of u0
        # and its Hessian invariants, scaled by powers of eps: the
        # per-amplitude reference geometry against a fresh one, and the
        # integrals of the node-blocked kernel against fresh integrals
        sf = SpaceForm(K=K, n=3)
        u0 = perturbed_graph(K, grid3, basis3, 1.0, seed=K + 20).u
        jet0 = gg.Jet.of(u0, grid3)
        amps = (0.03, -0.004, 0.0)
        w = WeightFunction.shifted_power(2.0)
        for k in range(4):
            got = gg.scaled_curvature_integrals(
                gg.RadialGraph(sf=sf, rho=0.9, u=u0), grid3, w, k, amps,
                jet0)
            want = [gg.weighted_curvature_integral(gg.surface_geometry(
                gg.RadialGraph(sf=sf, rho=0.9, u=u0.scaled(eps)), grid3), w,
                k) for eps in amps]
            assert got == pytest.approx(want, rel=1e-13, abs=1e-15), k
        for eps in amps:
            g = gg.RadialGraph(sf=sf, rho=0.9, u=u0.scaled(eps))
            geo = oracles.geometry_from_jet(g, grid3,
                                            oracles.scaled_jet(jet0, eps))
            fresh = gg.surface_geometry(g, grid3)
            for name in ("u_vals", "du", "d2u", "r", "phi", "dphi", "Phi",
                         "D", "area_factor", "second_form", "kappa",
                         "sigma", "H", "weingarten", "H_plus"):
                got, want = (oracles.weingarten(s) if name == "weingarten"
                             else getattr(s, name) for s in (geo, fresh))
                assert np.allclose(got, want, rtol=1e-13,
                                   atol=1e-15 * max(1.0, np.max(np.abs(
                                       want)))), (eps, name)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("K", ALL_K)
    def test_sigma_matches_eigenvalue_oracles(self, K, n, monkeypatch):
        # the closed form from the Hessian invariants against the
        # elementary symmetric functions of the principal curvatures
        # (eigvalsh of the similarity) and against the Newton recursion
        # on that similarity: nearly spherical graphs over the amplitude
        # range, and a random jet far from any sphere
        grid = sb.build_grid(n, 8)
        sf = SpaceForm(K=K, n=n)
        u0 = perturbed_graph(K, grid, sb.build_basis(n, 4), 1.0,
                             seed=n + 3 * K + 3).u
        geos = [gg.surface_geometry(
            gg.RadialGraph(sf=sf, rho=0.9, u=u0.scaled(eps)), grid)
            for eps in (1e-12, 1e-8, 1e-4, 0.01, 0.2)]
        rng = np.random.default_rng(40 + n + K)
        m = grid.node_count
        a = rng.standard_normal((m, n, n))
        d2u = 0.5 * (a + np.swapaxes(a, 1, 2))
        du = 0.6 * rng.standard_normal((m, n))
        vals = 0.05 * rng.standard_normal(m)
        monkeypatch.setattr(sb, "eval_jet_all", lambda u, grid: (vals, du,
                                                                 d2u))
        geos.append(gg.surface_geometry(
            gg.RadialGraph(sf=sf, rho=0.9, u=u0), grid))
        for geo in geos:
            tol = 1e-13 * np.maximum(1.0, np.abs(geo.sigma))
            eig = oracles.elementary_from_eigenvalues(geo.kappa)
            assert np.all(np.abs(geo.sigma - eig) <= tol)
            sim = oracles.sigma_by_similarity(geo)
            assert np.all(np.abs(geo.sigma - sim) <= tol)

    def test_convex_flags(self, grid3, basis3):
        g = perturbed_graph(0, grid3, basis3, 0.01, seed=5)
        geo = gg.surface_geometry(g, grid3)
        assert np.all(geo.convex_flags())


class TestScaledCurvatureIntegrals:
    AMPS = (0.0, *np.geomspace(2e-3, 2e-2, 6), *-np.geomspace(2e-3, 2e-2, 6))

    # 91 nodes, fewer than one node block; 2541 and 1125 nodes, not
    # multiples of NODE_BLOCK
    GRIDS = [(2, 12), (3, 20), (4, 8)]

    @pytest.mark.parametrize("n, res", GRIDS)
    @pytest.mark.parametrize("K", ALL_K)
    def test_equals_per_amplitude_oracle(self, K, n, res):
        # oracles.scaled_curvature_integrals evaluates the expanded form
        # of the sigma_k numerator; the Horner form rounds differently
        grid = sb.build_grid(n, res)
        assert grid.node_count < sb.NODE_BLOCK \
            or grid.node_count % sb.NODE_BLOCK
        g = perturbed_graph(K, grid, sb.build_basis(n, 4), 1.0,
                            seed=7 * n + K, rho=0.9)
        jet = gg.Jet.of(g.u, grid)
        for w in (WeightFunction.affine(), WeightFunction.shifted_power(2.0),
                  WeightFunction.power(1.5)):
            for k in range(n + 1):
                got = gg.scaled_curvature_integrals(g, grid, w, k, self.AMPS,
                                                    jet)
                assert got == pytest.approx(oracles.scaled_curvature_integrals(
                    g, grid, w, k, self.AMPS, jet),
                    rel=oracles.SCALED_INTEGRAL_REL, abs=0.0), \
                    (w.label, k)

    @pytest.mark.parametrize("n, res", GRIDS)
    @pytest.mark.parametrize("K", ALL_K)
    def test_bits_do_not_depend_on_blocks_or_amplitudes(self, K, n, res,
                                                        monkeypatch):
        grid = sb.build_grid(n, res)
        g = perturbed_graph(K, grid, sb.build_basis(n, 4), 1.0,
                            seed=7 * n + K, rho=0.9)
        jet = gg.Jet.of(g.u, grid)
        w = WeightFunction.shifted_power(2.0)
        got = [gg.scaled_curvature_integrals(g, grid, w, k, self.AMPS, jet)
               for k in range(n + 1)]
        for k in range(n + 1):
            assert got[k] == [gg.scaled_curvature_integrals(
                g, grid, w, k, [e], jet)[0] for e in self.AMPS], k
        monkeypatch.setattr(sb, "NODE_BLOCK", grid.node_count)
        assert got == [gg.scaled_curvature_integrals(g, grid, w, k,
                                                     self.AMPS, jet)
                       for k in range(n + 1)]

    @pytest.mark.parametrize("n, res", GRIDS)
    @pytest.mark.parametrize("K", ALL_K)
    def test_unit_amplitude_is_surface_geometry(self, K, n, res):
        grid = sb.build_grid(n, res)
        g = perturbed_graph(K, grid, sb.build_basis(n, 4), 0.03,
                            seed=5 * n + K, rho=0.9)
        geo = gg.surface_geometry(g, grid)
        jet = gg.Jet.of(g.u, grid)
        for w in (WeightFunction.affine(), WeightFunction.power(1.5)):
            for k in range(n + 1):
                assert gg.scaled_curvature_integrals(
                    g, grid, w, k, [0.5, 1.0], jet)[1] \
                    == gg.weighted_curvature_integral(geo, w, k), k

    @pytest.mark.parametrize("K", ALL_K)
    def test_reference_geometry_is_surface_geometry(self, K, grid3, basis3):
        # the oracle's expanded sigma_k numerator rounds differently from
        # the Horner form, by at most 6.1e-16 of max(1, |sigma_k|) here
        g = perturbed_graph(K, grid3, basis3, 0.03, seed=K + 30)
        geo = gg.surface_geometry(g, grid3)
        ref = oracles.geometry_from_jet(g, grid3, gg.Jet.of(g.u, grid3))
        for name in ("u_vals", "du", "d2u", "r", "phi", "dphi", "Phi", "D",
                     "area_factor"):
            assert np.array_equal(getattr(geo, name), getattr(ref, name)), \
                name
        for name in ("sigma", "H"):
            want = getattr(ref, name)
            assert np.all(np.abs(getattr(geo, name) - want)
                          <= 2.4e-15 * np.maximum(1.0, np.abs(want))), name

    @pytest.mark.parametrize("case", ["band", "degenerate", "vals", "du",
                                      "d2u"])
    def test_checks_match_surface_geometry(self, case, grid3, basis3,
                                           monkeypatch):
        # the bad node lies in the last, partial node block
        g = gg.RadialGraph(sf=SpaceForm(K=0, n=3), rho=1.0,
                           u=perturbed_graph(0, grid3, basis3, 0.01).u)
        vals, du, d2u = (a.copy() for a in sb.eval_jet_all(g.u, grid3))
        node = grid3.node_count - 5
        if case == "band":
            vals[node] = -2.0
        elif case == "degenerate":
            vals[node], du[node] = -1.0 + 1e-15, 0.0
        else:
            {"vals": vals, "du": du, "d2u": d2u}[case][node] = np.nan
        jet = gg.Jet(vals, du, d2u, *sy.hessian_invariants(d2u, du))
        monkeypatch.setattr(sb, "eval_jet_all", lambda u, grid: (vals, du,
                                                                 d2u))
        with pytest.raises(ValueError, match={
                "band": "band", "degenerate": "degenerate"}.get(
                    case, "non-finite")) as want:
            gg.surface_geometry(g, grid3)
        for k in (0, 2):
            with pytest.raises(ValueError) as got:
                gg.scaled_curvature_integrals(g, grid3,
                                              WeightFunction.affine(), k,
                                              [0.0, 0.5, 1.0], jet)
            assert str(got.value) == str(want.value)

    def test_bad_k(self, grid3, basis3):
        g = perturbed_graph(0, grid3, basis3, 1.0)
        jet = gg.Jet.of(g.u, grid3)
        for k in (-1, 4):
            with pytest.raises(ValueError, match="outside"):
                gg.scaled_curvature_integrals(
                    g, grid3, WeightFunction.affine(), k, [0.0], jet)


class TestMeanCurvatureTwoWays:
    def test_round_sphere_zero(self, grid3, basis3):
        for K in ALL_K:
            g = gg.RadialGraph(sf=SpaceForm(K=K, n=3), rho=1.2,
                               u=sb.zero_function(basis3))
            assert oracles.mean_curvature_two_ways(g, grid3) < 1e-12

    def test_small_mode(self, grid3, basis3):
        a = np.zeros(basis3.size)
        a[basis3.degree_block(2)[0]] = 0.01
        g = gg.RadialGraph(sf=SpaceForm(K=-1, n=3), rho=1.0,
                           u=sb.from_coeffs(basis3, a))
        assert oracles.mean_curvature_two_ways(g, grid3) < 1e-8

    def test_random_band_limited(self, grid3, basis3):
        g = perturbed_graph(0, grid3, basis3, 0.05, seed=6)
        assert oracles.mean_curvature_two_ways(g, grid3) < 1e-7


class TestWeightedIntegral:
    def test_bad_k(self, grid3, basis3):
        geo = gg.surface_geometry(perturbed_graph(0, grid3, basis3, 0.01),
                                  grid3)
        w = WeightFunction.constant(1.0)
        with pytest.raises(ValueError):
            gg.weighted_curvature_integral(geo, w, 4)
        with pytest.raises(ValueError):
            gg.weighted_curvature_integral(geo, w, -1)

    def test_positive_part_only_k1(self, grid3, basis3):
        geo = gg.surface_geometry(perturbed_graph(0, grid3, basis3, 0.01),
                                  grid3)
        w = WeightFunction.constant(1.0)
        with pytest.raises(ValueError):
            gg.weighted_curvature_integral(geo, w, 2, positive_part=True)

    def test_positive_part_matches_H_for_convex(self, grid3, basis3):
        geo = gg.surface_geometry(
            perturbed_graph(-1, grid3, basis3, 0.02, seed=8), grid3)
        w = WeightFunction.affine()
        a = gg.weighted_curvature_integral(geo, w, 1)
        b = gg.weighted_curvature_integral(geo, w, 1, positive_part=True)
        assert a == pytest.approx(b, rel=1e-12)

    def test_grid_refinement(self, basis3):
        g = perturbed_graph(-1, sb.build_grid(3, 20), basis3, 0.02, seed=9)
        w = WeightFunction.shifted_power(2.0)
        coarse, fine = (
            gg.weighted_curvature_integral(
                gg.surface_geometry(g, sb.build_grid(3, res)), w, 2)
            for res in (24, 48))
        assert abs(coarse - fine) < 1e-8 * max(1.0, abs(fine))


class TestNodeGeometry:
    def test_dump_rows(self, grid3, basis3):
        g = perturbed_graph(0, grid3, basis3, 0.01, seed=11)
        geo = gg.surface_geometry(g, grid3)
        rows = gg.node_dump_rows(geo)
        assert len(rows) == grid3.node_count
        assert set(rows[0]) == {"node", "r", "H", "kappa1", "kappa2", "kappa3",
                                "sigma0", "sigma1", "sigma2", "sigma3"}
        assert rows[5]["sigma1"] == pytest.approx(rows[5]["H"])
