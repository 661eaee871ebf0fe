"""Tests for recentering and constraint matching."""

import numpy as np
import pytest

import oracles
from sfi import domains as dm
from sfi import graphgeom as gg
from sfi import lab
from sfi import model
from sfi import normalize as nz
from sfi import spherebasis as sb
from sfi.spaceform import SpaceForm, WeightFunction, unit_sphere_area

ALL_K = [-1, 0, 1]


@pytest.fixture(scope="module")
def grid3():
    return sb.build_grid(3, 20)


@pytest.fixture(scope="module")
def basis3():
    return sb.build_basis(3, 5)


def ball_graph(K, rho, basis):
    return gg.RadialGraph(sf=SpaceForm(K=K, n=3), rho=rho,
                          u=sb.zero_function(basis))


def mode(basis, entries):
    """Coefficient vector with (degree, offset, value) entries."""
    a = np.zeros(basis.size)
    for d, off, val in entries:
        a[basis.degree_block(d)[off]] = val
    return a


def translated_ball_graph(K, c, rho_bar, grid, basis):
    sf = SpaceForm(K=K, n=3)
    radii = oracles.ball_radial_profile(sf, c, rho_bar, grid.nodes)
    u = sb.project(radii / rho_bar - 1.0, grid, basis)
    return gg.RadialGraph(sf=sf, rho=rho_bar, u=u)


def match(graph, grid, con):
    """match_radius at the constraint value of graph's geometry on grid."""
    return nz.match_radius(
        graph, con, con.of_geometry(gg.surface_geometry(graph, grid)))


def random_mid_band(basis, rng, amp):
    """Random direction on degrees 2..4, leaving band margin for
    recentering."""
    a = rng.standard_normal(basis.size)
    keep = (basis.degrees >= 2) & (basis.degrees <= 4)
    a[~keep] = 0.0
    return amp * a / np.linalg.norm(a)


class TestConstraintTags:
    def test_parse_labels(self):
        assert nz.parse_constraint("volume").label == "volume"
        assert nz.parse_constraint("weighted_volume").label == "weighted_volume"
        assert nz.parse_constraint("W0").label == "W0"
        assert nz.parse_constraint("w2").j == 2
        with pytest.raises(ValueError, match="unrecognized"):
            nz.parse_constraint("perimeter")
        with pytest.raises(ValueError, match="unknown constraint kind"):
            nz.Constraint(kind="entropy")

    def test_ball_values_match_graph_values(self, grid3, basis3):
        sf = SpaceForm(K=-1, n=3)
        g = ball_graph(-1, 1.1, basis3)
        for con in (nz.volume_constraint(), nz.weighted_volume_constraint(),
                    nz.quermass_constraint(1), nz.quermass_constraint(2)):
            assert con.of_geometry(gg.surface_geometry(g, grid3)) \
                == pytest.approx(con.of_ball(sf, 1.1), rel=1e-11)


class TestMatchRadius:
    def test_ball_is_fixed_point(self, grid3, basis3):
        g = ball_graph(-1, 0.9, basis3)
        rho_star, new = match(g, grid3, nz.volume_constraint())
        assert rho_star == pytest.approx(0.9, rel=1e-13)
        assert np.max(np.abs(new.u.coeffs)) < 1e-12

    def test_flat_constant_mode_absorbed(self, grid3, basis3):
        c = 0.03
        a = np.zeros(basis3.size)
        a[0] = c * np.sqrt(unit_sphere_area(3))
        g = gg.RadialGraph(sf=SpaceForm(K=0, n=3), rho=1.0,
                           u=sb.from_coeffs(basis3, a))
        rho_star, new = match(g, grid3, nz.volume_constraint())
        assert rho_star == pytest.approx(1.0 + c, rel=1e-12)
        assert np.max(np.abs(new.u.coeffs)) < 1e-12

    @pytest.mark.parametrize("con", [
        nz.volume_constraint(), nz.weighted_volume_constraint(),
        nz.quermass_constraint(1)])
    def test_surface_unchanged_and_constraint_met(self, con, grid3, basis3):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(basis3.size)
        a *= 0.04 / np.linalg.norm(a)
        g = gg.RadialGraph(sf=SpaceForm(K=-1, n=3), rho=1.0,
                           u=sb.from_coeffs(basis3, a))
        rho_star, new = match(g, grid3, con)
        r_old = g.radii(sb.values_on_grid(g.u, grid3))
        r_new = new.radii(sb.values_on_grid(new.u, grid3))
        assert np.max(np.abs(r_new - r_old)) < 1e-12
        assert con.of_geometry(gg.surface_geometry(new, grid3)) \
            == pytest.approx(con.of_ball(new.sf, rho_star), rel=1e-11)

    def test_zero_mean_mode_shifts_radius_second_order(self, grid3, basis3):
        shifts = []
        for eps in (1e-2, 1e-3):
            a = mode(basis3, [(2, 0, eps)])
            g = gg.RadialGraph(sf=SpaceForm(K=-1, n=3), rho=1.0,
                               u=sb.from_coeffs(basis3, a))
            rho_star, _ = match(g, grid3, nz.volume_constraint())
            shifts.append(abs(rho_star - 1.0))
        ratio = shifts[0] / shifts[1]
        assert 80 < ratio < 120

    def test_spherical_cap_constraint(self, grid3, basis3):
        g = ball_graph(1, 1.2, basis3)
        rho_star, _ = match(g, grid3, nz.volume_constraint())
        assert rho_star == pytest.approx(1.2, rel=1e-12)

    @pytest.mark.parametrize("K", ALL_K)
    def test_mean_of_matched_profile(self, K, grid3, basis3):
        # For a zero-mean direction and the volume constraint, the mean
        # of u* is -(n/2)(phi'/phi) rho <u,u> to second order.
        eps = 1e-3
        sf = SpaceForm(K=K, n=3)
        a = mode(basis3, [(2, 1, eps), (3, 2, 0.5 * eps)])
        g = gg.RadialGraph(sf=sf, rho=1.0, u=sb.from_coeffs(basis3, a))
        _, new = match(g, grid3, nz.volume_constraint())
        mean = grid3.integrate(sb.values_on_grid(new.u, grid3))
        usq = grid3.integrate(sb.values_on_grid(g.u, grid3) ** 2)
        want = -0.5 * 3 * sf.dphi(1.0) / sf.phi(1.0) * 1.0 * usq
        assert mean == pytest.approx(want, rel=5e-3)


class TestReproject:
    def test_identity_isometry(self, grid3, basis3):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(basis3.size)
        a *= 0.03 / np.linalg.norm(a)
        g = gg.RadialGraph(sf=SpaceForm(K=-1, n=3), rho=1.0,
                           u=sb.from_coeffs(basis3, a))
        new, out_energy, _ = nz.reproject_after_isometry(
            g, grid3, model.origin(g.sf),
            g.radii(sb.values_on_grid(g.u, grid3)))
        assert np.max(np.abs(new.u.coeffs - g.u.coeffs)) < 1e-12
        assert out_energy < 1e-20

    @pytest.mark.parametrize("K", ALL_K)
    def test_translated_ball_profile(self, K, grid3, basis3):
        sf = SpaceForm(K=K, n=3)
        # the centered ball translated so that exp_O(-c) moves to O is
        # the ball about exp_O(c)
        c = np.array([0.05, 0.0, 0.0, 0.0])
        center = oracles.exp_map(sf, model.origin(sf),
                                 oracles.origin_tangent(sf, -c))
        g = ball_graph(K, 1.0, basis3)
        new, out_energy, _ = nz.reproject_after_isometry(
            g, grid3, center, g.radii(sb.values_on_grid(g.u, grid3)))
        want = oracles.ball_radial_profile(sf, c, 1.0, grid3.nodes)
        got = new.radii(sb.values_on_grid(new.u, grid3))
        assert np.max(np.abs(got - want)) < 1e-9
        assert out_energy < 1e-12

    def test_round_trip(self, grid3, basis3):
        sf = SpaceForm(K=-1, n=3)
        a = mode(basis3, [(2, 0, 0.02), (3, 3, 0.01)])
        g = gg.RadialGraph(sf=sf, rho=1.0, u=sb.from_coeffs(basis3, a))
        # translating p to O, then the image of O to O, is the identity
        p = oracles.exp_map(sf, model.origin(sf),
                            oracles.origin_tangent(sf, [0.01, 0.0, 0.0, 0.0]))
        moved, _, _ = nz.reproject_after_isometry(
            g, grid3, p, g.radii(sb.values_on_grid(g.u, grid3)))
        back, _, _ = nz.reproject_after_isometry(
            moved, grid3, oracles.translation_to_origin(sf, p)(
                model.origin(sf)),
            moved.radii(sb.values_on_grid(moved.u, grid3)))
        # fidelity is limited by band truncation at the intermediate step
        assert np.max(np.abs(back.u.coeffs - g.u.coeffs)) < 1e-7


class TestRecenter:
    def test_centered_ball_short_circuits(self, grid3, basis3):
        g = ball_graph(0, 1.0, basis3)
        new, disp, band = nz.recenter(g, grid3)
        assert disp < 1e-9
        assert band == 0.0
        assert np.array_equal(new.u.coeffs, g.u.coeffs)

    def test_even_mode_already_centered(self, grid3, basis3):
        a = mode(basis3, [(2, 2, 0.04)])
        g = gg.RadialGraph(sf=SpaceForm(K=-1, n=3), rho=1.0,
                           u=sb.from_coeffs(basis3, a))
        new, disp, _ = nz.recenter(g, grid3)
        assert disp < 1e-9
        assert np.max(np.abs(new.u.coeffs - g.u.coeffs)) < 1e-7

    @pytest.mark.parametrize("K", ALL_K)
    def test_translated_ball_recovers_center(self, K, grid3, basis3):
        c = np.array([0.03, -0.02, 0.0, 0.01])
        g = translated_ball_graph(K, c, 1.0, grid3, basis3)
        new, disp, band = nz.recenter(g, grid3)
        assert disp < 1e-9
        assert band < 1e-12
        vals = sb.values_on_grid(new.u, grid3)
        assert np.max(np.abs(vals)) < 1e-8
        bar = dm.barycenter(gg.surface_geometry(new, grid3))
        assert np.linalg.norm(model.model_vector(new.sf, bar)) < 1e-8

    def test_node_values_evaluated_once_per_function(self, grid3, basis3,
                                                     monkeypatch):
        # the raw u once, then each reprojected u once: its values come
        # back from reproject_after_isometry and feed the next Newton step
        calls = []
        values_on_grid = sb.values_on_grid

        def counting(u, grid):
            calls.append(u)
            return values_on_grid(u, grid)

        monkeypatch.setattr(sb, "values_on_grid", counting)
        passes = []
        reproject = nz.reproject_after_isometry

        def counting_reproject(*args, **kwargs):
            out = reproject(*args, **kwargs)
            passes.append(out)
            return out

        monkeypatch.setattr(nz, "reproject_after_isometry",
                            counting_reproject)
        c = np.array([0.03, -0.02, 0.0, 0.01])
        g = translated_ball_graph(-1, c, 1.0, grid3, basis3)
        new, disp, _ = nz.recenter(g, grid3)
        assert disp < 1e-9
        assert len(passes) >= 1
        assert len(calls) == 1 + len(passes)
        assert len({id(u) for u in calls}) == len(calls)
        new_graph, _, values = passes[-1]
        assert new_graph is new
        assert np.array_equal(values, values_on_grid(new.u, grid3))

    def test_spherical_domain_far_past_the_equator(self):
        # K = +1, rho = 2.8: H at O stays positive definite (least
        # eigenvalue about 0.52), so the Newton step recenters, and the
        # barycenter, which steps the same way, converges
        grid, basis = sb.build_grid(3, 20), sb.build_basis(3, 5)
        sf = SpaceForm(K=1, n=3)
        g = gg.RadialGraph(sf=sf, rho=2.8,
                           u=lab.sample_direction(basis, 4, 0).scaled(0.01))
        R = g.radii(sb.values_on_grid(g.u, grid))
        _total, _G, _h, H = dm._origin_derivatives(sf, grid, R)
        assert 0.4 < np.linalg.eigvalsh(H)[0] < 0.6
        bar = dm.barycenter(gg.surface_geometry(g, grid))
        assert 1e-5 < np.linalg.norm(model.model_vector(sf, bar)) < 1e-3
        assert oracles.barycenter_gradient_criterion(g, grid, bar) < 1
        res = nz.normalize(g, grid, nz.volume_constraint())
        assert res.constraint_residual < 1e-10
        assert res.bar_displacement < nz.BAR_TOL
        R = res.graph.radii(res.geometry.u_vals)
        total, G, _h, _H = dm._origin_derivatives(sf, grid, R)
        assert 2.0 * np.linalg.norm(G) < 1e-8 * max(1.0, total)

    def test_indefinite_hessian_falls_back_to_the_barycenter(
            self, grid3, basis3, monkeypatch):
        # with H at O forced indefinite, the step is the damped
        # G / max(h, mass / (n+1)) and recenter converges on it, with no
        # barycenter call
        derivatives = dm._origin_derivatives

        def indefinite(*args):
            total, G, h, H = derivatives(*args)
            return total, G, h, H - 2.0 * H[0, 0] * np.eye(len(H))

        monkeypatch.setattr(dm, "_origin_derivatives", indefinite)
        calls = []
        barycenter = dm.barycenter

        def counted(*args, **kwargs):
            calls.append(args)
            return barycenter(*args, **kwargs)

        monkeypatch.setattr(dm, "barycenter", counted)
        sf = SpaceForm(K=1, n=3)
        u = sb.from_coeffs(basis3, mode(basis3, [(2, 0, 0.03), (1, 1, 0.01)]))
        g = gg.RadialGraph(sf=sf, rho=1.0, u=u)
        R = g.radii(sb.values_on_grid(u, grid3))
        total, G, h, _H = derivatives(sf, grid3, R)
        step, met = dm.origin_newton_step(sf, grid3, R)
        assert not met
        assert np.array_equal(step, G / max(h, total / (sf.n + 1)))
        assert np.linalg.norm(step) > 1e-3
        new, disp, _ = nz.recenter(g, grid3)
        assert calls == []
        assert disp < nz.BAR_TOL
        monkeypatch.undo()
        bar = dm.barycenter(gg.surface_geometry(new, grid3))
        assert np.linalg.norm(model.model_vector(sf, bar)) < 1e-8

    def test_residual_odd_content_is_second_order(self, grid3, basis3):
        amps = []
        for eps in (0.02, 0.004):
            a = mode(basis3, [(2, 0, eps), (1, 1, 0.3 * eps)])
            g = gg.RadialGraph(sf=SpaceForm(K=-1, n=3), rho=1.0,
                               u=sb.from_coeffs(basis3, a))
            new, disp, _ = nz.recenter(g, grid3)
            assert disp < 1e-9
            amps.append(np.sqrt(oracles.degree_energies(new.u)[1]))
        ratio = amps[0] / amps[1]
        # superlinear decay; parity of the chosen modes makes it cubic here
        assert 12 < ratio < 200


def assert_carried_state(res, grid):
    """The geometry, norms and barycenter displacement a NormalizedGraph
    carries agree with fresh computations on its graph."""
    fresh = gg.surface_geometry(res.graph, grid)
    carried = res.geometry
    assert carried.graph is res.graph
    for name in ("u_vals", "du", "d2u", "r", "phi", "dphi", "Phi", "D",
                 "area_factor", "second_form", "kappa", "sigma", "H"):
        assert np.allclose(getattr(carried, name), getattr(fresh, name),
                           rtol=1e-12, atol=1e-14), name
    norms = sb.sobolev_norms(grid, (fresh.u_vals, fresh.du, fresh.d2u))
    assert np.allclose(res.norms, norms, rtol=1e-12, atol=1e-15)
    # bar_displacement is recenter's last Newton step at O, or 0 when the
    # gradient there met the criterion; the barycenter takes that step
    # in either case
    radii = res.graph.radii(sb.values_on_grid(res.graph.u, grid))
    step, met = dm.origin_newton_step(res.graph.sf, grid, radii)
    step = np.linalg.norm(step)
    assert res.bar_displacement == (0.0 if met else step)
    bar = dm.barycenter(fresh)
    assert abs(step - np.linalg.norm(
        model.model_vector(res.graph.sf, bar))) < 1e-12


class TestNormalize:
    @pytest.mark.parametrize("K", ALL_K)
    def test_volume_pipeline_invariants(self, K, grid3, basis3):
        rng = np.random.default_rng(40 + K)
        a = random_mid_band(basis3, rng, 0.03)
        g = gg.RadialGraph(sf=SpaceForm(K=K, n=3), rho=1.0,
                           u=sb.from_coeffs(basis3, a))
        res = nz.normalize(g, grid3, nz.volume_constraint())
        assert res.constraint_residual < 1e-10
        assert res.bar_displacement < 1e-8
        assert res.out_of_band < 1e-8
        assert res.norms.c1 < 0.2
        assert abs(res.rho - 1.0) < 0.1
        assert_carried_state(res, grid3)

    @pytest.mark.parametrize("con", [
        nz.weighted_volume_constraint(), nz.quermass_constraint(1),
        nz.quermass_constraint(2)])
    def test_other_constraints(self, con, grid3, basis3):
        rng = np.random.default_rng(77)
        a = random_mid_band(basis3, rng, 0.03)
        g = gg.RadialGraph(sf=SpaceForm(K=-1, n=3), rho=1.0,
                           u=sb.from_coeffs(basis3, a))
        res = nz.normalize(g, grid3, con)
        assert res.constraint_residual < 1e-10
        assert res.bar_displacement < 1e-8
        assert con.of_geometry(gg.surface_geometry(res.graph, grid3)) \
            == pytest.approx(con.of_ball(res.graph.sf, res.rho), rel=1e-10)
        assert_carried_state(res, grid3)

    @pytest.mark.parametrize("K", [-1, 0])
    @pytest.mark.parametrize("con", [
        nz.volume_constraint(), nz.weighted_volume_constraint(),
        nz.quermass_constraint(0), nz.quermass_constraint(1)])
    def test_carried_value_is_the_returned_graphs(self, K, con, grid3,
                                                  basis3):
        # relabeling keeps the radii, sigma and area factor, so the value
        # measured before matching is the matched graph's, bit for bit
        rng = np.random.default_rng(5)
        a = random_mid_band(basis3, rng, 0.03)
        g = gg.RadialGraph(sf=SpaceForm(K=K, n=3), rho=1.0,
                           u=sb.from_coeffs(basis3, a))
        res = nz.normalize(g, grid3, con)
        assert res.constraint_value == con.of_geometry(res.geometry)
        assert res.constraint_value == pytest.approx(
            con.of_geometry(gg.surface_geometry(res.graph, grid3)),
            rel=1e-12)

    @pytest.mark.parametrize("K,con", [
        (-1, nz.volume_constraint()), (0, nz.volume_constraint()),
        (1, nz.volume_constraint()), (-1, nz.weighted_volume_constraint())])
    def test_normalize_is_idempotent(self, K, con, grid3, basis3,
                                     monkeypatch):
        rng = np.random.default_rng(21)
        a = random_mid_band(basis3, rng, 0.03)
        g = gg.RadialGraph(sf=SpaceForm(K=K, n=3), rho=1.0,
                           u=sb.from_coeffs(basis3, a))
        once = nz.normalize(g, grid3, con)

        def no_reprojection(*args):
            raise AssertionError("a normalized graph was reprojected")

        monkeypatch.setattr(nz, "reproject_after_isometry", no_reprojection)
        twice = nz.normalize(once.graph, grid3, con)
        assert twice.rho == pytest.approx(once.rho, abs=1e-14)

    def test_area_preserved_by_recenter_and_relabel(self, grid3, basis3):
        rng = np.random.default_rng(9)
        a = random_mid_band(basis3, rng, 0.02)
        g = gg.RadialGraph(sf=SpaceForm(K=-1, n=3), rho=1.0,
                           u=sb.from_coeffs(basis3, a))
        one = WeightFunction.constant()
        area_before = gg.weighted_curvature_integral(
            gg.surface_geometry(g, grid3), one, 0)
        res = nz.normalize(g, grid3, nz.volume_constraint())
        area_after = gg.weighted_curvature_integral(res.geometry, one, 0)
        assert area_after == pytest.approx(area_before, rel=1e-9)

    def test_ball_is_fixed_point(self, grid3, basis3):
        g = ball_graph(1, 0.8, basis3)
        res = nz.normalize(g, grid3, nz.volume_constraint())
        assert res.rho == pytest.approx(0.8, rel=1e-12)
        assert res.norms.l2 < 1e-10


class TestRecenteredGraph:
    CONSTRAINTS = [nz.volume_constraint(), nz.weighted_volume_constraint(),
                   nz.quermass_constraint(0)]

    @staticmethod
    def sampled(basis, K=-1):
        a = random_mid_band(basis, np.random.default_rng(31), 0.03)
        return gg.RadialGraph(sf=SpaceForm(K=K, n=3), rho=0.9,
                              u=sb.from_coeffs(basis, a))

    @staticmethod
    def counting(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("K", ALL_K)
    def test_constraints_share_one_recentering(self, K, grid3, basis3,
                                               monkeypatch):
        g = self.sampled(basis3, K)
        alone = [nz.normalize(g, grid3, con) for con in self.CONSTRAINTS]
        recentered = self.counting(monkeypatch, nz, "recenter")
        geometries = self.counting(monkeypatch, gg, "surface_geometry")
        shared = nz.RecenteredGraph(g, grid3)
        for con, ref in zip(self.CONSTRAINTS, alone):
            res = nz.normalize(shared, grid3, con)
            for field in ("rho", "constraint_value", "constraint_residual",
                          "bar_displacement", "out_of_band", "norms"):
                assert getattr(res, field) == getattr(ref, field)
            assert np.array_equal(res.graph.u.coeffs, ref.graph.u.coeffs)
            assert res.geometry.r is shared.geometry.r
        assert len(recentered) == len(geometries) == 1

    def test_asymmetry_is_searched_once(self, grid3, basis3, monkeypatch):
        g = self.sampled(basis3)
        ref = dm.fraenkel_asymmetry(
            nz.normalize(g, grid3, nz.volume_constraint()).geometry,
            np.zeros(4))
        searches = self.counting(monkeypatch, dm, "fraenkel_asymmetry")
        shared = nz.RecenteredGraph(g, grid3)
        assert searches == []
        alpha, center = shared.asymmetry
        assert shared.asymmetry[0] == alpha == ref[0]
        assert np.array_equal(center, ref[1])
        assert len(searches) == 1

    def test_raising_stage_is_kept(self, grid3, basis3, monkeypatch):
        # a use that raised keeps its exception: every later use raises
        # it again, with the message a separate normalization would give,
        # and recenter runs once
        calls = []

        def fails(*args):
            calls.append(1)
            raise RuntimeError("forced recentering failure")

        monkeypatch.setattr(nz, "recenter", fails)
        shared = nz.RecenteredGraph(self.sampled(basis3), grid3)
        for con in self.CONSTRAINTS:
            with pytest.raises(RuntimeError, match="forced recentering"):
                nz.normalize(shared, grid3, con)
        for stage in ("geometry", "coarse_geometry", "asymmetry"):
            with pytest.raises(RuntimeError, match="forced recentering"):
                getattr(shared, stage)
        assert len(calls) == 1

    @pytest.mark.parametrize("K", ALL_K)
    def test_coarse_geometry_serves_every_matched_graph(self, K, grid3,
                                                        basis3, monkeypatch):
        # matching relabels the surface, so the recentered graph's coarse
        # geometry, built once, gives each matched graph's own coarse
        # integrals to rounding: within 32 ulps (at most 2 measured)
        shared = nz.RecenteredGraph(self.sampled(basis3, K), grid3)
        coarse = shared.coarse_geometry.grid
        assert coarse is sb.build_grid(3, 10)
        geometries = self.counting(monkeypatch, gg, "surface_geometry")
        assert shared.coarse_geometry is shared.coarse_geometry
        w = WeightFunction.affine()
        for con in self.CONSTRAINTS:
            own = gg.surface_geometry(
                nz.normalize(shared, grid3, con).graph, coarse)
            for k, positive_part in ((0, False), (1, False), (1, True),
                                     (2, False), (3, False)):
                lhs_shared, lhs_own = (
                    gg.weighted_curvature_integral(
                        geo, w, k, positive_part=positive_part)
                    for geo in (shared.coarse_geometry, own))
                assert abs(lhs_shared - lhs_own) \
                    <= 32 * np.finfo(float).eps * abs(lhs_own)
        # the row-grid geometry once, and each matched graph's own
        assert len(geometries) == 1 + len(self.CONSTRAINTS)

    def test_other_grid_is_refused(self, grid3, basis3):
        shared = nz.RecenteredGraph(self.sampled(basis3), grid3)
        assert nz.recentered(shared, grid3) is shared
        with pytest.raises(ValueError, match="another grid"):
            nz.normalize(shared, sb.build_grid(3, 16),
                         nz.volume_constraint())
