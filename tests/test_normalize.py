"""Tests for normalization about the barycenter and constraint matching."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    u = oracles.project(radii / rho_bar - 1.0, grid, basis)
    return gg.RadialGraph(sf=sf, rho=rho_bar, u=u)


def random_mid_band(basis, rng, amp):
    """Random direction on degrees 2..4."""
    a = rng.standard_normal(basis.size)
    keep = (basis.degrees >= 2) & (basis.degrees <= 4)
    a[~keep] = 0.0
    return amp * a / np.linalg.norm(a)


def sampled_points(graph, geo):
    """The sampled surface's nodes as ambient points."""
    return model.embed(graph.sf, geo.r, geo.grid.nodes)


def moved_to_barycenter(res, grid):
    """The oracle's radial graph of the normalized surface translated so
    that its barycenter moves to O, and its out-of-band energy."""
    shared = res.sampled
    return oracles.translated_graph(shared.graph, grid, shared.barycenter)


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
    """rho* = Constraint.ball_radius of the constraint value read about
    the barycenter."""

    def test_ball_is_fixed_point(self, grid3, basis3):
        res = nz.normalize(ball_graph(-1, 0.9, basis3), grid3,
                           nz.volume_constraint())
        assert res.rho == pytest.approx(0.9, rel=1e-13)
        assert res.norms.c1 < 1e-12

    def test_flat_constant_mode_absorbed(self, grid3, basis3):
        c = 0.03
        a = np.zeros(basis3.size)
        a[0] = c * np.sqrt(unit_sphere_area(3))
        g = gg.RadialGraph(sf=SpaceForm(K=0, n=3), rho=1.0,
                           u=sb.from_coeffs(basis3, a))
        res = nz.normalize(g, grid3, nz.volume_constraint())
        assert res.rho == pytest.approx(1.0 + c, rel=1e-12)
        assert res.norms.c1 < 1e-12

    @pytest.mark.parametrize("con", [
        nz.volume_constraint(), nz.weighted_volume_constraint(),
        nz.quermass_constraint(1)])
    def test_surface_unchanged_and_constraint_met(self, con, grid3, basis3):
        # d_p at the sampled nodes is the geodesic distance from the
        # barycenter, and the matched ball carries the constraint value
        rng = np.random.default_rng(5)
        a = rng.standard_normal(basis3.size)
        a *= 0.04 / np.linalg.norm(a)
        g = gg.RadialGraph(sf=SpaceForm(K=-1, n=3), rho=1.0,
                           u=sb.from_coeffs(basis3, a))
        res = nz.normalize(g, grid3, con)
        shared = res.sampled
        p = shared.barycenter
        assert np.linalg.norm(model.model_vector(g.sf, p)) > 1e-3
        want = oracles.distance(g.sf, sampled_points(g, shared.geometry), p)
        assert np.allclose(shared.fields.dist, want, rtol=1e-13, atol=0)
        assert res.constraint_value == pytest.approx(
            con.of_ball(g.sf, res.rho), rel=1e-11)

    def test_zero_mean_mode_shifts_radius_second_order(self, grid3, basis3):
        shifts = []
        for eps in (1e-2, 1e-3):
            a = mode(basis3, [(2, 0, eps)])
            g = gg.RadialGraph(sf=SpaceForm(K=-1, n=3), rho=1.0,
                               u=sb.from_coeffs(basis3, a))
            res = nz.normalize(g, grid3, nz.volume_constraint())
            shifts.append(abs(res.rho - 1.0))
        ratio = shifts[0] / shifts[1]
        assert 80 < ratio < 120

    def test_spherical_cap_constraint(self, grid3, basis3):
        res = nz.normalize(ball_graph(1, 1.2, basis3), grid3,
                           nz.volume_constraint())
        assert res.rho == pytest.approx(1.2, rel=1e-12)

    @pytest.mark.parametrize("K", ALL_K)
    def test_mean_of_matched_profile(self, K, grid3, basis3):
        # For a zero-mean direction and the volume constraint, the mean
        # of u* over dsigma_p is -(n/2)(phi'/phi) rho <u,u> to second
        # order.
        eps = 1e-3
        sf = SpaceForm(K=K, n=3)
        a = mode(basis3, [(2, 1, eps), (3, 2, 0.5 * eps)])
        g = gg.RadialGraph(sf=sf, rho=1.0, u=sb.from_coeffs(basis3, a))
        res = nz.normalize(g, grid3, nz.volume_constraint())
        fields = res.sampled.fields
        mean = np.sum(fields.measure * (fields.dist / res.rho - 1.0))
        usq = grid3.integrate(oracles.values_on_grid(g.u, grid3) ** 2)
        want = -0.5 * 3 * sf.dphi(1.0) / sf.phi(1.0) * 1.0 * usq
        assert mean == pytest.approx(want, rel=5e-3)


class TestReproject:
    """The oracle's translation of a graph: ray shooting, then projection
    onto the basis (oracles.translated_graph)."""

    def test_identity_isometry(self, grid3, basis3):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(basis3.size)
        a *= 0.03 / np.linalg.norm(a)
        g = gg.RadialGraph(sf=SpaceForm(K=-1, n=3), rho=1.0,
                           u=sb.from_coeffs(basis3, a))
        new, out_energy = oracles.translated_graph(g, grid3,
                                                   model.origin(g.sf))
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
        new, out_energy = oracles.translated_graph(g, grid3, center)
        want = oracles.ball_radial_profile(sf, c, 1.0, grid3.nodes)
        got = new.radii(oracles.values_on_grid(new.u, grid3))
        assert np.max(np.abs(got - want)) < 1e-9
        assert out_energy < 1e-12

    def test_round_trip(self, grid3, basis3):
        sf = SpaceForm(K=-1, n=3)
        a = mode(basis3, [(2, 0, 0.02), (3, 3, 0.01)])
        g = gg.RadialGraph(sf=sf, rho=1.0, u=sb.from_coeffs(basis3, a))
        # translating p to O, then the image of O to O, is the identity
        p = oracles.exp_map(sf, model.origin(sf),
                            oracles.origin_tangent(sf, [0.01, 0.0, 0.0, 0.0]))
        moved, _ = oracles.translated_graph(g, grid3, p)
        back, _ = oracles.translated_graph(
            moved, grid3,
            oracles.translation_to_origin(sf, p)(model.origin(sf)))
        # fidelity is limited by band truncation at the intermediate step
        assert np.max(np.abs(back.u.coeffs - g.u.coeffs)) < 1e-7


class TestRecenter:
    """The barycenter and the fields about it."""

    def test_centered_ball_short_circuits(self, grid3, basis3):
        # about O the fields are the graph's own: the weight's argument
        # geo.Phi bit for bit, d_p = r, dsigma_p the grid weights and no
        # gradient
        g = ball_graph(0, 1.0, basis3)
        shared = nz.SampledGraph(g, grid3)
        assert np.linalg.norm(shared.barycenter) < 1e-15
        geo = shared.geometry
        fields = nz.center_fields(geo, model.origin(g.sf))
        assert np.array_equal(fields.Phi, geo.Phi)
        assert np.allclose(fields.dist, geo.r, rtol=1e-15, atol=0)
        assert np.allclose(fields.measure, grid3.weights, rtol=1e-15,
                           atol=0)
        assert np.max(fields.grad_sq) == 0.0

    def test_even_mode_already_centered(self, grid3, basis3):
        # even content leaves the barycenter at O; there the fields reduce
        # to the graph's own jet: rho* grad u* = rho grad u and
        # rho* Hess u* = rho Hess u
        a = mode(basis3, [(2, 2, 0.04), (4, 1, 0.02)])
        for K in ALL_K:
            g = gg.RadialGraph(sf=SpaceForm(K=K, n=3), rho=1.0,
                               u=sb.from_coeffs(basis3, a))
            shared = nz.SampledGraph(g, grid3)
            assert np.linalg.norm(model.model_vector(
                g.sf, shared.barycenter)) < 1e-9
            geo = shared.geometry
            fields = nz.center_fields(geo, model.origin(g.sf))
            w = g.rho * geo.du
            assert np.allclose(fields.dist, geo.r, rtol=1e-15, atol=0)
            assert np.allclose(fields.measure, grid3.weights, rtol=1e-13,
                               atol=0)
            assert np.allclose(fields.grad_sq, np.sum(w * w, axis=1),
                               rtol=1e-12, atol=1e-15 * np.max(w * w))
            assert fields.hess_norm == pytest.approx(
                g.rho * sb.hessian_norm(geo.d2u), rel=1e-12)

    @pytest.mark.parametrize("K", ALL_K)
    def test_translated_ball_recovers_center(self, K, grid3, basis3):
        # a ball about exp_O(c): the barycenter is its center, and about
        # it the profile is flat, u* = 0, with no gradient or Hessian,
        # every term of the Hessian's formula cancelling
        c = np.array([0.03, -0.02, 0.0, 0.01])
        g = translated_ball_graph(K, c, 1.0, grid3, basis3)
        res = nz.normalize(g, grid3, nz.volume_constraint())
        p = res.sampled.barycenter
        assert np.allclose(model.model_vector(g.sf, p), c, rtol=0,
                           atol=1e-8)
        fields = res.sampled.fields
        assert res.rho == pytest.approx(1.0, rel=1e-8)
        assert np.max(np.abs(fields.dist - 1.0)) < 1e-8
        assert np.max(fields.grad_sq) < 1e-15
        assert res.norms.w2inf < 1e-7

    def test_node_values_evaluated_once_per_function(self, grid3, basis3,
                                                     monkeypatch):
        # every case on one sampled graph reads one 2-jet of its u per
        # grid: the row grid's and the coarse grid's
        calls = []
        eval_jet_all = sb.eval_jet_all

        def counting(u, grid):
            calls.append((u, grid))
            return eval_jet_all(u, grid)

        monkeypatch.setattr(sb, "eval_jet_all", counting)
        sf = SpaceForm(K=-1, n=3)
        cases = [lab.TheoremCase(tid, sf, WeightFunction.affine(), k=k, j=j,
                                 rho=0.9)
                 for tid, k, j in (("sigmak-weighted-volume", 2, None),
                                   ("sigmak-quermass-hyperbolic", 1, 0),
                                   ("H-volume", 1, None))]
        u0 = lab.sample_direction(basis3, 4, 0).scaled(0.01)
        rows = lab.verify_rows(cases, gg.RadialGraph(sf=sf, rho=0.9, u=u0),
                               grid3, "d000", 0.01)
        assert all(isinstance(r, lab.DeficitReport) for r in rows)
        assert [grid for _, grid in calls] == [grid3, sb.build_grid(3, 10)]
        assert all(u is u0 for u, _ in calls)

    def test_spherical_domain_far_past_the_equator(self):
        # K = +1, rho = 2.8: H at O stays positive definite (least
        # eigenvalue about 0.52), so the barycenter converges by Newton
        # steps, and about it phi'(d_p) < 0 at every node: the fields
        # still give the distance, and the row the same ball and norms as
        # the surface moved to put its barycenter at O
        grid, basis = sb.build_grid(3, 20), sb.build_basis(3, 5)
        sf = SpaceForm(K=1, n=3)
        g = gg.RadialGraph(sf=sf, rho=2.8,
                           u=lab.sample_direction(basis, 4, 0).scaled(0.01))
        R = g.radii(oracles.values_on_grid(g.u, grid))
        _total, _G, _h, H = dm._origin_derivatives(sf, grid, R)
        assert 0.4 < np.linalg.eigvalsh(H)[0] < 0.6
        res = nz.normalize(g, grid, nz.volume_constraint())
        shared = res.sampled
        bar = shared.barycenter
        assert 1e-5 < np.linalg.norm(model.model_vector(sf, bar)) < 1e-3
        assert oracles.barycenter_gradient_criterion(g, grid, bar) < 1
        assert res.constraint_residual < 1e-10
        fields = shared.fields
        assert np.all(1.0 - fields.Phi < 0)
        want = oracles.distance(sf, sampled_points(g, shared.geometry), bar)
        assert np.allclose(fields.dist, want, rtol=1e-12, atol=0)
        moved, band = moved_to_barycenter(res, grid)
        assert band < 1e-12
        again = nz.normalize(moved, grid, nz.volume_constraint())
        assert again.rho == pytest.approx(res.rho, rel=1e-12)
        assert again.norms.grad_l2 == pytest.approx(res.norms.grad_l2,
                                                    rel=1e-9)

    def test_indefinite_hessian_takes_the_damped_step(
            self, grid3, basis3, monkeypatch):
        # with H at O forced indefinite, every step is the damped
        # G / max(h, mass / (n+1)), and the barycenter still converges to
        # the point the Newton steps reach
        sf = SpaceForm(K=1, n=3)
        u = sb.from_coeffs(basis3, mode(basis3, [(2, 0, 0.03), (1, 1, 0.01)]))
        g = gg.RadialGraph(sf=sf, rho=1.0, u=u)
        geo = gg.surface_geometry(g, grid3)
        newton = dm.barycenter(geo)
        derivatives = dm._origin_derivatives

        def indefinite(*args):
            total, G, h, H = derivatives(*args)
            return total, G, h, H - 2.0 * H[0, 0] * np.eye(len(H))

        monkeypatch.setattr(dm, "_origin_derivatives", indefinite)
        total, G, h, _H = derivatives(sf, grid3, geo.r)
        step, met = dm.origin_newton_step(sf, grid3, geo.r)
        assert not met
        assert np.array_equal(step, G / max(h, total / (sf.n + 1)))
        assert np.linalg.norm(step) > 1e-3
        assert np.allclose(dm.barycenter(geo), newton, rtol=0, atol=1e-9)

    def test_residual_odd_content_is_second_order(self, grid3, basis3):
        # about the barycenter the profile's first moment
        # int u* theta dsigma_p, theta the direction at p of each node,
        # vanishes to second order in the amplitude
        sf = SpaceForm(K=-1, n=3)
        moments = []
        for eps in (0.02, 0.004):
            a = mode(basis3, [(2, 0, eps), (1, 1, 0.3 * eps)])
            g = gg.RadialGraph(sf=sf, rho=1.0, u=sb.from_coeffs(basis3, a))
            res = nz.normalize(g, grid3, nz.volume_constraint())
            shared = res.sampled
            to_origin = oracles.translation_to_origin(sf, shared.barycenter)
            _, theta = model.polar(sf, to_origin(
                sampled_points(g, shared.geometry)))
            u_star = shared.fields.dist / res.rho - 1.0
            moments.append(np.linalg.norm(
                (shared.fields.measure * u_star) @ theta))
        ratio = moments[0] / moments[1]
        # superlinear decay; parity of the chosen modes makes it cubic here
        assert 12 < ratio < 200


def assert_carried_state(res, grid):
    """The value, the weighted integrals and the norms a NormalizedGraph
    carries agree with those of the oracle's graph of the same surface,
    translated so that its barycenter sits at O: integrals to that
    graph's truncation to the basis (1e-9 relative), the sup norms, taken
    there over other points, to sampling level."""
    moved, band = moved_to_barycenter(res, grid)
    assert band < 1e-12
    fresh = gg.surface_geometry(moved, grid)
    con = res.constraint
    assert res.constraint_value == pytest.approx(con.of_geometry(fresh),
                                                 rel=1e-9)
    shared = res.sampled
    w = WeightFunction.affine()
    for k in range(4):
        assert gg.weighted_curvature_integral(
            shared.geometry, shared.fields.Phi, w, k) == pytest.approx(
            gg.weighted_curvature_integral(fresh, fresh.Phi, w, k),
            rel=1e-9)
    # u* = lam u + lam - 1 with lam = rho / rho*
    lam = moved.rho / res.rho
    norms = oracles.sobolev_norms(grid, (lam * fresh.u_vals + lam - 1.0,
                                    lam * fresh.du, lam * fresh.d2u))
    assert res.norms.l2 == pytest.approx(norms.l2, rel=1e-9, abs=1e-15)
    assert res.norms.grad_l2 == pytest.approx(norms.grad_l2, rel=1e-9)
    assert res.norms.c1 == pytest.approx(norms.c1, rel=1e-4)
    assert res.norms.w2inf == pytest.approx(norms.w2inf, rel=1e-4)


class TestNormalize:
    @pytest.mark.parametrize("K", ALL_K)
    def test_volume_pipeline_invariants(self, K, grid3, basis3):
        rng = np.random.default_rng(40 + K)
        a = random_mid_band(basis3, rng, 0.03)
        g = gg.RadialGraph(sf=SpaceForm(K=K, n=3), rho=1.0,
                           u=sb.from_coeffs(basis3, a))
        res = nz.normalize(g, grid3, nz.volume_constraint())
        assert res.constraint_residual < 1e-10
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
        assert res.constraint_value == pytest.approx(
            con.of_ball(g.sf, res.rho), rel=1e-10)
        assert_carried_state(res, grid3)

    @pytest.mark.parametrize("K", [-1, 0])
    @pytest.mark.parametrize("con", [
        nz.volume_constraint(), nz.weighted_volume_constraint(),
        nz.quermass_constraint(0), nz.quermass_constraint(1)])
    def test_carried_value_is_the_returned_graphs(self, K, con, grid3,
                                                  basis3):
        # the quermassintegrals are read from the sampled geometry as they
        # are, bit for bit; the weighted volume about the barycenter is
        # the flux integral of X_p, which is the bulk integral of
        # phi'(d_p) over the domain: both agree with the surface moved to
        # put the barycenter at O to that graph's truncation
        rng = np.random.default_rng(5)
        a = random_mid_band(basis3, rng, 0.03)
        a[basis3.degree_block(1)[2]] = 0.01
        sf = SpaceForm(K=K, n=3)
        g = gg.RadialGraph(sf=sf, rho=1.0, u=sb.from_coeffs(basis3, a))
        res = nz.normalize(g, grid3, con)
        shared = res.sampled
        if con.kind == "quermass":
            assert res.constraint_value == con.of_geometry(shared.geometry)
        else:
            assert res.constraint_value == shared.fields.weighted_volume
        moved, _ = moved_to_barycenter(res, grid3)
        want = con.of_geometry(gg.surface_geometry(moved, grid3))
        assert res.constraint_value == pytest.approx(want, rel=1e-9)
        if con.kind == "weighted_volume":
            assert res.constraint_value == pytest.approx(
                oracles.weighted_volume_bruteforce(moved, grid3), rel=1e-9)

    @pytest.mark.parametrize("K,con", [
        (-1, nz.volume_constraint()), (0, nz.volume_constraint()),
        (1, nz.volume_constraint()), (-1, nz.weighted_volume_constraint())])
    def test_normalize_is_idempotent(self, K, con, grid3, basis3):
        # the same surface with its barycenter moved to O normalizes to
        # the same ball: no second pass has anything to move
        rng = np.random.default_rng(21)
        a = random_mid_band(basis3, rng, 0.03)
        g = gg.RadialGraph(sf=SpaceForm(K=K, n=3), rho=1.0,
                           u=sb.from_coeffs(basis3, a))
        once = nz.normalize(g, grid3, con)
        moved, _ = moved_to_barycenter(once, grid3)
        twice = nz.normalize(moved, grid3, con)
        assert np.linalg.norm(model.model_vector(
            g.sf, twice.sampled.barycenter)) < 1e-10
        assert twice.rho == pytest.approx(once.rho, rel=1e-10)

    def test_area_preserved_by_recenter_and_relabel(self, grid3, basis3):
        # the row reads the sampled surface: its area equals that of the
        # same surface moved to put its barycenter at O
        rng = np.random.default_rng(9)
        a = random_mid_band(basis3, rng, 0.02)
        g = gg.RadialGraph(sf=SpaceForm(K=-1, n=3), rho=1.0,
                           u=sb.from_coeffs(basis3, a))
        one = WeightFunction.constant()
        res = nz.normalize(g, grid3, nz.volume_constraint())
        shared = res.sampled
        area = gg.weighted_curvature_integral(
            shared.geometry, shared.fields.Phi, one, 0)
        moved = gg.surface_geometry(moved_to_barycenter(res, grid3)[0],
                                    grid3)
        area_moved = gg.weighted_curvature_integral(moved, moved.Phi, one, 0)
        assert area == pytest.approx(area_moved, rel=1e-9)

    def test_ball_is_fixed_point(self, grid3, basis3):
        g = ball_graph(1, 0.8, basis3)
        res = nz.normalize(g, grid3, nz.volume_constraint())
        assert res.rho == pytest.approx(0.8, rel=1e-12)
        assert res.norms.l2 < 1e-10


class TestTranslationInvariance:
    CASES = [("sigmak-quermass-hyperbolic", -1, 1, 0, 0.9),
             ("H-weighted-volume", -1, 1, None, 0.9),
             ("sigmak-quermass-euclidean", 0, 2, 1, 1.0),
             ("H-volume", 1, 1, None, 0.8)]

    @given(which=st.integers(0, len(CASES) - 1),
           eps=st.sampled_from([0.003, 0.01]),
           stream=st.integers(0, 3),
           c=st.lists(st.floats(-1e-6, 1e-6), min_size=4, max_size=4))
    @settings(max_examples=12, deadline=None)
    def test_translated_graph_gives_the_same_row(self, which, eps, stream,
                                                 c):
        # the oracle's translate T_c of a sampled graph, with negligible
        # out-of-band energy, is the same surface, so it gives the same
        # row: lhs, constraint value and deficit to rounding, the
        # asymmetry, which reads other nodes, to sampling level. Offsets
        # stay within 1e-6: at 1e-5 the center search takes another path
        # in about one trial in ten and lands up to 8e-6 relative away
        tid, K, k, j, rho = self.CASES[which]
        grid, basis = sb.build_grid(3, 20), sb.build_basis(3, 5)
        sf = SpaceForm(K=K, n=3)
        case = lab.TheoremCase(tid, sf, WeightFunction.affine(), k=k, j=j,
                               rho=rho)
        g = gg.RadialGraph(sf=sf, rho=rho, u=lab.sample_direction(
            basis, 2025, stream).scaled(eps))
        moved, band = oracles.translated_graph(g, grid, model.point(sf, c))
        assert band <= 1e-12
        a, b = (lab.verify(case, graph, grid) for graph in (g, moved))
        scale = max(abs(a.lhs), abs(a.rhs))
        assert b.lhs == pytest.approx(a.lhs, rel=1e-12)
        assert abs(b.deficit - a.deficit) <= 1e-12 * scale
        assert b.alpha == pytest.approx(a.alpha, rel=1e-5)
        assert b.status == a.status
        values = [nz.normalize(graph, grid, case.constraint()).constraint_value
                  for graph in (g, moved)]
        assert values[1] == pytest.approx(values[0], rel=1e-12)


class TestRecenteredGraph:
    """The SampledGraph stage that every constraint normalized from one
    sampled graph shares."""

    CONSTRAINTS = [nz.volume_constraint(), nz.weighted_volume_constraint(),
                   nz.quermass_constraint(0)]

    @staticmethod
    def sampled(basis, K=-1):
        a = random_mid_band(basis, np.random.default_rng(31), 0.03)
        a[basis.degree_block(1)[0]] = 0.01
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
        # one geometry and one barycenter serve every constraint, which
        # gets what its own normalization of the sampled graph gives
        g = self.sampled(basis3, K)
        alone = [nz.normalize(g, grid3, con) for con in self.CONSTRAINTS]
        barycenters = self.counting(monkeypatch, dm, "barycenter")
        geometries = self.counting(monkeypatch, gg, "surface_geometry")
        shared = nz.SampledGraph(g, grid3)
        for con, ref in zip(self.CONSTRAINTS, alone):
            res = nz.normalize(shared, grid3, con)
            assert res.sampled is shared
            for field in ("rho", "constraint_value", "constraint_residual",
                          "norms"):
                assert getattr(res, field) == getattr(ref, field)
        assert len(barycenters) == len(geometries) == 1

    def test_asymmetry_is_searched_once(self, grid3, basis3, monkeypatch):
        # on the sampled geometry, seeded at the barycenter
        g = self.sampled(basis3)
        geo = gg.surface_geometry(g, grid3)
        ref = dm.fraenkel_asymmetry(
            geo, model.model_vector(g.sf, dm.barycenter(geo)))
        searches = self.counting(monkeypatch, dm, "fraenkel_asymmetry")
        shared = nz.SampledGraph(g, grid3)
        assert searches == []
        alpha, center = shared.asymmetry
        assert shared.asymmetry[0] == alpha == ref[0]
        assert np.array_equal(center, ref[1])
        assert len(searches) == 1

    def test_raising_stage_is_kept(self, grid3, basis3, monkeypatch):
        # a use that raised keeps its exception: every later use raises
        # it again, with the message a separate normalization would give,
        # and the barycenter runs once
        calls = []

        def fails(*args):
            calls.append(1)
            raise RuntimeError("forced barycenter failure")

        monkeypatch.setattr(dm, "barycenter", fails)
        shared = nz.SampledGraph(self.sampled(basis3), grid3)
        for con in self.CONSTRAINTS:
            with pytest.raises(RuntimeError, match="forced barycenter"):
                nz.normalize(shared, grid3, con)
        for stage in ("barycenter", "fields", "coarse_Phi", "asymmetry"):
            with pytest.raises(RuntimeError, match="forced barycenter"):
                getattr(shared, stage)
        assert len(calls) == 1
        # the geometries do not depend on the barycenter
        assert shared.geometry.graph is shared.graph

    @pytest.mark.parametrize("K", ALL_K)
    def test_coarse_geometry_serves_every_matched_graph(self, K, grid3,
                                                        basis3, monkeypatch):
        # the coarse geometry and the weight's argument on it are built
        # once; their integrals are those of a fresh coarse geometry read
        # about the barycenter, bit for bit, and those of the surface
        # moved to put the barycenter at O to its coarse quadrature error
        shared = nz.SampledGraph(self.sampled(basis3, K), grid3)
        coarse = shared.coarse_geometry.grid
        assert coarse is sb.build_grid(3, 10)
        geometries = self.counting(monkeypatch, gg, "surface_geometry")
        assert shared.coarse_geometry is shared.coarse_geometry
        assert shared.coarse_Phi is shared.coarse_Phi
        own = gg.surface_geometry(shared.graph, coarse)
        moved = gg.surface_geometry(oracles.translated_graph(
            shared.graph, grid3, shared.barycenter)[0], coarse)
        pairs = ((shared.coarse_geometry, shared.coarse_Phi),
                 (own, nz.weight_argument(own, shared.barycenter)),
                 (moved, moved.Phi))
        w = WeightFunction.affine()
        for k, positive_part in ((0, False), (1, False), (1, True),
                                 (2, False), (3, False)):
            lhs_shared, lhs_own, lhs_moved = (
                gg.weighted_curvature_integral(
                    geo, Phi, w, k, positive_part=positive_part)
                for geo, Phi in pairs)
            assert lhs_shared == lhs_own
            assert lhs_shared == pytest.approx(lhs_moved, rel=1e-6)
        # the row grid's geometry once, then the fresh and the moved ones
        assert len(geometries) == 3

    def test_other_grid_is_refused(self, grid3, basis3):
        shared = nz.SampledGraph(self.sampled(basis3), grid3)
        assert nz.sampled_graph(shared, grid3) is shared
        with pytest.raises(ValueError, match="another grid"):
            nz.normalize(shared, sb.build_grid(3, 16),
                         nz.volume_constraint())
