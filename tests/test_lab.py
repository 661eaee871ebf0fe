"""Tests for the inequality laboratory: coefficient blocks, equality
functions, stability constants, verify, expansion fits and sweeps."""

import json

import numpy as np
import pytest

import oracles
from sfi import domains as dm
from sfi import graphgeom as gg
from sfi import lab
from sfi import normalize as nz
from sfi import spherebasis as sb
from sfi import symfunc as sy
from sfi.spaceform import SpaceForm, WeightFunction

ALL_K = [-1, 0, 1]
RHO = {-1: 0.9, 0: 1.0, 1: 0.8}


@pytest.fixture(scope="module")
def basis3():
    return sb.build_basis(3, 8)


@pytest.fixture(scope="module")
def grid3():
    return sb.build_grid(3, sb.default_resolution(8))


@pytest.fixture(scope="module")
def grid_exact():
    # Wide enough for exact quadrature of every Hessian-identity
    # integrand on band-4 directions.
    return sb.build_grid(3, 44)


def weight_set():
    return [WeightFunction.constant(1.0), WeightFunction.power(1.0),
            WeightFunction.affine(), WeightFunction.shifted_power(2.0)]


def pure_degree_direction(basis, degree, seed):
    rng = np.random.default_rng(seed)
    c = np.zeros(basis.size)
    idx = basis.degree_block(degree)
    c[idx] = rng.standard_normal(len(idx))
    return sb.from_coeffs(basis, c / np.linalg.norm(c))


class TestCaseValidation:
    def test_unknown_theorem(self):
        sf = SpaceForm(K=-1, n=3)
        with pytest.raises(ValueError, match="unknown theorem"):
            lab.TheoremCase("no-such-comparison", sf, WeightFunction.affine())

    def test_wrong_space_form(self):
        with pytest.raises(ValueError, match="requires K"):
            lab.TheoremCase("H-weighted-volume", SpaceForm(K=0, n=3),
                            WeightFunction.affine())
        with pytest.raises(ValueError, match="requires K"):
            lab.TheoremCase("sigmak-quermass-euclidean", SpaceForm(K=-1, n=3),
                            WeightFunction.affine(), k=1, j=0)

    def test_dimension_floor(self):
        with pytest.raises(ValueError, match="n >= 3"):
            lab.TheoremCase("H-volume", SpaceForm(K=0, n=2),
                            WeightFunction.affine())

    def test_mean_curvature_forces_k1(self):
        with pytest.raises(ValueError, match="k must be 1"):
            lab.TheoremCase("H-volume", SpaceForm(K=0, n=3),
                            WeightFunction.affine(), k=2)

    def test_index_ranges(self):
        sf = SpaceForm(K=-1, n=3)
        w = WeightFunction.affine()
        with pytest.raises(ValueError, match="0 <= k <= 2"):
            lab.TheoremCase("sigmak-quermass-hyperbolic", sf, w, k=3, j=0)
        # the validity-only family admits k = n
        lab.TheoremCase("sigmak-quermass-hyperbolic-validity", sf, w,
                        k=3, j=0)
        with pytest.raises(ValueError, match="-1 <= j < k"):
            lab.TheoremCase("sigmak-quermass-hyperbolic", sf, w, k=1, j=1)
        with pytest.raises(ValueError, match="integer constraint index"):
            lab.TheoremCase("sigmak-quermass-hyperbolic", sf, w, k=1)
        with pytest.raises(ValueError, match="no constraint index"):
            lab.TheoremCase("sigmak-weighted-volume", sf, w, k=1, j=0)

    def test_eta_and_rho_ranges(self):
        sf = SpaceForm(K=-1, n=3)
        w = WeightFunction.affine()
        with pytest.raises(ValueError, match="eta_frac"):
            lab.TheoremCase("sigmak-quermass-hyperbolic", sf, w, k=1, j=0,
                            eta_frac=1.0)
        with pytest.raises(ValueError, match="rho"):
            lab.TheoremCase("sigmak-quermass-hyperbolic", sf, w, k=1, j=0,
                            rho=-0.5)

    def test_registry_kinds(self):
        kinds = {tid: fam.kind for tid, fam in lab.THEOREMS.items()}
        assert set(kinds.values()) == {"validity", "stability"}
        assert kinds["sigmak-quermass-euclidean"] == "stability"
        assert kinds["H-volume"] == "validity"


class TestExpansionBlocks:
    def test_mean_curvature_blocks_match_sigma1(self):
        # two independent arrangements of the same second-order data
        for K in ALL_K:
            sf = SpaceForm(K=K, n=3)
            for w in weight_set():
                a = oracles.H_expansion_blocks(sf, w, RHO[K])
                b = lab.sigma_expansion_blocks(sf, w, 1, RHO[K])
                for f in ("c0", "cu", "cuu", "cgrad"):
                    x, y = getattr(a, f), getattr(b, f)
                    assert x == pytest.approx(y, rel=1e-12, abs=1e-12), \
                        (K, w.label, f)

    def test_constant_block_matches_sphere_integral(self):
        for K in ALL_K:
            sf = SpaceForm(K=K, n=3)
            for k in range(4):
                blocks = lab.sigma_expansion_blocks(
                    sf, WeightFunction.affine(), k, RHO[K])
                want = gg.sphere_curvature_integral(
                    sf, RHO[K], WeightFunction.affine(), k)
                assert blocks.c0 * sf.sphere_area == pytest.approx(
                    want, rel=1e-12)

    @pytest.mark.parametrize("K", ALL_K)
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_fitted_coefficients_match_closed_forms(self, K, k, basis3,
                                                    grid3):
        sf = SpaceForm(K=K, n=3)
        w = WeightFunction.affine()
        eps = np.geomspace(2e-3, 2e-2, 6)
        for stream in range(2):
            u0 = lab.sample_direction(basis3, 42, stream,
                                      degrees=(0, 1, 2, 3, 4))
            rep = lab.expansion_oracle(sf, w, k, "volume", u0, eps, grid3,
                                       rho=RHO[K])
            assert rep.max_rel_error < 1e-4, (K, k, rep.rel_errors)
            assert rep.residual_slope >= 2.9
            assert rep.condition_number < 1e3

    def test_mean_curvature_fit(self, basis3, grid3):
        # the k = 1 blocks are the mean-curvature blocks
        sf = SpaceForm(K=-1, n=3)
        u0 = lab.sample_direction(basis3, 9, 0, degrees=(0, 2, 3))
        eps = np.geomspace(2e-3, 2e-2, 6)
        rep = lab.expansion_oracle(sf, WeightFunction.shifted_power(2.0), 1,
                                   "volume", u0, eps, grid3, rho=0.9)
        assert rep.max_rel_error < 1e-4
        assert rep.target_id == "sigma1"

    def test_oracle_input_validation(self, basis3, grid3):
        sf = SpaceForm(K=0, n=3)
        w = WeightFunction.affine()
        u0 = lab.sample_direction(basis3, 1, 0)
        with pytest.raises(ValueError, match="at least 6"):
            lab.expansion_oracle(sf, w, 1, "volume", u0, [1e-3] * 5, grid3)
        with pytest.raises(ValueError, match="amplitudes must lie"):
            lab.expansion_oracle(sf, w, 1, "volume", u0,
                                 [3e-1, 1e-2, 1e-2, 1e-2, 1e-2, 1e-2], grid3)
        with pytest.raises(ValueError, match="unit L2"):
            lab.expansion_oracle(sf, w, 1, "volume", u0.scaled(2.0),
                                 np.geomspace(2e-3, 2e-2, 6), grid3)
        # six values but five distinct amplitudes
        with pytest.raises(ValueError, match="6 distinct"):
            lab.expansion_oracle(sf, w, 1, "volume", u0,
                                 [2e-3, 3e-3, 5e-3, 8e-3, 1e-2, 1e-2], grid3)
        with pytest.raises(ValueError, match="amplitudes must lie"):
            lab.expansion_oracle(sf, w, 1, "volume", u0,
                                 [np.nan, 2e-3, 3e-3, 5e-3, 8e-3, 1e-2],
                                 grid3)

    def test_fit_equals_per_amplitude_fit(self, basis3, grid3, monkeypatch):
        # the node-blocked kernel against one full-grid geometry per
        # amplitude: every field of the report to the last bit
        u0 = lab.sample_direction(basis3, 9, 0, degrees=(0, 2, 3))
        args = (SpaceForm(K=-1, n=3), WeightFunction.shifted_power(2.0), 1,
                "volume", u0, np.geomspace(2e-3, 2e-2, 6), grid3)
        got = lab.expansion_oracle(*args, rho=0.9)
        monkeypatch.setattr(gg, "scaled_curvature_integrals",
                            oracles.scaled_curvature_integrals)
        assert got == lab.expansion_oracle(*args, rho=0.9)

    def test_max_rel_error_propagates_nan(self):
        rep = lab.ExpansionReport(
            target_id="sigma1", weight_kind="1+s", K=0, n=3, rho=1.0,
            constraint="volume", eps=(), fitted=(1.0, np.nan, np.nan),
            closed=(1.0, 0.0, 1.0), rel_errors=(3e-6, np.nan, np.nan),
            residual_slope=3.0, condition_number=10.0)
        assert np.isnan(rep.max_rel_error)
        assert not rep.max_rel_error < 1e-4

    def test_non_finite_integral_raises(self, basis3, grid3):
        # finite on the sphere, so F(0) and the closed blocks are finite,
        # but NaN wherever Phi exceeds its value there: every F(+-eps)
        sf, rho = SpaceForm(K=0, n=3), 1.0
        affine = WeightFunction.affine()
        top = float(sf.warp(rho)[2])
        w = WeightFunction("affine", lambda s: np.where(s > top, np.nan,
                                                        1.0 + s),
                           affine.d1, affine.d2, label="1+s")
        u0 = lab.sample_direction(basis3, 42, 0, degrees=(0, 1, 2, 3, 4))
        with pytest.raises(ValueError, match="non-finite"):
            lab.expansion_oracle(sf, w, 1, "volume", u0,
                                 np.geomspace(2e-3, 2e-2, 6), grid3, rho=rho)


class TestHessianIdentities:
    # (identity, degree m, exact on the 3-sphere)
    CASES = [(1, 1, True), (1, 2, False), (2, 2, True), (2, 3, True),
             (4, 1, True), (4, 2, False), (4, 3, False), (5, 1, False),
             (5, 2, False), (5, 3, False)]

    @pytest.mark.parametrize("which,m,exact", CASES)
    def test_residual_order(self, which, m, exact, basis3, grid_exact):
        u0 = lab.sample_direction(basis3, 5, 1, degrees=(2, 3, 4))
        eps = np.geomspace(3e-3, 3e-2, 7)
        res, ref = [], 1.0
        for e in eps:
            lhs, rhs = oracles.hessian_identity(which, u0.scaled(e),
                                                grid_exact, m)
            res.append(abs(lhs - rhs))
            ref = max(ref, abs(lhs), abs(rhs))
        res = np.array(res)
        floor = 1e-12 * ref
        keep = res > floor
        if exact:
            assert not np.any(keep), (which, m, res)
        else:
            assert np.count_nonzero(keep) >= 3
            slope = np.polyfit(np.log(eps[keep]), np.log(res[keep]), 1)[0]
            assert slope >= 2.9, (which, m, slope)

    def test_invariants_match_matrix_recursion(self, basis3, grid3,
                                               monkeypatch):
        # the one-pass invariants against every Newton tensor formed and
        # symmetrized, through the same identity code
        u = lab.sample_direction(basis3, 5, 1, degrees=(2, 3, 4)).scaled(0.03)
        got = [oracles.hessian_identity(which, u, grid3, m)
               for which, m, _ in self.CASES]

        def matrix_route(u, grid):
            vals, du, d2u = sb.eval_jet_all(u, grid)
            return gg.Jet(vals, du, d2u, oracles.sigma_all_batch(d2u),
                          oracles.newton_quadratics_batch(d2u, du))

        monkeypatch.setattr(gg.Jet, "of", staticmethod(matrix_route))
        for (which, m, _), pair in zip(self.CASES, got):
            want = oracles.hessian_identity(which, u, grid3, m)
            for a, b in zip(pair, want):
                assert abs(a - b) <= 1e-13 * max(1.0, abs(b)), (which, m)

    def test_trace_integral_vanishes_exactly(self, basis3, grid_exact):
        for stream in range(3):
            u0 = lab.sample_direction(basis3, 12, stream, degrees=(2, 3, 4))
            lhs, rhs = oracles.hessian_identity(3, u0.scaled(0.05),
                                                grid_exact)
            assert rhs == 0.0
            assert abs(lhs) < 1e-10

    def test_rejects_bad_arguments(self, basis3, grid_exact):
        u0 = lab.sample_direction(basis3, 1, 0)
        with pytest.raises(ValueError, match="identity 1"):
            oracles.hessian_identity(1, u0, grid_exact, 3)
        with pytest.raises(ValueError, match="identity 2"):
            oracles.hessian_identity(2, u0, grid_exact, 1)
        with pytest.raises(ValueError, match="unknown identity"):
            oracles.hessian_identity(7, u0, grid_exact, 1)


class TestEqualityFunction:
    def test_dual_route_agreement(self):
        # root-finding route against the printed closed form
        sf = SpaceForm(K=-1, n=3)
        con = nz.weighted_volume_constraint()
        rng = np.random.default_rng(17)
        for _ in range(50):
            rho = rng.uniform(0.15, 1.4)
            k = int(rng.integers(1, 4))
            w = weight_set()[int(rng.integers(0, 4))]
            val = con.of_ball(sf, rho)
            a = lab.equality_function(sf, w, k, con, val)
            b = oracles.weighted_volume_rhs_closed_form(sf, w, k, val)
            assert a == pytest.approx(b, rel=1e-10), (rho, k, w.label)

    def test_euclidean_area_power_law(self):
        # for K = 0, g = 1 the equality value is the classical
        # area-power form comb(n,k) omega (A/omega)^((n-k)/n)
        sf = SpaceForm(K=0, n=3)
        con = nz.quermass_constraint(0)
        one = WeightFunction.constant(1.0)
        omega = sf.sphere_area
        for rho in (0.5, 1.0, 1.7):
            area = con.of_ball(sf, rho)
            for k in range(4):
                got = lab.equality_function(sf, one, k, con, area)
                want = __import__("math").comb(3, k) * omega \
                    * (area / omega) ** ((3 - k) / 3)
                assert got == pytest.approx(want, rel=1e-12)

    def test_ball_radius_round_trip(self):
        # W_n is excluded: it takes the same value on every ball, so it
        # fixes no radius.
        constraints = [nz.volume_constraint(), nz.weighted_volume_constraint()]
        constraints += [nz.quermass_constraint(j) for j in range(3)]
        for K in ALL_K:
            sf = SpaceForm(K=K, n=3)
            for con in constraints:
                val = con.of_ball(sf, 0.85)
                for start in (0.05, 1.0, 3.0):
                    r = con.ball_radius(sf, val, start=start)
                    assert r == pytest.approx(0.85, rel=1e-12)

    def test_value_out_of_range(self, basis3, grid3):
        sf = SpaceForm(K=1, n=3)
        con = nz.volume_constraint()
        too_big = con.of_ball(sf, 3.14159) * 10
        with pytest.raises(ValueError, match="above the attainable"):
            lab.equality_function(sf, WeightFunction.affine(), 1, con,
                                  too_big)
        with pytest.raises(ValueError, match="below the attainable"):
            lab.equality_function(sf, WeightFunction.affine(), 1, con, -1.0)
        graph = gg.RadialGraph(sf=sf, rho=0.8, u=sb.zero_function(basis3))
        with pytest.raises(ValueError, match="above the attainable"):
            nz.match_radius(graph, con, too_big)
        with pytest.raises(ValueError, match="below the attainable"):
            nz.match_radius(graph, con, -1.0)

    def test_closed_form_guards(self):
        sf0 = SpaceForm(K=0, n=3)
        with pytest.raises(ValueError, match="K = -1"):
            oracles.weighted_volume_rhs_closed_form(
                sf0, WeightFunction.affine(), 1, 1.0)
        sfh = SpaceForm(K=-1, n=3)
        with pytest.raises(ValueError, match="k = 0"):
            oracles.weighted_volume_rhs_closed_form(
                sfh, WeightFunction.affine(), 0, 1.0)


class TestStabilityConstants:
    def test_euclidean_reference_value(self):
        # independent double evaluation: n=3, k=1, j=-1, rho=1, g=1
        # gives comb(3,1)*3*2*2/(4*omega_3) with omega_3 = 2 pi^2
        sf = SpaceForm(K=0, n=3)
        case = lab.TheoremCase("sigmak-quermass-euclidean", sf,
                               WeightFunction.constant(1.0), k=1, j=-1,
                               rho=1.0)
        assert lab.stability_constant(case) == pytest.approx(
            9.0 / (2.0 * np.pi ** 2), rel=1e-14)

    def test_matches_gradient_bound_through_asymmetry(self):
        # the constant must equal the gradient-energy bound divided by
        # the asymmetry bound coefficient; this is how it is derived
        for K, tid in ((-1, "sigmak-quermass-hyperbolic"),
                       (0, "sigmak-quermass-euclidean")):
            sf = SpaceForm(K=K, n=3)
            kmax = 2 if K == -1 else 3
            for w in weight_set():
                for k in range(kmax + 1):
                    for j in range(-1, k):
                        case = lab.TheoremCase(tid, sf, w, k=k, j=j,
                                               rho=RHO[K])
                        C = lab.stability_constant(case)
                        b = lab.quermass_gradient_bound(sf, w, k, j, RHO[K])
                        ratio = oracles.asymmetry_upper_bound(
                            sf, RHO[K], 1.0) / RHO[K] ** 2
                        assert C == pytest.approx(b / ratio, rel=1e-12), \
                            (K, w.label, k, j)

    def test_positive_for_admissible_weights(self):
        sf = SpaceForm(K=-1, n=3)
        for w in (WeightFunction.power(1.0), WeightFunction.affine()):
            for k in range(3):
                for j in range(-1, k):
                    case = lab.TheoremCase("sigmak-quermass-hyperbolic",
                                           sf, w, k=k, j=j, rho=0.9)
                    assert lab.stability_constant(case) > 0

    def test_validity_comparison_has_no_constant(self):
        sf = SpaceForm(K=-1, n=3)
        case = lab.TheoremCase("sigmak-weighted-volume", sf,
                               WeightFunction.affine(), k=1)
        with pytest.raises(ValueError, match="no stability constant"):
            lab.stability_constant(case)


class TestDeficitCoefficients:
    WEIGHTS = [WeightFunction.constant(1.0), WeightFunction.constant(2.5),
               WeightFunction.power(1.0), WeightFunction.power(2.0),
               WeightFunction.affine(), WeightFunction.shifted_power(2.0),
               WeightFunction.shifted_power(3.0)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("K", ALL_K)
    def test_matches_hand_expanded_forms(self, n, K):
        # the composition of the integral's and the constraint's blocks
        # against the forms expanded by hand, for every constraint
        sf = SpaceForm(K=K, n=n)
        wvol = oracles.sigma_weighted_volume_deficit_coefficients
        for rho in (0.3, RHO[K], 1.4):
            assert sf.dphi(rho) > 0
            for w in self.WEIGHTS:
                for k in range(n + 1):
                    refs = [(nz.weighted_volume_constraint(),
                             wvol(sf, w, k, rho))]
                    refs += [(nz.quermass_constraint(j),
                              oracles.quermass_deficit_coefficients(
                                  sf, w, k, j, rho)) for j in range(-1, k)]
                    if k == 1:
                        refs.append((nz.volume_constraint(),
                                     oracles.h_volume_deficit_coefficients(
                                         sf, w, rho)))
                    F = lab.sigma_expansion_blocks(sf, w, k, rho)
                    for con, ref in refs:
                        C = lab.constraint_blocks(sf, con, rho)
                        r = F.cu / C.cu
                        scale = max(1.0, abs(F.cuu), abs(F.cgrad),
                                    abs(r * C.cuu), abs(r * C.cgrad))
                        got = lab.deficit_coefficients(sf, w, k, con, rho)
                        for x, y in zip(got, ref):
                            assert abs(x - y) <= 1e-12 * scale, \
                                (rho, w.label, k, con.label)

    def test_constraint_blocks_expand_the_ball_functionals(self):
        # c0 |S^n| is the ball's value, and cu |S^n| its derivative in
        # the radius (u constant)
        for K in ALL_K:
            sf = SpaceForm(K=K, n=3)
            rho, h = RHO[K], 1e-6
            for con in (nz.weighted_volume_constraint(),
                        *(nz.quermass_constraint(j) for j in range(-1, 3))):
                C = lab.constraint_blocks(sf, con, rho)
                assert C.c0 * sf.sphere_area == pytest.approx(
                    con.of_ball(sf, rho), rel=1e-12)
                slope = (con.of_ball(sf, rho + h)
                         - con.of_ball(sf, rho - h)) / (2 * h)
                assert C.cu * sf.sphere_area == pytest.approx(slope,
                                                              rel=1e-8)

    def test_degenerate_inputs_raise(self):
        w = WeightFunction.affine()
        with pytest.raises(ValueError, match="phi'"):
            lab.deficit_coefficients(SpaceForm(K=1, n=3), w, 1,
                                     nz.volume_constraint(), 2.0)
        # W_n takes one value on every Euclidean ball
        with pytest.raises(ValueError, match="no first variation"):
            lab.deficit_coefficients(SpaceForm(K=0, n=3),
                                     WeightFunction.constant(1.0), 3,
                                     nz.quermass_constraint(3), 1.0)


class TestDeficitPredictions:
    def test_volume_constrained_deficit_matches_quadratic_form(self, basis3,
                                                               grid3):
        # measured deficit of a normalized graph against the exact
        # second-order coefficients
        sf = SpaceForm(K=-1, n=3)
        w = WeightFunction.affine()
        rho, eps = 0.9, 0.004
        con = nz.volume_constraint()
        u0 = lab.sample_direction(basis3, 23, 0, degrees=(2, 3))
        g0 = gg.RadialGraph(sf=sf, rho=rho, u=u0.scaled(eps))
        ng = nz.normalize(g0, grid3, con)
        geo = ng.geometry
        lhs = gg.weighted_curvature_integral(geo, w, 1, positive_part=True)
        rhs = lab.equality_function(sf, w, 1, con, con.of_geometry(geo))
        vals, grad, _ = sb.eval_jet_all(ng.graph.u, grid3)
        i2 = grid3.integrate(vals ** 2)
        ig = grid3.integrate(np.sum(grad ** 2, axis=1))
        cu2, cg2 = lab.deficit_coefficients(sf, w, 1, ng.constraint, ng.rho)
        predicted = ng.rho ** 2 * (cu2 * i2 + cg2 * ig)
        assert lhs - rhs == pytest.approx(predicted, rel=0.05)

    def test_weighted_volume_deficit_and_gradient_bound(self, basis3, grid3):
        sf = SpaceForm(K=-1, n=3)
        w = WeightFunction.affine()
        rho, eps, k = 0.9, 0.004, 2
        con = nz.weighted_volume_constraint()
        u0 = lab.sample_direction(basis3, 29, 1, degrees=(2, 3, 4))
        g0 = gg.RadialGraph(sf=sf, rho=rho, u=u0.scaled(eps))
        ng = nz.normalize(g0, grid3, con)
        geo = ng.geometry
        lhs = gg.weighted_curvature_integral(geo, w, k)
        rhs = lab.equality_function(sf, w, k, con, con.of_geometry(geo))
        deficit = lhs - rhs
        vals, grad, _ = sb.eval_jet_all(ng.graph.u, grid3)
        i2 = grid3.integrate(vals ** 2)
        ig = grid3.integrate(np.sum(grad ** 2, axis=1))
        cu2, cg2 = lab.deficit_coefficients(sf, w, k, ng.constraint,
                                            ng.rho)
        assert deficit == pytest.approx(ng.rho ** 2 * (cu2 * i2 + cg2 * ig),
                                        rel=0.05)
        bound = lab.sigma_weighted_volume_gradient_bound(sf, w, k, ng.rho)
        assert deficit >= bound * ng.rho ** 2 * ig * (1 - 0.05)
        assert deficit > 0

    def test_quermass_deficit_matches_quadratic_form(self, basis3, grid3):
        for K, tid in ((-1, "sigmak-quermass-hyperbolic"),
                       (0, "sigmak-quermass-euclidean")):
            sf = SpaceForm(K=K, n=3)
            w = WeightFunction.affine()
            k, j, eps = 2, 0, 0.004
            con = nz.quermass_constraint(j)
            u0 = lab.sample_direction(basis3, 31, 2, degrees=(2, 3, 4))
            g0 = gg.RadialGraph(sf=sf, rho=RHO[K], u=u0.scaled(eps))
            ng = nz.normalize(g0, grid3, con)
            lhs = gg.weighted_curvature_integral(ng.geometry, w, k)
            sphere = gg.sphere_curvature_integral(sf, ng.rho, w, k)
            vals, grad, _ = sb.eval_jet_all(ng.graph.u, grid3)
            i2 = grid3.integrate(vals ** 2)
            ig = grid3.integrate(np.sum(grad ** 2, axis=1))
            cu2, cg2 = lab.deficit_coefficients(sf, w, k, ng.constraint,
                                                ng.rho)
            assert lhs - sphere == pytest.approx(
                ng.rho ** 2 * (cu2 * i2 + cg2 * ig), rel=0.05), K

    def test_poincare_saturation(self, basis3, grid3):
        # pure degree-2 directions under the volume constraint: the
        # deficit / gradient-energy ratio converges to the exact limit,
        # which meets the simplified bound exactly for constant weights
        sf = SpaceForm(K=-1, n=3)
        con = nz.volume_constraint()
        u2 = pure_degree_direction(basis3, 2, 3)
        for w in (WeightFunction.constant(1.0), WeightFunction.affine()):
            limit = lab.poincare_saturation_limit(sf, w, 0.9)
            bound = lab.h_volume_gradient_bound(sf, w, 0.9)
            if w.label == "1":
                assert limit == pytest.approx(bound, rel=1e-12)
            else:
                assert limit > bound
            gaps = []
            for eps in (0.02, 0.01, 0.005):
                g0 = gg.RadialGraph(sf=sf, rho=0.9, u=u2.scaled(eps))
                ng = nz.normalize(g0, grid3, con)
                geo = ng.geometry
                lhs = gg.weighted_curvature_integral(geo, w, 1,
                                                     positive_part=True)
                rhs = lab.equality_function(sf, w, 1, con,
                                            con.of_geometry(geo))
                ratio = (lhs - rhs) / (ng.rho ** 2 * ng.norms.grad_l2 ** 2)
                gaps.append(abs(ratio - limit) / limit)
            assert gaps[-1] < 1e-3
            assert gaps[0] > gaps[-1]


class TestVerify:
    def test_round_ball_is_equality(self, basis3, grid3):
        for tid, K, kj in (("H-volume", 1, (1, None)),
                           ("sigmak-weighted-volume", -1, (2, None)),
                           ("sigmak-quermass-euclidean", 0, (2, 1))):
            sf = SpaceForm(K=K, n=3)
            case = lab.TheoremCase(tid, sf, WeightFunction.affine(),
                                   k=kj[0], j=kj[1], rho=RHO[K])
            g0 = gg.RadialGraph(sf=sf, rho=RHO[K],
                                u=sb.zero_function(basis3))
            rep = lab.verify(case, g0, grid3)
            assert rep.status == "pass"
            assert abs(rep.deficit) <= 10 * rep.err_quad + 1e-9
            assert rep.alpha < 1e-8

    @pytest.mark.parametrize("tid, K, k, j", [
        ("sigmak-weighted-volume", -1, 2, None),
        ("sigmak-quermass-hyperbolic-validity", -1, 2, 1),
        ("sigmak-quermass-hyperbolic", -1, 1, 0)])
    def test_constraint_measured_once_per_row(self, basis3, grid3,
                                              monkeypatch, tid, K, k, j):
        # normalize measures the constraint and verify reads that value
        calls = []
        of_geometry = nz.Constraint.of_geometry

        def counting(self, *args, **kwargs):
            calls.append(self.label)
            return of_geometry(self, *args, **kwargs)

        monkeypatch.setattr(nz.Constraint, "of_geometry", counting)
        sf = SpaceForm(K=K, n=3)
        case = lab.TheoremCase(tid, sf, WeightFunction.affine(), k=k, j=j,
                               rho=RHO[K])
        u0 = lab.sample_direction(basis3, 40, 0, degrees=(2, 3, 4))
        rep = lab.verify(case, gg.RadialGraph(sf=sf, rho=RHO[K],
                                              u=u0.scaled(0.004)), grid3)
        assert rep.status == "pass"
        assert calls == [case.constraint().label]

    def test_validity_row_strictly_positive(self, basis3, grid3):
        sf = SpaceForm(K=-1, n=3)
        case = lab.TheoremCase("sigmak-weighted-volume", sf,
                               WeightFunction.affine(), k=2, rho=0.9)
        u0 = lab.sample_direction(basis3, 40, 0, degrees=(2, 3, 4))
        g0 = gg.RadialGraph(sf=sf, rho=0.9, u=u0.scaled(0.004))
        rep = lab.verify(case, g0, grid3)
        assert rep.status == "pass"
        assert rep.deficit > 1e-7
        assert rep.C is None and rep.bound is None
        assert rep.norm_w2inf <= rep.budget

    def test_stability_row_meets_bound(self, basis3, grid3):
        sf = SpaceForm(K=0, n=3)
        case = lab.TheoremCase("sigmak-quermass-euclidean", sf,
                               WeightFunction.power(1.0), k=1, j=-1,
                               rho=1.0, eta_frac=0.1)
        u0 = lab.sample_direction(basis3, 41, 1, degrees=(2, 3, 4))
        g0 = gg.RadialGraph(sf=sf, rho=1.0, u=u0.scaled(0.005))
        rep = lab.verify(case, g0, grid3)
        assert rep.status == "pass"
        assert rep.eta == pytest.approx(0.1 * rep.C)
        assert rep.deficit >= rep.bound > 0
        assert rep.rhs == pytest.approx(
            gg.sphere_curvature_integral(sf, rep.rho,
                                         WeightFunction.power(1.0), 1)
            + rep.bound)

    def test_inadmissible_weight_is_flagged(self, basis3, grid3):
        # constant weights break the hyperbolic admissibility condition,
        # so those rows must be flagged, never failed
        sf = SpaceForm(K=-1, n=3)
        case = lab.TheoremCase("sigmak-quermass-hyperbolic", sf,
                               WeightFunction.constant(1.0), k=1, j=0,
                               rho=0.9)
        u0 = lab.sample_direction(basis3, 42, 2, degrees=(2, 3))
        g0 = gg.RadialGraph(sf=sf, rho=0.9, u=u0.scaled(0.004))
        rep = lab.verify(case, g0, grid3)
        assert rep.status == "hypothesis_unmet"
        assert "hyperbolic_admissible" in rep.notes

    def test_weight_scaling_linearity(self, basis3, grid3):
        sf = SpaceForm(K=0, n=3)
        w = WeightFunction.affine()
        case1 = lab.TheoremCase("sigmak-quermass-euclidean", sf, w, k=1,
                                j=-1, rho=1.0)
        case10 = lab.TheoremCase("sigmak-quermass-euclidean", sf,
                                 w.scaled(10.0), k=1, j=-1, rho=1.0)
        u0 = lab.sample_direction(basis3, 43, 0, degrees=(2, 3, 4))
        g0 = gg.RadialGraph(sf=sf, rho=1.0, u=u0.scaled(0.005))
        r1 = lab.verify(case1, g0, grid3)
        r10 = lab.verify(case10, g0, grid3)
        assert r10.deficit == pytest.approx(10 * r1.deficit, rel=1e-9)
        assert r10.C == pytest.approx(10 * r1.C, rel=1e-12)
        assert r10.bound == pytest.approx(10 * r1.bound, rel=1e-6)
        assert r10.alpha == pytest.approx(r1.alpha, rel=1e-6)

    def test_positive_part_matches_H_for_mean_convex(self, basis3, grid3):
        sf = SpaceForm(K=-1, n=3)
        w = WeightFunction.affine()
        u0 = lab.sample_direction(basis3, 44, 1, degrees=(2, 3, 4))
        graph = gg.RadialGraph(sf=sf, rho=0.9, u=u0.scaled(0.01))
        geo = gg.surface_geometry(graph, grid3)
        assert np.all(geo.H > 0)
        a = gg.weighted_curvature_integral(geo, w, 1, positive_part=True)
        b = gg.weighted_curvature_integral(geo, w, 1)
        assert a == b

    def test_asymmetry_within_gradient_energy_bound(self, basis3, grid3):
        sf = SpaceForm(K=-1, n=3)
        case = lab.TheoremCase("sigmak-quermass-hyperbolic", sf,
                               WeightFunction.affine(), k=1, j=0, rho=0.9)
        con = case.constraint()
        for stream in range(3):
            u0 = lab.sample_direction(basis3, 45, stream, degrees=(2, 3, 4))
            g0 = gg.RadialGraph(sf=sf, rho=0.9, u=u0.scaled(0.008))
            rep = lab.verify(case, g0, grid3)
            ng = nz.normalize(g0, grid3, con)
            cap = oracles.asymmetry_upper_bound(sf, ng.rho,
                                                ng.norms.grad_l2 ** 2)
            assert rep.alpha ** 2 <= cap * 1.1

    def test_asymmetry_center_improves_on_origin(self, basis3, grid3):
        # recentering moves the barycenter, not the optimal ball center,
        # to the origin: the center search must find a strictly better
        # ball a small but nonzero distance away
        sf = SpaceForm(K=-1, n=3)
        case = lab.TheoremCase("sigmak-quermass-hyperbolic", sf,
                               WeightFunction.affine(), k=1, j=0, rho=0.9)
        eps = 0.01
        g0 = gg.RadialGraph(sf=sf, rho=0.9,
                            u=lab.sample_direction(basis3, 5, 0).scaled(eps))
        rep = lab.verify(case, g0, grid3)
        geo = nz.normalize(g0, grid3, case.constraint()).geometry
        rho_bar = dm.radius_for_volume(sf, dm.volume(geo))
        at_origin = dm.symmetric_difference_to_ball(geo, np.zeros(4), rho_bar)
        alpha, center = dm.fraenkel_asymmetry(geo, np.zeros(4))
        assert rep.alpha <= at_origin
        assert alpha < at_origin
        assert 1e-3 * eps < np.linalg.norm(center) < 0.1 * eps

    def test_nan_coefficient_is_a_numerical_failure(self, basis3, grid3,
                                                    monkeypatch):
        # a NaN row raises ValueError before any iteration runs on it, and
        # a sweep records it as a failed row
        sf = SpaceForm(K=-1, n=3)
        case = lab.TheoremCase("sigmak-quermass-hyperbolic", sf,
                               WeightFunction.affine(), k=1, j=0, rho=0.9)
        coeffs = lab.sample_direction(basis3, 5, 0).coeffs.copy()
        coeffs[7] = np.nan
        u = sb.from_coeffs(basis3, coeffs)
        g0 = gg.RadialGraph(sf=sf, rho=0.9, u=u.scaled(0.01))
        with pytest.raises(ValueError, match="non-finite"):
            lab.verify(case, g0, grid3)
        with pytest.raises(ValueError, match="non-finite"):
            gg.surface_geometry(g0, grid3)
        monkeypatch.setattr(lab, "sample_direction",
                            lambda basis, seed, i, degrees: u)
        sw = lab.sweep(case, grid3, basis3, directions=1,
                       eps_schedule=(0.01,))
        assert sw.reports == ()
        assert [(d, e) for d, e, _ in sw.failures] == [("d000", 0.01)]
        assert "non-finite" in sw.failures[0][2]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_non_finite_top_coefficient_is_never_trimmed(self, n):
        # the kernels run through u's degree, that of its last coefficient
        # that is not exactly 0; NaN and inf count as nonzero, so a
        # non-finite degree-d_max coefficient over degree 2-3 content
        # reaches every value and verify raises before reporting a row
        sf = SpaceForm(K=-1, n=n)
        case = lab.TheoremCase("sigmak-quermass-hyperbolic", sf,
                               WeightFunction.affine(), k=1, j=0, rho=0.9)
        basis, grid = sb.build_basis(n, 4), sb.build_grid(n, 8)
        for bad in (np.nan, np.inf, -np.inf):
            coeffs = lab.sample_direction(basis, 5, 0, degrees=(2, 3)).coeffs
            coeffs[basis.degree_block(basis.d_max)[-1]] = bad
            u = sb.from_coeffs(basis, coeffs)
            assert u.degree == basis.d_max
            with np.errstate(invalid="ignore"):
                kernels = (sb.evaluate(u, grid.nodes),
                           sb.values_on_grid(u, grid),
                           *sb.eval_jet_all(u, grid))
            for vals in kernels:
                assert not np.isfinite(vals).any()
            g0 = gg.RadialGraph(sf=sf, rho=0.9, u=u.scaled(0.01))
            with pytest.raises(ValueError, match="non-finite values of u"):
                lab.verify(case, g0, grid)


class TestVerifyRows:
    CASES = [("sigmak-weighted-volume", 2, None), ("H-volume", 1, None),
             ("sigmak-quermass-hyperbolic", 1, 0),
             ("sigmak-quermass-hyperbolic-validity", 2, 1)]

    def test_rows_are_the_per_case_rows(self, basis3, grid3):
        sf = SpaceForm(K=-1, n=3)
        cases = [lab.TheoremCase(tid, sf, WeightFunction.affine(), k=k, j=j,
                                 rho=0.9) for tid, k, j in self.CASES]
        u0 = lab.sample_direction(basis3, 46, 0, degrees=(2, 3, 4))
        g0 = gg.RadialGraph(sf=sf, rho=0.9, u=u0.scaled(0.006))
        rows = lab.verify_rows(cases, g0, grid3, "d046", 0.006)
        assert rows == [lab.verify(case, g0, grid3, direction_id="d046",
                                   epsilon=0.006) for case in cases]
        assert [r.status for r in rows] == ["pass"] * len(cases)

    def test_sweep_runs_one_case_per_graph(self, basis3, grid3,
                                           monkeypatch):
        sf = SpaceForm(K=-1, n=3)
        case = lab.TheoremCase("sigmak-quermass-hyperbolic", sf,
                               WeightFunction.affine(), k=1, j=0, rho=0.9)
        calls = []
        verify_rows = lab.verify_rows

        def spy(cases, graph, grid, did, eps):
            calls.append((cases, did, eps))
            return verify_rows(cases, graph, grid, did, eps)

        monkeypatch.setattr(lab, "verify_rows", spy)
        sw = lab.sweep(case, grid3, basis3, directions=2,
                       eps_schedule=(0.003, 0.01), seed=11)
        assert calls == [([case], f"d00{i}", e) for i in (0, 1)
                         for e in (0.003, 0.01)]
        assert [(r.direction_id, r.epsilon) for r in sw.reports] \
            == [(did, e) for _, did, e in calls]


class TestNoBatchedEigensolves:
    # sigma_k comes from Newton's identities, so the only batch of
    # eigensolves left on the hot path is the Hessian norm's
    def test_expansion_fit_solves_nothing(self, basis3, grid3, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called in an expansion fit")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        sf = SpaceForm(K=-1, n=3)
        u0 = lab.sample_direction(basis3, 42, 0, degrees=(0, 1, 2, 3, 4))
        rep = lab.expansion_oracle(sf, WeightFunction.affine(), 2, "volume",
                                   u0, np.geomspace(2e-3, 2e-2, 6), grid3,
                                   rho=RHO[-1])
        assert rep.max_rel_error < 1e-4

    def test_expansion_fit_runs_one_recursion(self, basis3, grid3,
                                              monkeypatch):
        # the 13 amplitudes of a fit scale one set of Hessian invariants
        calls = []
        invariants = sy.hessian_invariants

        def counting(*args):
            calls.append(args[0].shape)
            return invariants(*args)

        monkeypatch.setattr(sy, "hessian_invariants", counting)
        u0 = lab.sample_direction(basis3, 42, 0, degrees=(0, 1, 2, 3, 4))
        lab.expansion_oracle(SpaceForm(K=0, n=3), WeightFunction.affine(), 2,
                             "volume", u0, np.geomspace(2e-3, 2e-2, 6), grid3)
        assert calls == [(grid3.node_count, 3, 3)]

    def test_verify_row_solves_only_the_hessian_norm(self, basis3, grid3,
                                                     monkeypatch):
        # stacks only: a cached Gauss rule's first build solves one
        # matrix (np.polynomial.legendre.leggauss), whatever ran before
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            a = np.asarray(a)
            if a.ndim == 3:
                solved.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        sf = SpaceForm(K=-1, n=3)
        case = lab.TheoremCase("sigmak-quermass-hyperbolic", sf,
                               WeightFunction.affine(), k=1, j=0, rho=0.9)
        g0 = gg.RadialGraph(sf=sf, rho=0.9,
                            u=lab.sample_direction(basis3, 5, 0).scaled(0.01))
        rep = lab.verify(case, g0, grid3)
        assert rep.status == "pass"
        # one stack, pruned to the nodes that can hold the Hessian norm
        assert len(solved) == 1
        assert 0 < solved[0] < grid3.node_count


class TestSweep:
    def test_empirical_constant_and_statuses(self, basis3, grid3):
        sf = SpaceForm(K=-1, n=3)
        case = lab.TheoremCase("sigmak-quermass-hyperbolic", sf,
                               WeightFunction.affine(), k=1, j=0, rho=0.9)
        sw = lab.sweep(case, grid3, basis3, directions=6, seed=11)
        assert len(sw.reports) == 12
        assert not sw.failures
        assert all(r.status == "pass" for r in sw.reports)
        C = lab.stability_constant(case)
        assert sw.empirical_constant >= 0.75 * C

    def test_inadmissible_weight_rows_excluded(self, basis3, grid3):
        sf = SpaceForm(K=-1, n=3)
        case = lab.TheoremCase("sigmak-quermass-hyperbolic", sf,
                               WeightFunction.constant(1.0), k=1, j=0,
                               rho=0.9)
        sw = lab.sweep(case, grid3, basis3, directions=2, seed=11)
        assert all(r.status == "hypothesis_unmet" for r in sw.reports)
        assert sw.empirical_constant is None

    def test_row_failures_recorded_and_sweep_continues(self, basis3, grid3):
        # degree-1 content at large amplitude exceeds the out-of-band
        # budget during recentering; the sweep records it and moves on
        sf = SpaceForm(K=-1, n=3)
        case = lab.TheoremCase("sigmak-quermass-hyperbolic", sf,
                               WeightFunction.affine(), k=1, j=0, rho=0.9)
        sw = lab.sweep(case, grid3, basis3, directions=2,
                       eps_schedule=(0.05,), seed=3, degrees=(1, 8))
        assert sw.failures
        assert all("out-of-band" in msg for _, _, msg in sw.failures)
        assert len(sw.reports) + len(sw.failures) == 2

    def test_deterministic_serialization(self, basis3, grid3):
        sf = SpaceForm(K=0, n=3)
        case = lab.TheoremCase("sigmak-quermass-euclidean", sf,
                               WeightFunction.affine(), k=1, j=0, rho=1.0)
        a = lab.csv_text(lab.sweep(case, grid3, basis3, directions=3,
                                   seed=5).reports)
        b = lab.csv_text(lab.sweep(case, grid3, basis3, directions=3,
                                   seed=5).reports)
        assert a == b
        c = lab.csv_text(lab.sweep(case, grid3, basis3, directions=3,
                                   seed=6).reports)
        assert a != c


class TestSamplers:
    def test_streams_reproducible_and_independent(self, basis3):
        a = lab.sample_direction(basis3, 7, 0)
        b = lab.sample_direction(basis3, 7, 0)
        c = lab.sample_direction(basis3, 7, 1)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_degree_support_and_norm(self, basis3):
        u = lab.sample_direction(basis3, 7, 0, degrees=(2, 4))
        energies = oracles.degree_energies(u)
        assert oracles.coeff_norm(u) == pytest.approx(1.0)
        for d, e in enumerate(energies):
            if d in (2, 4):
                assert e > 0
            else:
                assert e == 0

    def test_rejects_empty_degrees(self, basis3):
        with pytest.raises(ValueError, match="no elements of degree"):
            lab.sample_direction(basis3, 7, 0, degrees=(9,))


class TestSerialization:
    @staticmethod
    def _reports():
        return [
            lab.DeficitReport(
                theorem="sigmak-weighted-volume", K=-1, n=3, k=2, j=None,
                weight_kind="1+s", rho=0.9, epsilon=0.01, direction_id="d000",
                lhs=1.25, rhs=1.0, deficit=0.25, alpha=0.01, C=None,
                eta=None, bound=None, status="pass", err_quad=1e-12,
                norm_c1=0.01, norm_w2inf=0.02, grad_l2=0.2, budget=0.05),
            lab.DeficitReport(
                theorem="sigmak-quermass-euclidean", K=0, n=3, k=1, j=-1,
                weight_kind="s^1", rho=1.0, epsilon=None, direction_id="",
                lhs=2.0, rhs=1.5, deficit=0.5, alpha=0.1, C=0.456,
                eta=0.114, bound=0.00342, status="hypothesis_unmet",
                err_quad=1e-11, norm_c1=0.03, norm_w2inf=0.06, grad_l2=0.5,
                budget=0.05),
        ]

    def test_csv_layout(self):
        text = lab.csv_text(self._reports())
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(lab.CSV_COLUMNS)
        row0 = lines[1].split(",")
        assert row0[lab.CSV_COLUMNS.index("theorem")] \
            == "sigmak-weighted-volume"
        assert row0[lab.CSV_COLUMNS.index("j")] == ""
        assert row0[lab.CSV_COLUMNS.index("C")] == ""
        assert row0[lab.CSV_COLUMNS.index("lhs")] == "1.25"
        row1 = lines[2].split(",")
        assert row1[lab.CSV_COLUMNS.index("pass")] == "hypothesis_unmet"
        assert row1[lab.CSV_COLUMNS.index("j")] == "-1"

    def test_float_cells_full_precision(self):
        rep = self._reports()[0]
        rep = lab.DeficitReport(**{**rep.__dict__, "lhs": 1 / 3})
        text = lab.csv_text([rep])
        assert "0.33333333333333331" in text

    def test_json_mirror(self, tmp_path):
        reports = self._reports()
        doc = json.loads(lab.report_text(reports, "json"))
        assert doc["budget_c1"] == lab.C1_BUDGET
        assert doc["budget_w2inf"] == lab.W2INF_BUDGET
        assert len(doc["rows"]) == 2
        assert list(doc["rows"][0]) == list(lab.CSV_COLUMNS)
        assert doc["rows"][0]["j"] is None
        assert doc["rows"][1]["j"] == -1
        assert doc["rows"][1]["pass"] == "hypothesis_unmet"
        out = tmp_path / "rows.json"
        oracles.write_report(reports, out, fmt="json")
        assert json.loads(out.read_text()) == doc

    def test_cell_format_follows_the_cell_type(self):
        row = {"none": None, "flag": True, "count": 3,
               "index": np.int64(-1), "value": np.float64(1 / 3),
               "big": np.inf, "name": "d000"}
        lines = lab.table_text([row], "csv").split("\n")
        assert lines[0] == "none,flag,count,index,value,big,name"
        assert lines[1] == ",true,3,-1,0.33333333333333331,inf,d000"
        text = lab.table_text([row], "json")
        assert json.loads(text) == [{**row, "value": 1 / 3}]
        assert '"index": -1,' in text
        assert json.loads(lab.table_text(row, "json")) \
            == json.loads(text)[0]

    def test_write_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            oracles.write_report(self._reports(), tmp_path / "x.xml",
                                 fmt="xml")
