import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import geofermat.connect as connect_mod
from geofermat import (ConnectOptions, DegenerateTreeError, SolveError,
                       SurfacePoint, WeightDomainError, WeightTriple,
                       connect_geodesic, floating_test, load_scenario,
                       make_surface, measure_sector_angles,
                       sector_angles_from_weights, sector_partition, shoot,
                       solve_fermat, weights_from_sector_angles)
import geofermat.fermat as fermat_mod
from geofermat.clairaut import triangle_cosine

TWO_PI = 2.0 * math.pi


def equilateral_plane_points(cx=2.0, cy=0.0, side=1.0):
    r = side / math.sqrt(3.0)
    pts = []
    for ang in (math.pi / 2, math.pi / 2 + TWO_PI / 3,
                math.pi / 2 + 2 * TWO_PI / 3):
        x, y = cx + r * math.cos(ang), cy + r * math.sin(ang)
        pts.append(SurfacePoint(math.hypot(x, y), math.atan2(y, x)))
    return pts


weights_strategy = st.tuples(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.1, max_value=5.0),
)


class TestSectorAngles:
    def test_equal_weights(self):
        angles = sector_angles_from_weights((1, 1, 1))
        assert angles == pytest.approx((TWO_PI / 3,) * 3)

    def test_3_4_5(self):
        phi_12, phi_23, phi_31 = sector_angles_from_weights((3, 4, 5))
        assert phi_12 == pytest.approx(math.pi / 2, abs=1e-15)
        assert phi_23 == pytest.approx(math.acos(-0.8), abs=1e-15)
        assert phi_31 == pytest.approx(math.acos(-0.6), abs=1e-15)
        assert phi_12 + phi_23 + phi_31 == pytest.approx(TWO_PI, abs=1e-12)

    def test_dominant_weight_rejected(self):
        with pytest.raises(WeightDomainError) as err:
            sector_angles_from_weights((1, 1, 3))
        assert "b3" in str(err.value)

    @given(weights_strategy)
    @settings(max_examples=200)
    def test_cosine_duality(self, b):
        w = WeightTriple(*b)
        assume(min(b[0] + b[1] - b[2], b[1] + b[2] - b[0],
                   b[0] + b[2] - b[1]) > 1e-3 * w.total)
        phi = sector_angles_from_weights(w)
        for ang, (i, j, k) in zip(phi, ((0, 1, 2), (1, 2, 0), (2, 0, 1))):
            assert abs(math.cos(ang)
                       + triangle_cosine(b[i], b[j], b[k])) <= 1e-12


class TestInverseWeights:
    def test_symmetric(self):
        w = weights_from_sector_angles((TWO_PI / 3,) * 3, total=1.0)
        assert w.astuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_round_trip_3_4_5(self):
        angles = sector_angles_from_weights((3, 4, 5))
        w = weights_from_sector_angles(angles, total=12.0)
        assert w.astuple() == pytest.approx((3.0, 4.0, 5.0), abs=1e-10)

    def test_right_angle_case(self):
        w = weights_from_sector_angles((math.pi / 2, 3 * math.pi / 4,
                                        3 * math.pi / 4), total=1.0)
        s = math.sqrt(2.0) / 2.0
        den = 2.0 * s + 1.0
        assert w.astuple() == pytest.approx((s / den, s / den, 1.0 / den),
                                            abs=1e-15)

    def test_bad_angles_rejected(self):
        with pytest.raises(WeightDomainError):
            weights_from_sector_angles((math.pi, math.pi / 2, math.pi / 2))
        with pytest.raises(WeightDomainError):
            weights_from_sector_angles((2.0, 2.0, 2.0))

    @given(weights_strategy)
    @settings(max_examples=300)
    def test_round_trip_property(self, b):
        w = WeightTriple(*b)
        assume(min(b[0] + b[1] - b[2], b[1] + b[2] - b[0],
                   b[0] + b[2] - b[1]) > 1e-3 * w.total)
        angles = sector_angles_from_weights(w)
        assert abs(sum(angles) - TWO_PI) <= 1e-12
        back = weights_from_sector_angles(angles, total=w.total)
        assert back.astuple() == pytest.approx(b, abs=1e-10)

    def test_weight_validation(self):
        with pytest.raises(WeightDomainError):
            WeightTriple(1.0, -2.0, 1.0)
        with pytest.raises(WeightDomainError):
            weights_from_sector_angles((TWO_PI / 3,) * 3, total=0.0)


class TestSectorPartition:
    def test_symmetric_partition(self):
        assert sector_partition((0.0, TWO_PI / 3, 2 * TWO_PI / 3)) == \
            pytest.approx((TWO_PI / 3,) * 3)

    def test_right_angle_partition(self):
        phi = sector_partition((0.0, math.pi / 2, math.pi))
        assert phi == pytest.approx((math.pi / 2, math.pi / 2, math.pi))

    def test_coincident_directions_rejected(self):
        with pytest.raises(DegenerateTreeError):
            sector_partition((0.3, 0.3, 2.0))

    @given(st.floats(-math.pi, math.pi), st.floats(0.05, 3.0),
           st.floats(0.05, 3.0))
    @settings(max_examples=200)
    def test_partition_sums_to_full_turn(self, t1, d2, d3):
        assume(abs(d2 - d3) > 1e-6 and d2 + d3 < TWO_PI - 0.05)
        phi = sector_partition((t1, t1 + d2, t1 + d2 + d3))
        assert sum(phi) == pytest.approx(TWO_PI, abs=1e-9)
        assert all(0.0 < a < TWO_PI for a in phi)


class TestFloatingTest:
    def test_plane_equilateral_interior(self, plane):
        pts = equilateral_plane_points()
        res = floating_test(plane, pts, (1, 1, 1))
        assert res.mode == "interior"
        # |U + U'| with a 60 degree vertex angle is sqrt(3)
        assert res.margins == pytest.approx((math.sqrt(3.0) - 1.0,) * 3,
                                            abs=1e-9)

    def test_dominant_weight_vertex(self, plane):
        pts = equilateral_plane_points()
        res = floating_test(plane, pts, (1, 1, 3))
        assert res.mode == "vertex"
        assert res.vertex_index == 2

    def test_sphere_near_equilateral_interior(self, sphere):
        center = SurfacePoint(math.pi / 2, 0.5)
        pts = [shoot(sphere, center, th, 0.4).end()
               for th in (0.3, 0.3 + TWO_PI / 3, 0.3 + 2 * TWO_PI / 3)]
        res = floating_test(sphere, pts, (1, 1, 1))
        assert res.mode == "interior"

    def test_collinear_points_rejected(self, plane):
        pts = [SurfacePoint(1.0, 0.2), SurfacePoint(1.5, 0.2),
               SurfacePoint(2.2, 0.2)]
        with pytest.raises(DegenerateTreeError):
            floating_test(plane, pts, (1, 1, 1))

    def test_duplicate_points_rejected(self, plane):
        p = SurfacePoint(1.0, 0.1)
        with pytest.raises(DegenerateTreeError):
            floating_test(plane, [p, p, SurfacePoint(2.0, 0.5)], (1, 1, 1))


def planted_triangle(surface, center, headings, lengths):
    return [shoot(surface, center, th, L).end()
            for th, L in zip(headings, lengths)]


def direct_margins(surface, pts, b):
    """Floating-test margins from six direct connects, one per ordered
    pair of terminals."""
    tangents = {(i, j): connect_geodesic(surface, pts[i], pts[j])
                .start_unit_tangent()
                for i in range(3) for j in range(3) if i != j}
    margins = []
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        tj, tk = tangents[i, j], tangents[i, k]
        margins.append(math.hypot(b[j] * tj[0] + b[k] * tk[0],
                                  b[j] * tj[1] + b[k] * tk[1]) - b[i])
    return margins


class TestFloatingTestArcs:
    TRIANGLES = {
        "sphere": (lambda: make_surface("sphere", radius=1.0),
                   SurfacePoint(1.2, 0.5), (0.2, 2.3, 4.4), (0.4, 0.35, 0.45)),
        "torus": (lambda: make_surface("torus", R=2.0, r=0.7),
                  SurfacePoint(0.5, 0.2), (0.4, 2.6, 4.3), (0.5, 0.6, 0.45)),
        "catenoid": (lambda: make_surface("catenoid", a=1.0),
                     SurfacePoint(0.2, 0.1), (0.7, 2.6, 4.6),
                     (0.3, 0.45, 0.35)),
    }

    @pytest.mark.parametrize("name", sorted(TRIANGLES))
    @pytest.mark.parametrize("b", [(1.0, 1.0, 1.0), (1.0, 1.2, 2.1)])
    def test_margins_match_six_direct_connects(self, name, b):
        build, center, headings, lengths = self.TRIANGLES[name]
        surface = build()
        pts = planted_triangle(surface, center, headings, lengths)
        res = floating_test(surface, pts, b)
        want = direct_margins(surface, pts, b)
        assert max(abs(g - w) for g, w in zip(res.margins, want)) <= 1e-8
        worst = min(range(3), key=lambda i: want[i])
        assert res.mode == ("interior" if want[worst] > 0.0 else "vertex")
        assert sorted(res.arcs) == [(0, 1), (0, 2), (1, 2)]

    @staticmethod
    def _fan_lanes(monkeypatch):
        lanes = []
        real = connect_mod.shoot_fan

        def counted(surface, starts, thetas, lengths, n_steps):
            lanes.append(len(thetas))
            return real(surface, starts, thetas, lengths, n_steps)

        monkeypatch.setattr(connect_mod, "shoot_fan", counted)
        return lanes

    def test_one_fan_per_floating_test(self, paraboloid, monkeypatch):
        pts = planted_triangle(paraboloid, SurfacePoint(1.2, 0.5),
                               (0.2, 2.3, 4.4), (0.4, 0.35, 0.45))
        lanes = self._fan_lanes(monkeypatch)
        floating_test(paraboloid, pts, (1, 1, 1))
        assert lanes == [3 * 17]    # three pairs of 16 fan headings + chord
        floating_test(paraboloid, pts, (1, 1, 2.5))
        assert lanes == [3 * 17] * 2

    def test_no_fan_below_the_injectivity_radius(self, sphere, monkeypatch):
        """Every arc of a small sphere triangle is shorter than pi, the
        sphere's injectivity radius, so each is its chord seed's geodesic
        and the floating test runs no fan."""
        pts = planted_triangle(sphere, SurfacePoint(1.2, 0.5),
                               (0.2, 2.3, 4.4), (0.4, 0.35, 0.45))
        lanes = self._fan_lanes(monkeypatch)
        res = floating_test(sphere, pts, (1, 1, 1))
        assert lanes == []
        assert max(path.length for path in res.arcs.values()) < math.pi


class TestSolveFermat:
    def test_plane_equilateral_center(self, plane):
        pts = equilateral_plane_points()
        res = solve_fermat(plane, pts, (1, 1, 1))
        assert res.mode == "interior"
        got = plane.embed(res.point)[:2]
        assert np.allclose(got, [2.0, 0.0], atol=1e-7)
        assert res.sector_angles == pytest.approx((TWO_PI / 3,) * 3,
                                                  abs=1e-7)
        assert sum(res.sector_angles) == pytest.approx(TWO_PI, abs=1e-9)
        assert res.residual <= 1e-8 * 3.0

    def test_plane_matches_weiszfeld(self, plane):
        from geofermat.verify import _weiszfeld
        rng = np.random.default_rng(12)
        done = 0
        while done < 5:
            radii = rng.uniform(0.8, 2.0, 3)
            vs = np.cumsum([rng.uniform(-0.4, 0.4),
                            rng.uniform(0.6, 1.0), rng.uniform(0.6, 1.0)])
            pts = [SurfacePoint(float(r), float(v))
                   for r, v in zip(radii, vs)]
            b = (1.1, 0.9, 1.3)
            if floating_test(plane, pts, b).mode != "interior":
                continue
            xy = np.array([[p.u * math.cos(p.v), p.u * math.sin(p.v)]
                           for p in pts])
            oracle = _weiszfeld(xy, b)
            res = solve_fermat(plane, pts, b)
            assert np.linalg.norm(plane.embed(res.point)[:2] - oracle) <= 1e-6
            done += 1

    def test_planted_tree_paraboloid(self, paraboloid):
        b = (2.0, 3.0, 4.0)
        center = SurfacePoint(1.0, 0.2)
        phi = sector_angles_from_weights(b)
        headings = (1.9, 1.9 + phi[0], 1.9 + phi[0] + phi[1])
        pts = [shoot(paraboloid, center, th, L).end()
               for th, L in zip(headings, (0.3, 0.4, 0.5))]
        res = solve_fermat(paraboloid, pts, b)
        E, G, _, _, _ = paraboloid.metric_terms(center.u)
        gap = math.hypot(math.sqrt(E) * (res.point.u - center.u),
                         math.sqrt(G) * (res.point.v - center.v))
        assert gap <= 1e-5
        assert res.sector_angles == pytest.approx(phi, abs=1e-5)

    @staticmethod
    def interior_points(surface):
        center = SurfacePoint(1.1, 0.1)
        return [shoot(surface, center, th, L).end()
                for th, L in zip((0.4, 2.5, 4.3), (0.45, 0.4, 0.5))]

    def test_monotone_descent(self, paraboloid):
        pts = self.interior_points(paraboloid)
        b = (1.0, 1.2, 0.8)
        res = solve_fermat(paraboloid, pts, b)
        assert res.mode == "interior"
        f = res.f_history
        assert len(f) >= 3 and res.iterations == len(f) - 1
        # f starts at the heaviest terminal, A2, from the floating test's
        # arcs, and the step off it lowers f
        arcs = floating_test(paraboloid, pts, b).arcs
        assert f[0] == pytest.approx(
            b[0] * arcs[0, 1].length + b[2] * arcs[1, 2].length, abs=1e-12)
        assert f[1] < f[0]
        assert f[-1] < f[0]
        # a Newton step may raise f by the geodesic-length noise at most
        noise = sum(b) * fermat_mod._RESID_TOL
        assert all(f[i + 1] <= f[i] + noise for i in range(len(f) - 1))

    def test_near_terminal_minimiser(self, plane):
        """A0 lies 0.0017 from A2, whose floating-test margin is 0.0026,
        so f is nearly flat along the way in."""
        from geofermat.verify import _weiszfeld
        pts = [SurfacePoint(1.5064130764675254, 0.834562974951244),
               SurfacePoint(1.8840350306168903, 0.27272155901390893),
               SurfacePoint(1.5129990804517774, -0.480490807067919)]
        b = (1.2771507527800923, 1.6545154790832424, 1.458972738964845)
        xy = np.array([[p.u * math.cos(p.v), p.u * math.sin(p.v)]
                       for p in pts])
        res = solve_fermat(plane, pts, b)
        assert res.mode == "interior"
        assert np.linalg.norm(plane.embed(res.point)[:2]
                              - _weiszfeld(xy, b)) <= 1e-6

    def test_trial_on_terminal_rejected(self, plane):
        pts = equilateral_plane_points()
        assert fermat_mod._trial(plane, pts[0], 0.0, 0.0, pts, None,
                                 (1, 1, 1), ConnectOptions()) is None

    def test_vertex_mode_result(self, plane):
        pts = equilateral_plane_points()
        res = solve_fermat(plane, pts, (1, 1, 3))
        assert res.mode == "vertex" and res.vertex_index == 2
        assert res.point == pts[2]
        assert res.sector_angles is None
        assert res.residual >= 1.0  # two unit pulls cannot reach weight 3
        d12 = np.linalg.norm(plane.embed(pts[2]) - plane.embed(pts[0]))
        d22 = np.linalg.norm(plane.embed(pts[2]) - plane.embed(pts[1]))
        assert res.f_value == pytest.approx(d12 + d22, rel=1e-9)

    def test_vertex_mode_reuses_floating_test_arcs(self, sphere,
                                                   monkeypatch):
        pts = planted_triangle(sphere, SurfacePoint(1.2, 0.5),
                               (0.2, 2.3, 4.4), (0.4, 0.35, 0.45))
        b = (1.0, 1.0, 2.5)
        batches = []
        real = fermat_mod.connect_geodesics

        def counted(surface, pairs, *args, **kwargs):
            batches.append(list(pairs))
            return real(surface, batches[-1], *args, **kwargs)

        def no_single(*args, **kwargs):
            raise AssertionError("vertex mode made a single connect")

        monkeypatch.setattr(fermat_mod, "connect_geodesics", counted)
        pairs = [(pts[0], pts[1]), (pts[0], pts[2]), (pts[1], pts[2])]
        # an interior solve steps off a terminal along these arcs, so its
        # only batch is the floating test's too; its branches are warm
        interior = solve_fermat(sphere, pts, (1.0, 1.0, 1.0))
        assert interior.mode == "interior"
        assert batches == [pairs]
        batches.clear()
        monkeypatch.setattr(fermat_mod, "connect_geodesic", no_single)
        res = solve_fermat(sphere, pts, b)
        # the floating test's three pairs, in one batch, and nothing else
        assert batches == [pairs]
        assert res.mode == "vertex" and res.vertex_index == 2
        assert res.point == pts[2]
        # both branches from the vertex were stored the other way round
        opts = ConnectOptions(resid_tol=fermat_mod._RESID_TOL)
        expected = [connect_geodesic(sphere, pts[2], pts[j], opts)
                    for j in (0, 1)]
        for j, (got, want) in enumerate(zip(res.branches[:2], expected)):
            assert got.start() == pts[2]
            assert abs(got.theta_start - want.theta_start) <= 1e-8
            assert abs(got.length - want.length) <= 1e-8
            gap = np.linalg.norm(sphere.embed(got.end())
                                 - sphere.embed(want.end()))
            assert gap <= 1e-8
            assert got.winding == want.winding
        assert res.branches[2].length == 0.0
        assert res.f_value == pytest.approx(
            b[0] * expected[0].length + b[1] * expected[1].length, abs=1e-8)

    def test_sphere_newton_is_quadratic(self, sphere):
        """The Newton step uses the exact Hessian b_i m2/m1 = b_i cot L_i on
        the unit sphere, so it converges quadratically (the flat model
        b_i / L_i only linearly): 25 planted trees with branches 0.2-1.2
        take at most 6 accepted steps on average."""
        rng = np.random.default_rng(8)
        steps = []
        for _ in range(25):
            b = tuple(rng.uniform(1.0, 2.0, 3))
            center = SurfacePoint(float(rng.uniform(1.0, 2.1)),
                                  float(rng.uniform(-math.pi, math.pi)))
            phi = sector_angles_from_weights(b)
            theta0 = float(rng.uniform(0.0, TWO_PI))
            headings = (theta0, theta0 + phi[0], theta0 + phi[0] + phi[1])
            pts = planted_triangle(sphere, center, headings,
                                   rng.uniform(0.2, 1.2, 3))
            res = solve_fermat(sphere, pts, b)
            gap = math.hypot(res.point.u - center.u,
                             math.sin(center.u) * (res.point.v - center.v))
            assert gap <= 1e-6
            steps.append(res.iterations)
        assert np.mean(steps) <= 6.0

    def test_iteration_cap(self, paraboloid, monkeypatch):
        pts = self.interior_points(paraboloid)
        monkeypatch.setattr(fermat_mod, "_MAX_ITER", 1)
        with pytest.raises(SolveError, match="no convergence in 1 iterations"):
            solve_fermat(paraboloid, pts, (1, 1, 1))

    def test_sector_angles_checked_against_weights(self, paraboloid,
                                                   monkeypatch):
        """A balanced tree whose sector angles miss the weights' by more
        than the tolerance is a SolveError, not an answer."""
        pts = self.interior_points(paraboloid)
        monkeypatch.setattr(fermat_mod, "_ANGLE_TOL", 1e-300)
        with pytest.raises(SolveError, match="sector angles deviate"):
            solve_fermat(paraboloid, pts, (1, 1, 1))

    def test_descent_fails_in_every_halving(self, paraboloid):
        """No trial point lowers f below 0, so the halved step gives up
        after its last halving."""
        pts = self.interior_points(paraboloid)
        res = solve_fermat(paraboloid, pts, (1, 1, 1))
        warm = res.branches, [path.jacobi() for path in res.branches]
        with pytest.raises(SolveError, match=(
                f"in none of {fermat_mod._MAX_BACKTRACKS} halvings")):
            fermat_mod._descend(paraboloid, res.point, 0.3, 0.1, 0.0, pts,
                                warm, (1, 1, 1), ConnectOptions())


class TestVertexRegimeBruteForce:
    def _grid_argmin(self, embeds, b, grid_xy):
        f = sum(bi * np.linalg.norm(grid_xy - e[None, :], axis=1)
                for bi, e in zip(b, embeds))
        return grid_xy[int(np.argmin(f))]

    def test_plane_grid(self, plane):
        pts = equilateral_plane_points()
        b = (1.0, 1.0, 3.0)
        res = floating_test(plane, pts, b)
        assert res.mode == "vertex" and res.vertex_index == 2
        embeds = [plane.embed(p)[:2] for p in pts]
        lo = np.min(embeds, axis=0) - 0.3
        hi = np.max(embeds, axis=0) + 0.3
        xs = np.linspace(lo[0], hi[0], 200)
        ys = np.linspace(lo[1], hi[1], 200)
        grid = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
        best = self._grid_argmin(embeds, b, grid)
        cell = max(hi[0] - lo[0], hi[1] - lo[1]) / 199
        assert np.linalg.norm(best - embeds[2]) <= cell * math.sqrt(2.0)

    def test_sphere_grid(self, sphere):
        center = SurfacePoint(1.2, 0.5)
        pts = [shoot(sphere, center, th, L).end()
               for th, L in zip((0.2, 2.3, 4.4), (0.4, 0.35, 0.45))]
        b = (1.0, 1.0, 2.5)
        res = floating_test(sphere, pts, b)
        assert res.mode == "vertex" and res.vertex_index == 2
        embeds = [sphere.embed(p) for p in pts]
        us = np.linspace(min(p.u for p in pts) - 0.3,
                         max(p.u for p in pts) + 0.3, 200)
        vs = np.linspace(min(p.v for p in pts) - 0.3,
                         max(p.v for p in pts) + 0.3, 200)
        uu, vv = np.meshgrid(us, vs)
        xyz = sphere.embed_batch(uu.ravel(), vv.ravel())
        f = sum(bi * np.arccos(np.clip(xyz @ e, -1.0, 1.0))
                for bi, e in zip(b, embeds))
        best = xyz[int(np.argmin(f))]
        cell = max(us[1] - us[0], vs[1] - vs[0])
        assert np.linalg.norm(best - embeds[2]) <= 2.0 * cell


class TestMeasureSectorAngles:
    def test_planted_angles_recovered(self, catenoid):
        b = (2.0, 3.0, 4.0)
        phi = sector_angles_from_weights(b)
        center = SurfacePoint(0.2, 0.1)
        headings = (0.7, 0.7 + phi[0], 0.7 + phi[0] + phi[1])
        pts = [shoot(catenoid, center, th, L).end()
               for th, L in zip(headings, (0.3, 0.45, 0.35))]
        angles = measure_sector_angles(catenoid, center, pts)
        assert angles == pytest.approx(phi, abs=1e-5)

    def test_center_equal_terminal_rejected(self, plane):
        c = SurfacePoint(1.0, 0.0)
        with pytest.raises(DegenerateTreeError):
            measure_sector_angles(plane, c,
                                  [c, SurfacePoint(2, 0.3),
                                   SurfacePoint(2, -0.3)])


class TestPredictedStart:
    """``fermat._predicted_start`` moves a branch's start to first order:
    its error against the true start from the moved point is quadratic
    in the step, so it falls about 4 times when the step halves."""

    @staticmethod
    def sphere_start(sphere, P, A):
        """Heading and length of the great-circle arc from P to A."""
        p, a = sphere.embed(P), sphere.embed(A)
        toward = a - (p @ a) * p
        e_par, e_mer = sphere.embedding_frame(P)
        return (math.atan2(toward @ e_mer, toward @ e_par),
                math.acos(float(np.clip(p @ a, -1.0, 1.0))))

    @staticmethod
    def prediction_error(surface, branch, rel, eps, truth):
        """Heading and length errors of the start predicted for ``branch``
        after a step of length eps at angle rel from its tangent."""
        theta = branch.theta_start + rel
        step = shoot(surface, branch.start(), theta, eps)
        got = fermat_mod._predicted_start(
            branch, branch.jacobi(), eps * math.cos(theta),
            eps * math.sin(theta), step.theta_end - step.theta_start)
        want = truth(step.end())
        return (abs(math.remainder(got[0] - want[0], TWO_PI)),
                abs(got[1] - want[1]))

    CASES = {
        "sphere": (lambda: make_surface("sphere", radius=1.0),
                   SurfacePoint(1.2, 0.3), SurfacePoint(0.7, 1.1)),
        "torus": (lambda: make_surface("torus", R=2.0, r=0.7),
                  SurfacePoint(0.4, 0.3), SurfacePoint(1.2, 1.4)),
    }

    def truth(self, name, surface, A):
        if name == "sphere":
            return lambda Q: self.sphere_start(surface, Q, A)

        def cold(Q):
            path = connect_geodesic(surface, Q, A)
            return path.theta_start, path.length
        return cold

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("rel", [0.3, math.pi / 2, math.pi - 0.3],
                             ids=["along", "across", "back"])
    def test_error_is_second_order(self, name, rel):
        build, P, A = self.CASES[name]
        surface = build()
        branch = connect_geodesic(surface, P, A)
        truth = self.truth(name, surface, A)
        big = self.prediction_error(surface, branch, rel, 0.02, truth)
        small = self.prediction_error(surface, branch, rel, 0.01, truth)
        for e_big, e_small in zip(big, small):
            assert e_small * 3.0 <= e_big
        assert max(big) <= 1e-3

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("rel", [0.0, math.pi], ids=["toward", "away"])
    def test_exact_on_the_branch(self, name, rel):
        """A step along the branch stays on its geodesic: the predicted
        start is the true one."""
        build, P, A = self.CASES[name]
        surface = build()
        branch = connect_geodesic(surface, P, A)
        err = self.prediction_error(surface, branch, rel, 0.02,
                                    self.truth(name, surface, A))
        assert max(err) <= 1e-9

    def test_heading_kept_at_or_past_conjugate_point(self, sphere):
        """m1 <= 0: the old heading is kept, the length still moves."""
        P = SurfacePoint(1.2, 0.3)
        past = shoot(sphere, P, 0.4, 3.5)      # beyond the antipode, pi
        jac = past.jacobi()
        assert jac[0] < 0.0
        d_par, d_mer = 0.01, 0.02
        theta, length = fermat_mod._predicted_start(past, jac, d_par, d_mer,
                                                    0.05)
        assert theta == past.theta_start
        assert length == pytest.approx(
            3.5 - 0.01 * math.cos(0.4) - 0.02 * math.sin(0.4), abs=1e-15)
        flat = (0.0,) + jac[1:]
        assert fermat_mod._predicted_start(past, flat, d_par, d_mer,
                                           0.05) == (theta, length)
        # with m1 > 0 the heading turns
        short = shoot(sphere, P, 0.4, 1.0)
        assert fermat_mod._predicted_start(short, short.jacobi(), d_par,
                                           d_mer, 0.05)[0] != short.theta_start

    def test_zero_length_branch_is_the_step_reversed(self, paraboloid):
        """The branch to the point a step leaves starts at the step's
        reversed end heading, with the step's length."""
        P = SurfacePoint(1.1, 0.2)
        here = shoot(paraboloid, P, 0.0, 0.0)
        step = shoot(paraboloid, P, 2.5, 0.3)
        theta, length = fermat_mod._predicted_start(
            here, here.jacobi(), 0.3 * math.cos(2.5), 0.3 * math.sin(2.5),
            step.theta_end - step.theta_start)
        assert abs(math.remainder(theta - step.reversed_heading(),
                                  TWO_PI)) <= 1e-12
        assert length == pytest.approx(0.3, abs=1e-15)


class TestWarmConnectWork:
    """Predicted starts cut the Newton shots of each warm connect and
    leave the answer where the old starts put it."""

    SCENARIO = (Path(__file__).parent.parent / "scenarios"
                / "sphere_triangle.json")

    @staticmethod
    def counted_solve(monkeypatch, surface, pts, b, old_start):
        """Solve, counting warm connects and the ``connect.shoot`` calls
        made inside them."""
        count = {"warm": 0, "shots": 0, "inside": False}
        real_shoot = connect_mod.shoot
        real_connect = fermat_mod.connect_geodesic
        real_start = fermat_mod._predicted_start

        def old_start_fn(path, *args):
            # the first step, off a terminal, keeps its predicted starts;
            # the loop's trials start each branch where it was
            if any(path.start().coincides(t) for t in pts):
                return real_start(path, *args)
            return path.theta_start, path.length

        def shoot_counted(*args, **kwargs):
            count["shots"] += count["inside"]
            return real_shoot(*args, **kwargs)

        def connect_counted(*args, initial=None, **kwargs):
            if initial is None:
                return real_connect(*args, **kwargs)
            count["warm"] += 1
            count["inside"] = True
            try:
                return real_connect(*args, initial=initial, **kwargs)
            finally:
                count["inside"] = False

        with monkeypatch.context() as m:
            m.setattr(connect_mod, "shoot", shoot_counted)
            m.setattr(fermat_mod, "connect_geodesic", connect_counted)
            if old_start:
                m.setattr(fermat_mod, "_predicted_start", old_start_fn)
            res = solve_fermat(surface, pts, b)
        return res, count

    def trees(self):
        scn = load_scenario(self.SCENARIO)
        yield (scn.surface, [scn.points[n] for n in scn.fermat_point_names],
               scn.weights)
        torus = make_surface("torus", R=2.0, r=0.7)
        b = (1.0, 1.2, 1.4)
        phi = sector_angles_from_weights(b)
        headings = (0.4, 0.4 + phi[0], 0.4 + phi[0] + phi[1])
        yield (torus, planted_triangle(torus, SurfacePoint(0.5, 0.2),
                                       headings, (0.5, 0.6, 0.45)), b)

    def test_at_most_three_shots_per_warm_connect(self, monkeypatch):
        for surface, pts, b in self.trees():
            res, count = self.counted_solve(monkeypatch, surface, pts, b,
                                            old_start=False)
            old, old_count = self.counted_solve(monkeypatch, surface, pts, b,
                                                old_start=True)
            assert res.mode == old.mode == "interior"
            assert count["warm"] > 0
            assert count["shots"] <= 3.0 * count["warm"]
            assert count["shots"] < old_count["shots"]
            assert res.iterations == old.iterations
            assert res.point.u == pytest.approx(old.point.u, abs=1e-9)
            assert res.point.v == pytest.approx(old.point.v, abs=1e-9)
            assert res.sector_angles == pytest.approx(old.sector_angles,
                                                      abs=1e-9)


class TestWeiszfeldFallback:
    """Where the Hessian is not positive definite ``_newton_step`` gives no
    step, and the solve goes on by Weiszfeld steps alone."""

    P = SurfacePoint(1.2, 0.3)

    def test_no_newton_step_past_a_conjugate_point(self, sphere):
        paths = [shoot(sphere, self.P, th, L)
                 for th, L in ((0.4, 3.5), (2.5, 0.5), (4.5, 0.6))]
        jac = [path.jacobi() for path in paths]
        assert jac[0][0] == pytest.approx(math.sin(3.5), abs=1e-6)  # -0.35
        assert fermat_mod._newton_step(paths, jac, (1.0, 1.0, 1.0),
                                       0.1, 0.2) is None

    def test_no_newton_step_along_one_geodesic(self, sphere):
        paths = [shoot(sphere, self.P, th, L)
                 for th, L in ((0.0, 0.5), (math.pi, 0.7), (0.0, 0.9))]
        jac = [path.jacobi() for path in paths]
        assert all(m1 > 0.0 for m1, _, _, _ in jac)
        assert fermat_mod._newton_step(paths, jac, (1.0, 1.0, 1.0),
                                       0.1, 0.2) is None

    def test_weiszfeld_steps_alone_converge(self, monkeypatch):
        scn = load_scenario(TestWarmConnectWork.SCENARIO)
        pts = [scn.points[n] for n in scn.fermat_point_names]
        newton = solve_fermat(scn.surface, pts, scn.weights)
        monkeypatch.setattr(fermat_mod, "_newton_step", lambda *args: None)
        res = solve_fermat(scn.surface, pts, scn.weights)
        assert res.mode == "interior"
        assert res.iterations > newton.iterations
        assert all(f1 < f0 for f0, f1 in zip(res.f_history,
                                             res.f_history[1:]))
        gap = math.hypot(res.point.u - newton.point.u,
                         math.sin(newton.point.u)
                         * (res.point.v - newton.point.v))
        assert gap <= 1e-6
