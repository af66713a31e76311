import dataclasses
import math

import numpy as np
import pytest

import geofermat.connect as connect_mod
import geofermat.geodesics as geodesics_mod
from geofermat import (ConnectOptions, OffChartError, ProfileSurface,
                       SolveError, SurfacePoint, connect_geodesic,
                       connect_geodesics, make_surface, shoot)
from geofermat.verify import _sphere_pair


class TestExamples:
    def test_sphere_quarter_equator(self, sphere):
        path = connect_geodesic(sphere, SurfacePoint(math.pi / 2, 0.0),
                                SurfacePoint(math.pi / 2, math.pi / 2))
        assert path.length == pytest.approx(math.pi / 2, abs=1e-10)
        assert path.theta_start == pytest.approx(0.0, abs=1e-10)

    def test_cylinder_unroll(self, cylinder):
        path = connect_geodesic(cylinder, SurfacePoint(0.0, 0.0),
                                SurfacePoint(1.0, math.pi / 2))
        assert path.length == pytest.approx(math.hypot(1.0, math.pi / 2),
                                            rel=1e-10)

    def test_cylinder_winding_wrap(self, cylinder):
        # dv = 3pi/2 on the cover; the short helix uses the wrapped pi/2
        path = connect_geodesic(cylinder, SurfacePoint(0.0, 0.0),
                                SurfacePoint(1.0, 1.5 * math.pi))
        assert path.length == pytest.approx(math.hypot(1.0, math.pi / 2),
                                            rel=1e-10)
        assert path.winding == -1

    def test_plane_law_of_cosines(self, plane):
        path = connect_geodesic(plane, SurfacePoint(1.0, 0.0),
                                SurfacePoint(2.0, math.pi / 3))
        assert path.length == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_identical_points(self, sphere):
        p = SurfacePoint(1.0, 0.3)
        path = connect_geodesic(sphere, p, p)
        assert path.length == 0.0

    def test_identical_off_chart_points_rejected(self, sphere):
        p = SurfacePoint(-1.0, 0.0)
        with pytest.raises(OffChartError):
            connect_geodesic(sphere, p, p)

    def test_sphere_random_pairs_against_closed_form(self, sphere):
        rng = np.random.default_rng(5)
        for _ in range(25):
            A, B, sep = _sphere_pair(rng)
            length = connect_geodesic(sphere, A, B).length
            assert abs(length - sep) / sep <= 1e-7

    def test_unreachable_budget(self, cylinder):
        """No search length is fixed: the retired ``max_len`` is no option,
        and pairs it held out of reach connect, the second one 30 apart
        along the axis, beyond its default of 20."""
        with pytest.raises(TypeError, match="max_len"):
            ConnectOptions(max_len=0.5)
        for u_a, u_b in ((0.0, 5.0), (-15.0, 15.0)):
            path = connect_geodesic(cylinder, SurfacePoint(u_a, 0.0),
                                    SurfacePoint(u_b, 1.0))
            assert path.length == pytest.approx(math.hypot(u_b - u_a, 1.0),
                                                rel=1e-10)


class TestAmbiguity:
    def test_cylinder_half_turn_tie(self, cylinder):
        # two helices of exactly equal length wind opposite ways
        path = connect_geodesic(cylinder, SurfacePoint(0.0, 0.0),
                                SurfacePoint(0.7, math.pi))
        assert path.ambiguous
        assert path.length == pytest.approx(math.hypot(0.7, math.pi),
                                            rel=1e-10)

    @pytest.mark.parametrize("kind, params, lo, hi", [
        ("cylinder", dict(radius=1.0), -2.0, 2.0),
        ("cone", dict(slope=1.0), 0.5, 3.0),
        ("cone", dict(slope=-1.0), 0.5, 3.0),
    ], ids=["cylinder", "cone", "cone-1"])
    def test_half_turn_ties_are_ambiguous(self, kind, params, lo, hi):
        """B half a turn from A: its two nearest copies are equally near,
        and each has a geodesic of the same length.  The closed-form seed
        finds one, and the other winding's fan pick is polished too: the
        fan's 17th lane stays at the chord heading, as a lane at the exact
        heading would narrow the screening cutoff past that pick."""
        surface = make_surface(kind, **params)
        rng = np.random.default_rng(3)
        for _ in range(12):
            A = SurfacePoint(rng.uniform(lo, hi), rng.uniform(-3.0, 3.0))
            B = SurfacePoint(rng.uniform(lo, hi), A.v + math.pi)
            assert connect_geodesic(surface, A, B).ambiguous

    def test_generic_pair_not_ambiguous(self, sphere):
        path = connect_geodesic(sphere, SurfacePoint(1.2, 0.0),
                                SurfacePoint(1.4, 1.0))
        assert not path.ambiguous


class TestInvariants:
    SAMPLERS = {
        "sphere": (lambda: make_surface("sphere", radius=1.0),
                   lambda rng: _sphere_pair(rng)[:2]),
        "cylinder": (lambda: make_surface("cylinder", radius=1.0),
                     lambda rng: (
                         SurfacePoint(rng.uniform(-3, 3),
                                      rng.uniform(-math.pi, math.pi)),
                         SurfacePoint(rng.uniform(-3, 3),
                                      rng.uniform(-2.5 * math.pi,
                                                  2.5 * math.pi)))),
        "cone": (lambda: make_surface("cone", slope=0.8),
                 lambda rng: (
                     SurfacePoint(rng.uniform(0.5, 3.0), rng.uniform(-1, 1)),
                     SurfacePoint(rng.uniform(0.5, 3.0),
                                  rng.uniform(-1, 1)))),
        "paraboloid": (lambda: make_surface("paraboloid", a=1.0),
                       lambda rng: (
                           SurfacePoint(rng.uniform(0.7, 2.2),
                                        rng.uniform(-0.8, 0.8)),
                           SurfacePoint(rng.uniform(0.7, 2.2),
                                        rng.uniform(-0.8, 0.8)))),
        "catenoid": (lambda: make_surface("catenoid", a=1.0),
                     lambda rng: (
                         SurfacePoint(rng.uniform(-1.2, 1.2),
                                      rng.uniform(-1.2, 1.2)),
                         SurfacePoint(rng.uniform(-1.2, 1.2),
                                      rng.uniform(-1.2, 1.2)))),
        "torus": (lambda: make_surface("torus", R=2.0, r=0.7),
                  lambda rng: (
                      SurfacePoint(rng.uniform(-math.pi, math.pi),
                                   rng.uniform(-0.7, 0.7)),
                      SurfacePoint(rng.uniform(-math.pi, math.pi),
                                   rng.uniform(-0.7, 0.7)))),
        "plane": (lambda: make_surface("plane"),
                  lambda rng: (
                      SurfacePoint(rng.uniform(0.5, 3.0),
                                   rng.uniform(-0.6, 0.6)),
                      SurfacePoint(rng.uniform(0.5, 3.0),
                                   rng.uniform(-0.6, 0.6)))),
    }

    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_symmetry_and_chord_bound(self, name):
        build, draw = self.SAMPLERS[name]
        surface = build()
        rng = np.random.default_rng(17)
        for _ in range(100):
            A, B = draw(rng)
            if A.u == B.u and A.v == B.v:
                continue
            forward = connect_geodesic(surface, A, B).length
            backward = connect_geodesic(surface, B, A).length
            assert abs(forward - backward) <= 1e-9 * max(1.0, forward)
            chord = float(np.linalg.norm(surface.embed(A)
                                         - surface.embed(B)))
            assert forward >= chord - 1e-9 * max(1.0, chord)

    @pytest.mark.parametrize("name", [*sorted(SAMPLERS), "custom"])
    def test_answer_within_its_bounds(self, name):
        """Every cold answer is at least ``arc_lo``, the meridian arc's
        lower bound, and at most the reach, the length of the curve along
        the meridian and the shorter parallel: no Newton step goes past
        the reach by more than ``2 _AMBIGUITY_TOL``."""
        build, draw = self.SAMPLERS.get(name, (_vase, lambda rng: tuple(
            SurfacePoint(rng.uniform(1.0, 7.0), rng.uniform(-1.0, 1.0))
            for _ in range(2))))
        surface = build()
        rng = np.random.default_rng(29)
        for _ in range(10):
            A, B = draw(rng)
            arc_lo, reach = connect_mod._check_cold(surface, A, B)[4:]
            length = connect_geodesic(surface, A, B).length
            assert arc_lo <= length
            assert length <= reach + 2.0 * connect_mod._AMBIGUITY_TOL

    @pytest.mark.parametrize("name", ["sphere", "cylinder"])
    def test_triangle_inequality(self, name):
        build, draw = self.SAMPLERS[name]
        surface = build()
        rng = np.random.default_rng(23)
        for _ in range(100):
            A, B = draw(rng)
            C, _ = draw(rng)
            ab = connect_geodesic(surface, A, B).length
            bc = connect_geodesic(surface, B, C).length
            ac = connect_geodesic(surface, A, C).length
            assert ac <= ab + bc + 1e-8

    def test_reversed_path_equal_length(self, paraboloid):
        rng = np.random.default_rng(31)
        for _ in range(10):
            A = SurfacePoint(rng.uniform(0.8, 1.8), rng.uniform(-0.6, 0.6))
            B = SurfacePoint(rng.uniform(0.8, 1.8), rng.uniform(-0.6, 0.6))
            path = connect_geodesic(paraboloid, A, B)
            back = shoot(paraboloid, path.end(), path.reversed_heading(),
                         path.length)
            gap = np.linalg.norm(paraboloid.embed(back.end())
                                 - paraboloid.embed(A))
            assert gap <= 1e-9 * max(1.0, path.length)

    def test_warm_start_matches_cold(self, sphere, monkeypatch):
        A = SurfacePoint(1.1, 0.2)
        B = SurfacePoint(1.5, 1.1)
        cold = connect_geodesic(sphere, A, B)
        calls = []
        real = geodesics_mod._integrate

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(geodesics_mod, "_integrate", counted)
        monkeypatch.setattr(connect_mod, "_integrate", counted, raising=False)
        warm = connect_geodesic(sphere, A, B, initial=(
            cold.theta_start, cold.length, cold.length))
        assert warm.length == pytest.approx(cold.length, abs=1e-12)
        # the converged Newton shot is the returned path, not shot again
        assert len(calls) == 1
        assert np.array_equal(warm.samples, cold.samples)

    def test_newton_makes_one_shot_per_iteration(self, sphere, monkeypatch):
        """The heading column comes from the Jacobi field of the last shot,
        so each iteration makes one shot: from a start 1e-3 off, Newton
        converges within four shots, each at a new length.  Both connects
        run at resid_tol 1e-12: the cold one starts at the great circle
        and stops at its first shot, which the default 1e-10 would let the
        warm one miss by 4e-11."""
        A, B = SurfacePoint(1.1, 0.2), SurfacePoint(1.5, 1.1)
        opts = ConnectOptions(resid_tol=1e-12)
        cold = connect_geodesic(sphere, A, B, opts)
        shots = []
        real = connect_mod.shoot

        def counted(surface, p, theta, length, *rest):
            shots.append((theta, length))
            return real(surface, p, theta, length, *rest)

        monkeypatch.setattr(connect_mod, "shoot", counted)
        warm = connect_geodesic(sphere, A, B, opts, initial=(
            cold.theta_start + 1e-3, cold.length - 1e-3, cold.length))
        assert warm.length == pytest.approx(cold.length, abs=1e-12)
        assert len(shots) <= 4
        assert len({length for _, length in shots}) == len(shots)

    def test_warm_start_leaving_the_chart_falls_back_to_cold(self,
                                                              cylinder):
        """A warm start whose first shot leaves the chart gives Newton no
        candidate, and the connect answers as a cold one."""
        A = SurfacePoint(cylinder.u_max - 0.5, 0.0)
        B = SurfacePoint(cylinder.u_max - 1.0, 1.0)
        reach = 0.5 + 1.0   # along the meridian, then the parallel
        # a chart exit is no integrator fault
        assert connect_mod._newton(cylinder, A, B.u, B.v, 1.0, 1.0,
                                   math.pi / 2, 2.0, reach,
                                   connect_mod._DEFAULT) == (None, 1, None)
        warm = connect_geodesic(cylinder, A, B,
                                initial=(math.pi / 2, 2.0, reach))
        cold = connect_geodesic(cylinder, A, B)
        assert np.array_equal(warm.samples, cold.samples)


class TestChartCopy:
    """A cold connect counts windings from the copy of B nearest A, so B
    given whole turns away gives the same geodesic with its winding
    shifted by those turns."""
    SURFACES = {"sphere": dict(radius=1.0), "cylinder": dict(radius=1.0),
                "torus": dict(R=2.0, r=0.7)}
    # per surface: a pair inside one turn and a pair across v = +-pi
    PAIRS = {
        "sphere": [((1.2, 0.3), (1.5, 1.0)),
                   ((2.0575125857866254, 2.932839280621671),
                    (2.1447960299637048, -2.1063221042765794))],
        "cylinder": [((0.0, 0.0), (1.0, 0.5 * math.pi)),
                     ((0.6193384289577564, 2.8080903072770056),
                      (1.4368868490089848, -1.3987718694167557))],
        "torus": [((0.3, -0.5), (-1.0, 0.6)), ((2.5, 2.9), (1.0, -2.8))],
    }

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_target_copy_invariance(self, name):
        surface = make_surface(name, **self.SURFACES[name])
        for a, b in self.PAIRS[name]:
            A, B = SurfacePoint(*a), SurfacePoint(*b)
            base = connect_geodesic(surface, A, B)
            for n in (-2, -1, 1, 2):
                far = connect_geodesic(
                    surface, A, SurfacePoint(B.u, B.v + 2 * math.pi * n))
                assert far.length == pytest.approx(base.length, abs=1e-9)
                assert far.theta_start == pytest.approx(base.theta_start,
                                                        abs=1e-9)
                assert far.winding == base.winding - n

    # cylinder pairs given across the seam on which the shortest winding
    # was once missed (the screening cutoff dropped it)
    @pytest.mark.parametrize("a, b", [
        ((0.6193384289577564, 2.8080903072770056),
         (1.4368868490089848, -1.3987718694167557)),
        ((-1.446005574164814, 2.542625196892409),
         (1.2542789105622223, -1.4332220802118936)),
        ((-0.025937113731029804, 2.9981488908685154),
         (-0.8000399823716067, -0.8784906958549721)),
    ])
    def test_cylinder_shortest_winding_across_the_seam(self, cylinder, a, b):
        path = connect_geodesic(cylinder, SurfacePoint(*a), SurfacePoint(*b))
        # the unrolled strip: the shortest of the straight lines to B's copies
        dv = math.remainder(b[1] - a[1], 2 * math.pi)
        assert path.length == pytest.approx(math.hypot(b[0] - a[0], dv),
                                            rel=1e-7)

    def test_seam_pair_takes_few_shots(self, sphere, monkeypatch):
        """A sphere pair across v = +-pi: aimed at B as given, the chord
        seed chased a target 5 rad away and the connect took 89 shots."""
        A = SurfacePoint(2.0575125857866254, 2.932839280621671)
        B = SurfacePoint(2.1447960299637048, -2.1063221042765794)
        shots = []
        real = connect_mod.shoot

        def counted(surface, p, theta, length, *rest):
            shots.append((theta, length))
            return real(surface, p, theta, length, *rest)

        monkeypatch.setattr(connect_mod, "shoot", counted)
        path = connect_geodesic(sphere, A, B)
        want = math.acos(math.cos(A.u) * math.cos(B.u) + math.sin(A.u)
                         * math.sin(B.u) * math.cos(A.v - B.v))
        assert path.length == pytest.approx(want, rel=1e-7)
        assert path.winding == 1
        assert len(shots) <= 10

    def test_non_finite_v_difference_is_a_solve_error(self, sphere):
        A, B = SurfacePoint(1.0, 1e308), SurfacePoint(1.0, -1e308)
        with pytest.raises(SolveError, match="not finite"):
            connect_geodesic(sphere, A, B)
        assert not A.coincides(B)


class TestBatch:
    # per surface: pairs from several starts with fans of 80 and more
    # steps, a coincident pair and (on the cylinder) an ambiguous tie.
    # Every sphere pair is shorter than pi, the sphere's injectivity
    # radius, so its batch runs no fan
    PAIRS = {
        "sphere": [((1.2, 0.3), (1.5, 1.0)), ((1.2, 0.3), (0.9, -0.4)),
                   ((0.8, 0.0), (2.3, 2.0)), ((1.0, 0.3), (1.0, 0.3)),
                   ((2.0, -1.0), (1.4, -0.2))],
        "paraboloid": [((1.2, 0.3), (1.5, 1.0)), ((1.2, 0.3), (0.9, -0.4)),
                       ((0.8, 0.0), (2.3, 2.0)), ((1.0, 0.3), (1.0, 0.3)),
                       ((2.0, -1.0), (1.4, -0.2))],
        "cylinder": [((0.0, 0.0), (1.0, 0.5 * math.pi)),
                     ((0.0, 0.0), (3.0, 1.0)), ((-1.0, 0.5), (-1.0, 0.5)),
                     ((0.0, 0.0), (0.7, math.pi)),
                     ((1.0, 2.0), (-2.5, 0.0))],
    }
    FANS = {"sphere": 0, "paraboloid": 1, "cylinder": 1}

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_batch_equals_single_pairs(self, name, request, monkeypatch):
        surface = request.getfixturevalue(name)
        pairs = [(SurfacePoint(*a), SurfacePoint(*b))
                 for a, b in self.PAIRS[name]]
        alone = [connect_geodesic(surface, A, B) for A, B in pairs]
        steps = []
        real = connect_mod.shoot_fan

        def counted(surface, starts, thetas, step_sizes, n_steps):
            steps.append(n_steps)
            return real(surface, starts, thetas, step_sizes, n_steps)

        monkeypatch.setattr(connect_mod, "shoot_fan", counted)
        batch = connect_geodesics(surface, pairs)
        assert len(steps) == self.FANS[name]    # at most one fan per batch
        assert len(batch) == len(pairs)
        for got, want in zip(batch, alone):
            assert ((got.theta_start, got.length, got.winding, got.ambiguous)
                    == (want.theta_start, want.length, want.winding,
                        want.ambiguous))
        assert any(path.length == 0.0 for path in batch)
        assert any(path.ambiguous for path in batch) == (name == "cylinder")

    def test_first_failing_check_raises(self, sphere):
        ok = (SurfacePoint(1.0, 0.0), SurfacePoint(1.2, 0.5))
        # each v is finite, their difference is not
        wide = (SurfacePoint(0.5, 1e308), SurfacePoint(2.6, -1e308))
        off = (SurfacePoint(1.0, 0.0), SurfacePoint(-1.0, 0.5))
        with pytest.raises(SolveError, match="not finite"):
            connect_geodesics(sphere, [ok, wide, off])
        with pytest.raises(OffChartError):
            connect_geodesics(sphere, [ok, off, wide])
        assert connect_geodesics(sphere, []) == []

    def test_meridian_arc_over_budget_runs_no_fan(self, monkeypatch):
        """On a vase whose psi jumps to 100 at u = 3.5, the chord from A to
        B is 1.4 but every curve between them is at least the meridian arc
        33.5 long, and the curve along the meridian and then the shorter
        parallel, 34.4 long, joins them.  ``_check_cold`` finds both bounds
        with no fan or shot.  The connect itself answers 33.518 after some
        50 s of search, too long to run here."""
        rows = [[0.5 * k, 1.2 + 0.35 * math.sin(0.65 * k) + 0.025 * k,
                 0.5 * k + 0.2 * math.sin(0.5 * k)] for k in range(17)]
        rows[7][2] = 100.0
        vase = make_surface("custom", samples=rows)
        calls = []

        def counted(name):
            real = getattr(connect_mod, name)

            def call(*args):
                calls.append(name)
                return real(*args)
            return call

        for name in ("shoot_fan", "shoot"):
            monkeypatch.setattr(connect_mod, name, counted(name))
        A, B = SurfacePoint(2.0, 0.0), SurfacePoint(3.0, 0.8)
        arc_lo, reach = connect_mod._check_cold(vase, A, B)[4:]
        chord = connect_mod._chord(vase, A, B)[1]
        assert chord == pytest.approx(1.360, abs=1e-3)
        assert arc_lo == pytest.approx(33.504, abs=1e-3)
        assert reach == pytest.approx(34.392, abs=1e-3)
        assert calls == []


class TestOptions:
    def test_option_validation(self):
        with pytest.raises(TypeError, match="max_len"):
            ConnectOptions(max_len=20.0)
        with pytest.raises(ValueError):
            ConnectOptions(resid_tol=-1.0)
        with pytest.raises(ValueError):
            ConnectOptions(shoot_tol=0.0)
        with pytest.raises(TypeError, match="windings"):
            ConnectOptions(windings=(0, -2 ** 31 - 1))
        assert [f.name for f in dataclasses.fields(ConnectOptions)] == [
            "resid_tol", "shoot_tol"]

    def test_tolerance_bounds(self):
        """resid_tol is a length of at most 1e-6, and shoot_tol at least
        1e-16, the smallest power of ten the integrator meets on every
        bundled scenario."""
        ConnectOptions(resid_tol=1e-6, shoot_tol=1e-16)
        with pytest.raises(ValueError, match="resid_tol"):
            ConnectOptions(resid_tol=1.0000001e-6)
        with pytest.raises(ValueError, match="shoot_tol"):
            ConnectOptions(shoot_tol=0.99e-16)
        with pytest.raises(ValueError, match="resid_tol"):
            ConnectOptions(resid_tol=math.nan)

    @pytest.mark.parametrize("windings", [(1,), (-1, 1), (2,)])
    def test_windings_without_0_rejected(self, windings):
        """The search windings are fixed, -1, 0 and 1 from the copy of B
        nearest A, so ``windings`` is no option: any value is rejected
        rather than ignored."""
        with pytest.raises(TypeError, match="windings"):
            ConnectOptions(windings=windings)


def _vase():
    """The wavy 17-knot vase of the CLI fuzz tests."""
    return make_surface("custom", samples=[
        [0.5 * k, 1.2 + 0.35 * math.sin(0.65 * k) + 0.025 * k,
         0.5 * k + 0.2 * math.sin(0.5 * k)] for k in range(17)])


def _full_fan(surface, A, B):
    """Length and step count of the pair's full screening fan."""
    near = connect_mod._check_cold(surface, A, B)[0]
    chord = connect_mod._chord(surface, A, near)[1]
    L_fan = 3.2 * chord + 0.1
    return L_fan, max(connect_mod._FAN_STEPS, min(320, int(L_fan * 16)))


def _full_fan_path(surface, A, B, opts=connect_mod._DEFAULT):
    """``_polish`` fed the pair's full screening fan, every step up to
    ``3.2 chord + 0.1``, as the fan ran before it was cut at the seed's
    length, with no winding settled, with no reach capping Newton and
    with no root in hand told to Newton: every pick is polished to
    convergence, as in a search without the cuts.  The first start is
    the solver's own ``_seed``."""
    target = (*connect_mod._check_cold(surface, A, B)[:5], math.inf)
    near, _, s_e, s_g, _, reach = target
    seed = connect_mod._seed(surface, A, near)
    thetas = [*connect_mod._FAN_HEADINGS,
              connect_mod._chord(surface, A, near)[0]]
    L_fan, n_steps = _full_fan(surface, A, B)
    fan = geodesics_mod.shoot_fan(surface, [A] * len(thetas), thetas,
                                  [L_fan / n_steps] * len(thetas), n_steps)
    newton = connect_mod._newton

    def unabsorbed(surface, A, u_t, v_t, s_e, s_g, theta, L, reach, opts,
                   known=()):
        return newton(surface, A, u_t, v_t, s_e, s_g, theta, L, reach, opts)

    seeded = newton(surface, A, near.u, near.v, s_e, s_g, *seed[:2], reach,
                    opts)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(connect_mod, "_newton", unabsorbed)
        return connect_mod._polish(
            surface, A, target,
            (thetas, np.linspace(0.0, L_fan, n_steps + 1), *fan),
            (seed, seeded), set(), opts)


class TestChordSeedFirst:
    """A pair whose chord seed converges to length L* reads its fan only
    up to about 1.1 L*: a prefix of the full fan, with the same answer."""
    SURFACES = {**{name: build for name, (build, _) in
                   TestInvariants.SAMPLERS.items()},
                "vase": _vase}
    DRAWS = {**{name: draw for name, (_, draw) in
                TestInvariants.SAMPLERS.items()},
             "vase": lambda rng: tuple(
                 SurfacePoint(rng.uniform(1.0, 6.0), rng.uniform(-1.0, 1.0))
                 for _ in range(2))}
    # the cylinder half-turn tie and a near-antipodal sphere pair
    EXTRA = {"cylinder": [((0.0, 0.0), (0.7, math.pi))],
             "sphere": [((1.2, 0.1), (math.pi - 1.2, 0.1 + math.pi - 1e-3))]}

    @pytest.mark.parametrize("name", sorted(SURFACES))
    def test_full_fan_gives_the_same_path(self, name):
        surface = self.SURFACES[name]()
        rng = np.random.default_rng(41)
        pairs = [self.DRAWS[name](rng) for _ in range(6)]
        pairs += [(SurfacePoint(*a), SurfacePoint(*b))
                  for a, b in self.EXTRA.get(name, [])]
        for A, B in pairs:
            got = connect_geodesic(surface, A, B)
            want = _full_fan_path(surface, A, B)
            assert np.array_equal(got.samples, want.samples)
            assert (got.winding, got.ambiguous) == (want.winding,
                                                    want.ambiguous)
        if name == "cylinder":
            assert got.ambiguous        # the half-turn tie

    @staticmethod
    def _fan_steps(monkeypatch):
        steps = []
        real = connect_mod.shoot_fan

        def counted(surface, starts, thetas, step_sizes, n_steps):
            steps.append((step_sizes[0], n_steps))
            return real(surface, starts, thetas, step_sizes, n_steps)

        monkeypatch.setattr(connect_mod, "shoot_fan", counted)
        return steps

    # a torus pair with five Newton starts; the chord seed's geodesic is
    # the answer, and a fan seed finds it too
    TORUS_PAIR = (SurfacePoint(0.3, -0.5), SurfacePoint(-1.0, 0.6))

    def test_fan_runs_to_the_chord_seed_length(self, paraboloid,
                                               monkeypatch):
        A, B = SurfacePoint(1.2, 0.3), SurfacePoint(1.5, 1.0)
        steps = self._fan_steps(monkeypatch)
        path = connect_geodesic(paraboloid, A, B)
        L_fan, n_full = _full_fan(paraboloid, A, B)
        h = L_fan / n_full
        # the chord seed's geodesic is the answer here
        assert steps == [(h, min(n_full,
                                 math.ceil(1.1 * path.length / h) + 2))]
        assert steps[0][1] < n_full

    def test_failed_chord_seed_runs_the_full_fan(self, monkeypatch):
        torus = make_surface("torus", R=2.0, r=0.7)
        A, B = self.TORUS_PAIR
        want = connect_geodesic(torus, A, B)
        steps = self._fan_steps(monkeypatch)
        real = connect_mod._newton
        calls = []

        def chord_fails(*args):
            calls.append(args)
            got, *rest = real(*args)
            return (None if len(calls) == 1 else got, *rest)

        monkeypatch.setattr(connect_mod, "_newton", chord_fails)
        path = connect_geodesic(torus, A, B)
        L_fan, n_full = _full_fan(torus, A, B)
        assert steps == [(L_fan / n_full, n_full)]
        assert path.length == pytest.approx(want.length, abs=1e-10)

    def test_chord_seed_is_polished_once(self, monkeypatch):
        torus = make_surface("torus", R=2.0, r=0.7)
        A, B = self.TORUS_PAIR
        real = connect_mod._newton
        starts = []

        def counted(surface, A_, u_t, v_t, s_e, s_g, theta0, L0, *rest):
            starts.append((v_t, theta0, L0))
            return real(surface, A_, u_t, v_t, s_e, s_g, theta0, L0, *rest)

        monkeypatch.setattr(connect_mod, "_newton", counted)
        connect_geodesic(torus, A, B)
        chord = float(np.linalg.norm(torus.embed(B) - torus.embed(A)))
        assert starts[0] == (B.v, connect_mod._chord(torus, A, B)[0],
                             chord)
        assert len(starts) == 5
        assert len(set(starts)) == len(starts)

    def test_unreachable_error_names_the_work(self, sphere, monkeypatch):
        """Every Newton start fails: the error says so, naming the seed
        that failed first, with the starts and shots per winding and the
        best screened residual.  The sphere's seed is its great circle,
        the torus's the chord."""
        real_newton, real_shoot = connect_mod._newton, connect_mod.shoot
        shots, starts = [], []

        def failing(*args):
            starts.append(args)
            return None, real_newton(*args)[1], None

        def counted(*args):
            shots.append(args)
            return real_shoot(*args)

        monkeypatch.setattr(connect_mod, "_newton", failing)
        monkeypatch.setattr(connect_mod, "shoot", counted)
        torus = make_surface("torus", R=2.0, r=0.7)
        for surface, (A, B), seed in [
                (sphere, (SurfacePoint(1.2, 0.3), SurfacePoint(1.5, 1.0)),
                 "closed-form seed"),
                (torus, TestChordSeedFirst.TORUS_PAIR, "chord seed")]:
            shots.clear()
            starts.clear()
            with pytest.raises(SolveError) as err:
                connect_geodesic(surface, A, B)
            text = str(err.value)
            head, tallies, best = text.split("; ")
            assert head == (f"unreachable within search budget: the {seed} "
                            "did not converge")
            prefix = "Newton starts/shots per winding from the copy of B " \
                     "nearest A: "
            assert tallies.startswith(prefix)
            spent = [part.split(": ")[1].split("/")
                     for part in tallies[len(prefix):].split(", ")]
            assert sum(int(n) for n, _ in spent) == len(starts)
            assert sum(int(m) for _, m in spent) == len(shots)
            assert float(best.removeprefix("best screened residual ")) > 0.0


class TestSettle:
    """Once the chord seed converges, a winding in which no other
    candidate can win, tie or make the answer ambiguous is settled: its
    picks are not polished, and a pair with every winding settled runs no
    fan."""

    @staticmethod
    def _count(monkeypatch):
        """Record every Newton start's target v and every fan call."""
        starts, fans = [], []
        newton, fan = connect_mod._newton, connect_mod.shoot_fan

        def counted_newton(surface, A, u_t, v_t, *rest):
            starts.append(v_t)
            return newton(surface, A, u_t, v_t, *rest)

        def counted_fan(*args):
            fans.append(args)
            return fan(*args)

        monkeypatch.setattr(connect_mod, "_newton", counted_newton)
        monkeypatch.setattr(connect_mod, "shoot_fan", counted_fan)
        return starts, fans

    # the sphere and torus pairs are shorter than the injectivity radius,
    # pi on the sphere and 2.199 on the torus
    @pytest.mark.parametrize("name, a, b", [
        ("cylinder", (0.0, 0.0), (1.0, 0.5 * math.pi)),
        ("catenoid", (-1.0, 0.3), (0.8, -1.1)),
        ("sphere", (1.2, 0.3), (1.5, 1.0)),
        ("torus", (0.5, 0.2), (1.2, 0.8)),
    ])
    def test_settled_pair_makes_one_start_and_no_fan(self, name, a, b,
                                                     request, monkeypatch):
        surface = request.getfixturevalue(name)
        A, B = SurfacePoint(*a), SurfacePoint(*b)
        want = _full_fan_path(surface, A, B)
        starts, fans = self._count(monkeypatch)
        path = connect_geodesic(surface, A, B)
        assert (len(starts), fans) == (1, [])
        assert np.array_equal(path.samples, want.samples)
        assert (path.winding, path.ambiguous) == (want.winding, False)

    @pytest.mark.parametrize("name", ["cone", "cone-1", "cylinder", "plane",
                                      "sphere"])
    def test_closed_form_seed_takes_at_most_two_shots(self, name,
                                                      monkeypatch):
        """Seeded at its closed-form geodesic, a settled cold connect on
        the kinds that have one lands on B at its first shot, or its
        second when the integrator's error exceeds resid_tol: at most two
        ``_integrate`` calls and one Newton start."""
        build, draw = TestInvariants.SAMPLERS[name.split("-")[0]]
        surface = (make_surface("cone", slope=-1.0) if name == "cone-1"
                   else build())
        starts, fans = self._count(monkeypatch)
        calls = []
        real = geodesics_mod._integrate

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(geodesics_mod, "_integrate", counted)
        rng = np.random.default_rng(83)
        settled = 0
        for _ in range(30):
            A, B = draw(rng)
            starts.clear()
            fans.clear()
            calls.clear()
            connect_geodesic(surface, A, B)
            if not fans:
                settled += 1
                assert len(starts) == 1
                assert len(calls) <= 2
        assert settled >= 29

    def test_reference_search_polishes_settled_windings(self, catenoid,
                                                        monkeypatch):
        """``_full_fan_path`` settles nothing, so it stays a search without
        the cuts: on the settled catenoid pair it polishes fan picks."""
        starts, _ = self._count(monkeypatch)
        _full_fan_path(catenoid, SurfacePoint(-1.0, 0.3),
                       SurfacePoint(0.8, -1.1))
        assert len(starts) > 1

    def test_cone_polishes_no_winding_0_pick(self, monkeypatch):
        """K = 0 settles winding 0 on the cone.  The band that this pair's
        curves of the chord seed's length can reach goes down to u = 0.44,
        too near the apex to settle windings -1 and 1, so the fan runs."""
        cone = make_surface("cone", slope=1.0)
        A = SurfacePoint(3.887492086001204, -0.09003309696647355)
        B = SurfacePoint(1.9520288075321444, 2.6655594505241016)
        want = _full_fan_path(cone, A, B)
        starts, fans = self._count(monkeypatch)
        path = connect_geodesic(cone, A, B)
        assert len(fans) == 1
        assert starts[0] == B.v
        assert B.v not in starts[1:]
        assert np.array_equal(path.samples, want.samples)

    def test_half_turn_tie_runs_the_fan(self, cylinder, monkeypatch):
        """The winding -1 copy of B is as near as B* itself: the bound does
        not settle it, and its pick finds the tie."""
        starts, fans = self._count(monkeypatch)
        path = connect_geodesic(cylinder, SurfacePoint(0.0, 0.0),
                                SurfacePoint(0.7, math.pi))
        assert len(fans) == 1
        assert any(v != math.pi for v in starts)
        assert path.ambiguous

    def test_settled_batch_runs_no_fan(self, cylinder, monkeypatch):
        pairs = [(SurfacePoint(*a), SurfacePoint(*b)) for a, b in [
            ((0.0, 0.0), (1.0, 0.5 * math.pi)), ((0.0, 0.0), (3.0, 1.0)),
            ((1.0, 2.0), (-2.5, 0.0)), ((-1.0, 0.5), (-1.0, 0.5))]]
        alone = [connect_geodesic(cylinder, A, B) for A, B in pairs]
        starts, fans = self._count(monkeypatch)
        batch = connect_geodesics(cylinder, pairs)
        assert (len(starts), fans) == (3, [])
        for got, want, (A, B) in zip(batch, alone, pairs):
            assert np.array_equal(got.samples, want.samples)
            assert got.length == pytest.approx(
                math.hypot(B.u - A.u, math.remainder(B.v - A.v, 2 * math.pi)),
                rel=1e-10)

    def test_surface_bounds(self):
        """phi_min over a band wider than the default chart is phi's floor
        on and off the chart, and the custom spline claims no bound.
        inj_floor is pi R on the sphere, ``pi min(sqrt(r (R + r)), r, R -
        r)`` on the torus and 0 on the other kinds.  e_floor bounds sqrt(E), and phi_min(lo, hi) bounds
        |phi| on every sampled band, on and off the chart."""
        rng = np.random.default_rng(79)
        for kind, params, floor, flat_or_saddle, inj, e_floor in [
                ("cylinder", dict(radius=2.0), 2.0, True, 0.0, 1.0),
                ("catenoid", dict(a=0.5), 0.5, True, 0.0, 1.0),
                ("torus", dict(R=2.0, r=0.7), 1.3, False, 0.7 * math.pi,
                 0.7),
                # a fat torus: the inner equator, 2 pi (R - r) long
                ("torus", dict(R=1.0, r=0.8), 1.0 - 0.8, False,
                 0.2 * math.pi, 0.8),
                ("cone", dict(slope=0.8), 0.0, True, 0.0,
                 math.sqrt(1.64)),
                ("cone", dict(slope=-2.0), 0.0, True, 0.0, math.sqrt(5.0)),
                ("plane", {}, 0.0, True, 0.0, 1.0),
                ("sphere", dict(radius=2.0), 0.0, False, 2.0 * math.pi,
                 2.0),
                ("paraboloid", dict(a=1.0), 0.0, False, 0.0, 1.0)]:
            surface = make_surface(kind, **params)
            bounds = surface.bounds
            assert bounds.phi_min(surface.u_min - 5.0,
                                  surface.u_max + 5.0) == floor
            assert bounds.nonpositive_curvature == flat_or_saddle
            assert bounds.inj_floor == pytest.approx(inj, rel=1e-15)
            assert bounds.e_floor == pytest.approx(e_floor, rel=1e-15)
            u = np.linspace(surface.u_min - 5.0, surface.u_max + 5.0, 401)
            E, _, _, _, phi = surface.metric_terms_batch(u)
            assert np.all(np.sqrt(E) >= bounds.e_floor)
            if floor > 0.0:
                assert np.all(phi >= floor * (1.0 - 1e-15))
            if flat_or_saddle:
                assert all(surface.curvature(x) <= 0.0
                           for x in u[phi > 0.0].tolist())
            for _ in range(200):
                lo, hi = np.sort(rng.uniform(surface.u_min - 5.0,
                                             surface.u_max + 5.0, 2))
                if rng.uniform() < 0.5:     # a narrow band
                    hi = lo + rng.uniform(0.0, 0.3)
                band = np.linspace(lo, hi, 301)
                least = np.min(np.abs(surface.metric_terms_batch(band)[4]))
                assert bounds.phi_min(lo, hi) <= least * (1.0 + 1e-15)
        vase = _vase().bounds
        assert (vase.nonpositive_curvature, vase.inj_floor, vase.e_floor,
                vase.phi_min(0.0, 8.0)) == (False, 0.0, 0.0, 0.0)
        with pytest.raises(AttributeError):
            make_surface("cylinder", radius=1.0).bounds.e_floor = 5.0
        with pytest.raises(AttributeError):
            make_surface("sphere", radius=1.0).bounds.inj_floor = 5.0
        with pytest.raises(AttributeError):
            make_surface("sphere", radius=1.0).bounds = None

    def test_inj_floor_against_closed_forms(self):
        """Every non-antipodal sphere pair has its shortest arc below
        ``inj_floor = pi R``, and the only other geodesics, the rest of
        the great circle and arcs that wind more, are at least that long.
        Two points on one torus meridian are joined by its two arcs: when
        one is below ``inj_floor``, the other is not."""
        rng = np.random.default_rng(71)
        for radius in (0.5, 1.0, 3.0):
            sphere = make_surface("sphere", radius=radius)
            for _ in range(200):
                A, B, sep = _sphere_pair(rng, sep_lo=1e-3, sep_hi=math.pi
                                         - 1e-6)
                d = radius * sep
                assert d < sphere.bounds.inj_floor
                assert 2.0 * math.pi * radius - d >= sphere.bounds.inj_floor
        for R, r in [(2.0, 0.7), (1.0, 0.8), (3.0, 0.5)]:
            torus = make_surface("torus", R=R, r=r)
            for d in np.linspace(1e-3, math.pi, 200):
                short, other = r * d, r * (2.0 * math.pi - d)
                if short < torus.bounds.inj_floor:
                    assert other >= torus.bounds.inj_floor

    def test_settle_changes_no_path(self, monkeypatch):
        """Random sphere, torus and cone pairs get the same path with no
        winding ever settled, in a search that polishes every pick."""
        _, fans = self._count(monkeypatch)
        settled = {}
        for name in ("sphere", "torus", "cone"):
            build, draw = TestInvariants.SAMPLERS[name]
            surface = build()
            rng = np.random.default_rng(73)
            pairs = [draw(rng) for _ in range(40)]
            fans.clear()
            got = [connect_geodesic(surface, A, B) for A, B in pairs]
            settled[name] = len(pairs) - len(fans)
            with monkeypatch.context() as patch:
                patch.setattr(connect_mod, "_settled", lambda *args: set())
                want = [connect_geodesic(surface, A, B) for A, B in pairs]
            for g, w in zip(got, want):
                assert np.array_equal(g.samples, w.samples)
                assert (g.winding, g.ambiguous) == (w.winding, w.ambiguous)
        assert settled["sphere"] == 40
        assert settled["torus"] > 0
        assert settled["cone"] > 0


class TestWindingBound:
    """``_winding_bound`` at a length ``bar`` is at most the length of every
    geodesic to its copy of B that is at most ``bar`` long, and so never
    settles a winding that could win.  Each check takes ``bar`` at the
    geodesic's own length, the narrowest band it can reach: a longer bar
    widens the band and lowers the bound."""

    @staticmethod
    def _pairs(rng, lo, hi, n):
        return [tuple(SurfacePoint(rng.uniform(lo, hi), rng.uniform(-4, 4))
                      for _ in range(2)) for _ in range(n)]

    def test_cylinder_closed_form(self):
        cylinder = make_surface("cylinder", radius=1.5)
        for A, B in self._pairs(np.random.default_rng(61), -3.0, 3.0, 100):
            target = connect_mod._check_cold(cylinder, A, B)
            near = target[0]
            for k in range(-2, 3):
                length = math.hypot(B.u - A.u,
                                    1.5 * (near.v + 2 * math.pi * k - A.v))
                bound = connect_mod._winding_bound(cylinder, A, target, k,
                                                   length)
                assert bound <= length * (1.0 + 1e-12)

    # the torus's reference searches take about 0.15 s a pair
    @pytest.mark.parametrize("name, lo, hi, n", [
        ("catenoid", -1.2, 1.2, 80), ("torus", -math.pi, math.pi, 20),
        ("cone", 0.5, 3.0, 20), ("paraboloid", 2.0, 6.0, 20)],
        ids=["catenoid", "torus", "cone", "paraboloid"])
    def test_every_converged_candidate(self, name, lo, hi, n, monkeypatch):
        """Every candidate of a search without the cuts, of every winding;
        each stays inside the u-band that its bound takes phi's least
        value over."""
        surface = TestInvariants.SAMPLERS[name][0]()
        found, bands = [], []
        real = connect_mod._newton

        def recorded(surface_, A, u_t, v_t, *rest):
            result = real(surface_, A, u_t, v_t, *rest)
            got = result[0]
            if got is not None:
                us = got.path.samples[:, 1]
                found.append((v_t, got.length, got.theta, us.min(),
                              us.max()))
            return result

        def phi_min(lo_, hi_):
            bands.append((lo_, hi_))
            return bounds.phi_min(lo_, hi_)

        bounds = surface.bounds
        monkeypatch.setattr(connect_mod, "_newton", recorded)
        monkeypatch.setattr(surface, "_bounds",
                            dataclasses.replace(bounds, phi_min=phi_min))
        windings = set()
        below_inj = 0
        for A, B in self._pairs(np.random.default_rng(67), lo, hi, n):
            found.clear()
            best = _full_fan_path(surface, A, B)
            target = connect_mod._check_cold(surface, A, B)
            for v_t, length, _, u_lo, u_hi in found:
                k = round((v_t - target[0].v) / (2 * math.pi))
                windings.add(k)
                bands.clear()
                bound = connect_mod._winding_bound(surface, A, target, k,
                                                   length)
                assert bound <= length + 1e-9
                (band_lo, band_hi), = bands
                assert band_lo - 1e-9 <= u_lo and u_hi <= band_hi + 1e-9
            if best.length < bounds.inj_floor:
                # below the injectivity radius, every other geodesic to
                # any copy of B is at least inj_floor long
                below_inj += 1
                for v_t, length, theta, _, _ in found:
                    same = (abs(v_t - best.end().v) <= 1e-8
                            and abs(length - best.length) <= 1e-8
                            and abs(math.remainder(
                                theta - best.theta_start, 2 * math.pi))
                            <= 1e-8)
                    assert same or length >= bounds.inj_floor
        assert windings >= {-1, 0, 1}
        assert (below_inj > 0) == (bounds.inj_floor > 0.0)


class TestKnownRoots:
    """A polish start whose full Newton step lands on a root already in
    hand, of its own winding, at a Newton rate is absorbed: it makes no
    more shots and returns no candidate, where it would have converged
    to that root again and been dropped as a duplicate."""

    # the worked torus pair: its seed converges, and both fan picks are
    # of winding 0 and converge back to the seed's geodesic
    PAIR = (SurfacePoint(-1.0, 0.5), SurfacePoint(1.5, 1.6))
    LENGTH = 3.231650632598152

    @staticmethod
    def _starts(monkeypatch):
        """Record every Newton start's (theta, L), shots and result."""
        starts = []
        real = connect_mod._newton

        def recorded(surface, A, u_t, v_t, s_e, s_g, theta, L, *rest):
            result = real(surface, A, u_t, v_t, s_e, s_g, theta, L, *rest)
            starts.append((theta, L, result[1], result[0]))
            return result

        monkeypatch.setattr(connect_mod, "_newton", recorded)
        return starts

    def test_polish_starts_take_one_shot(self, torus, monkeypatch):
        """The seed takes 6 shots, and each of the two polish starts one:
        8 ``_integrate`` calls, against 15 when each start converged (6,
        4 and 5 shots)."""
        starts = self._starts(monkeypatch)
        calls = []
        real = geodesics_mod._integrate

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(geodesics_mod, "_integrate", counted)
        path = connect_geodesic(torus, *self.PAIR)
        assert path.length == self.LENGTH
        assert (path.winding, path.ambiguous) == (0, False)
        assert len(starts) == 3 and starts[0][3] is not None
        assert [(shots, got) for _, _, shots, got in starts[1:]] == [
            (1, None), (1, None)]
        assert len(calls) <= 8

    def test_newton_absorbs_a_start_near_a_known_root(self, torus,
                                                       monkeypatch):
        """From the pair's first fan pick, Newton told of the seed's root
        stops after one shot; told of none, it converges to that root."""
        newton = connect_mod._newton
        starts = self._starts(monkeypatch)
        root = connect_geodesic(torus, *self.PAIR)
        theta, L = starts[1][:2]
        A, B = self.PAIR
        near, _, s_e, s_g, _, reach = connect_mod._check_cold(torus, A, B)
        args = (torus, A, near.u, near.v, s_e, s_g, theta, L, reach,
                connect_mod._DEFAULT)
        known = [(root.theta_start, root.length)]
        assert newton(*args, known) == (None, 1, None)
        got, shots, _ = newton(*args)
        assert shots > 1
        assert got.theta == pytest.approx(root.theta_start, abs=1e-8)
        assert got.length == pytest.approx(root.length, abs=1e-8)

    def test_absorbed_starts_change_no_answer(self, torus):
        """On random torus pairs, the connect equals the search without
        cuts, whose every pick is polished to convergence."""
        draw = TestInvariants.SAMPLERS["torus"][1]
        rng = np.random.default_rng(97)
        for _ in range(40):
            A, B = draw(rng)
            got = connect_geodesic(torus, A, B)
            want = _full_fan_path(torus, A, B)
            assert got.length == want.length
            assert (got.winding, got.ambiguous) == (want.winding,
                                                    want.ambiguous)
            assert np.array_equal(got.samples, want.samples)

    def test_close_roots_stay_ambiguous(self, torus):
        """Just past the outer equator's conjugate point, B has two
        geodesics of winding 0 leaving at +-0.0364: a start near one is
        not absorbed into the other."""
        path = connect_geodesic(torus, SurfacePoint(0.0, 0.0),
                                SurfacePoint(0.0, 1.6))
        assert path.ambiguous
        assert path.length == 4.319999660227056
        assert abs(path.theta_start) == pytest.approx(0.0364, abs=1e-4)


class TestChordWork:
    """Only the chord seed and the fan read the embedded chord, so only
    they embed A and B*: a cold pair settled at its closed-form seed and
    a warm connect embed nothing, and a pair that runs the fan embeds
    each point once for its chord seed and once for its fan."""

    SPHERE_PAIR = (SurfacePoint(1.1, 0.2), SurfacePoint(1.7, 1.4))

    @staticmethod
    def _embeds(monkeypatch):
        calls = []
        real = ProfileSurface.embed

        def counted(self, p):
            calls.append(p)
            return real(self, p)

        monkeypatch.setattr(ProfileSurface, "embed", counted)
        return calls

    def test_settled_sphere_pair_embeds_nothing(self, sphere, monkeypatch):
        calls = self._embeds(monkeypatch)
        A, B = self.SPHERE_PAIR
        path = connect_geodesic(sphere, A, B)
        # the great circle on the unit sphere, u the colatitude
        assert path.length == pytest.approx(math.acos(
            math.cos(A.u) * math.cos(B.u)
            + math.sin(A.u) * math.sin(B.u) * math.cos(B.v - A.v)), abs=1e-10)
        assert calls == []

    def test_warm_connect_embeds_nothing(self, sphere, monkeypatch):
        A, B = self.SPHERE_PAIR
        cold = connect_geodesic(sphere, A, B)
        calls = self._embeds(monkeypatch)
        path = connect_geodesic(sphere, A, B, initial=(
            cold.theta_start + 1e-3, cold.length + 1e-3, cold.length))
        assert path.length == pytest.approx(cold.length, abs=1e-10)
        assert calls == []

    def test_fan_pair_embeds_each_point_twice(self, torus, monkeypatch):
        """The pair of ``scenarios/torus_pair.json`` runs the fan."""
        fans = []
        real_fan = connect_mod.shoot_fan

        def fan(*args):
            fans.append(args)
            return real_fan(*args)

        monkeypatch.setattr(connect_mod, "shoot_fan", fan)
        calls = self._embeds(monkeypatch)
        A, B = TestKnownRoots.PAIR
        assert connect_geodesic(torus, A, B).length == TestKnownRoots.LENGTH
        assert len(fans) == 1
        assert len(calls) == 4


class TestHalfTurn:
    """The metric does not depend on v, so a curve from A that turns more
    than half a turn about the axis is no shorter than the same u-travel
    with its v-travel scaled down to a nearer copy of B.  Every answer
    that is not a half-turn tie therefore ends at B*, the copy of B
    nearest A: its winding is the whole turns ``round((A.v - B.v) / 2
    pi)`` from B as given.  (The custom vase is left out: its fan screen
    is not known to find the shortest geodesic of every pair.)"""

    # per kind: parameters and the u range of both points
    KINDS = {"sphere": (dict(radius=1.0), 0.3, 2.8),
             "cylinder": (dict(radius=1.0), -2.0, 2.0),
             "cone": (dict(slope=1.0), 0.5, 3.0),
             "paraboloid": (dict(a=1.0), 0.5, 2.0),
             "catenoid": (dict(a=1.0), -1.2, 1.2),
             "torus": (dict(R=2.0, r=0.7), -math.pi, math.pi)}

    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_answer_ends_at_the_nearest_copy(self, name):
        params, lo, hi = self.KINDS[name]
        surface = make_surface(name, **params)
        rng = np.random.default_rng(83)
        for _ in range(25):
            A = SurfacePoint(rng.uniform(lo, hi), rng.uniform(-math.pi,
                                                              math.pi))
            # B up to half a turn from A, given up to two turns away
            B = SurfacePoint(rng.uniform(lo, hi),
                             A.v + rng.uniform(-math.pi, math.pi)
                             + 2.0 * math.pi * int(rng.integers(-2, 3)))
            path = connect_geodesic(surface, A, B)
            if not path.ambiguous:
                assert path.winding == round((A.v - B.v) / (2.0 * math.pi))


# the benchmark's wavy vase: 17 knots on u in [0, 8]
_BENCH_U = np.linspace(0.0, 8.0, 17)
_BENCH_VASE = np.column_stack([
    _BENCH_U, 1.2 + 0.35 * np.sin(1.3 * _BENCH_U) + 0.05 * _BENCH_U,
    _BENCH_U + 0.2 * np.sin(_BENCH_U)]).round(12).tolist()


def test_benchmark_vase_pair_finds_the_shorter_winding():
    """A winding -1 geodesic of length 5.7239 exists.  The chord seed fails
    here, and a failed seed opens no duplicate window in the screen: the
    fan pick near its heading is polished and finds that geodesic, where
    a longer one of 7.2034 at winding 0 was returned while the failed seed
    hid the pick."""
    vase = make_surface("custom", samples=_BENCH_VASE)
    path = connect_geodesic(vase,
                            SurfacePoint(7.192224875137635, -2.6154007939265567),
                            SurfacePoint(2.706319274019626, 1.379655701486345))
    assert path.length <= 5.7239 + 1e-6


# torus pairs (R = 2, r = 0.7) that the cold connect reports unreachable,
# though each has a winding-0 geodesic to B*, the copy of B nearest A: A,
# B, the whole turns from B to B*, a warm start (heading, length) near
# that geodesic and its length.  In both the chord seed fails and no fan
# pick converges to it
_TORUS_MISSES = {
    # the 17-lane fan misses the heading band of a 720-lane fan's closest
    # pass, near -2.090
    "fan-gap": (SurfacePoint(0.2042645290357763, -1.0152909252698796),
                SurfacePoint(-2.423463767362918, 2.379163010530358), -1,
                (-2.090, 5.41), 5.411914),
    # pair 84 (0-based) of 120 random torus pairs, u and v in [-3, 3],
    # drawn A.u, A.v, B.u, B.v from default_rng(11) after 120 paraboloid
    # pairs; found by Newton from 64 headings times 3 lengths
    "random-pair": (SurfacePoint(0.6442421743026703, -0.5136920147500685),
                    SurfacePoint(-1.132429408337441, -2.409942171995561), 0,
                    (-2.326828, 4.757648), 4.757648),
}


def test_torus_miss_pair_has_a_geodesic():
    """Each pair is reachable: a warm start, bounded by the pair's reach,
    converges to a winding-0 geodesic to B*."""
    torus = make_surface("torus", R=2.0, r=0.7)
    for A, B, turns, start, length in _TORUS_MISSES.values():
        near = SurfacePoint(B.u, B.v + 2.0 * math.pi * turns)
        # the curve along the meridian and the shorter parallel
        reach = connect_mod._check_cold(torus, A, near)[5]
        assert length < reach
        path = connect_geodesic(torus, A, near, initial=(*start, reach))
        assert path.winding == 0
        assert path.length == pytest.approx(length, abs=1e-6)
        end = path.end()
        assert abs(end.u - near.u) <= 1e-9 and abs(end.v - near.v) <= 1e-9


@pytest.mark.xfail(strict=True, raises=SolveError,
                   reason="the 17-lane screening fan misses the heading band "
                   "of the geodesic and the chord seed does not converge "
                   "(needs a global-minimality audit or a finer screen)")
@pytest.mark.parametrize("name", sorted(_TORUS_MISSES))
def test_torus_pair_is_reachable(name):
    """The cold connect raises 'unreachable within search budget' though
    a winding-0 geodesic of the length above exists."""
    torus = make_surface("torus", R=2.0, r=0.7)
    A, B, _, _, length = _TORUS_MISSES[name]
    path = connect_geodesic(torus, A, B)
    assert path.length <= length + 1e-6


# two points on the torus's outer equator, 5.4 apart along it: the equator
# arc passes its conjugate point, at pi sqrt(r (R + r)) = 4.319
_TORUS_EQUATOR = (SurfacePoint(0.0, 0.0), SurfacePoint(0.0, 2.0))


def test_equator_pair_has_two_shorter_geodesics():
    """Warm starts on either side of the equator converge to two mirror
    geodesics of length 5.175373, each with m1 > 0 at its end, while the
    equator arc's end m1 is negative: it is past its conjugate point and
    not minimal (do Carmo, Riemannian Geometry, ch. 5)."""
    torus = make_surface("torus", R=2.0, r=0.7)
    A, B = _TORUS_EQUATOR
    arc = shoot(torus, A, 0.0, 5.4)
    assert arc.jacobi()[0] < 0.0
    reach = connect_mod._check_cold(torus, A, B)[5]
    for theta in (0.84, -0.84):
        path = connect_geodesic(torus, A, B, initial=(theta, 5.2, reach))
        assert path.length == pytest.approx(5.175373, abs=1e-6)
        assert path.theta_start == pytest.approx(theta, abs=0.01)
        assert path.jacobi()[0] > 0.0
        end = path.end()
        assert abs(end.u - B.u) <= 1e-9 and abs(end.v - B.v) <= 1e-9


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the chord seed converges to the equator arc, past "
                   "its conjugate point, and the fan lane along the equator "
                   "narrows the screening cutoff so that no other pick is "
                   "polished (needs a conjugate-point cut or a global audit)")
def test_equator_pair_past_its_conjugate_point_is_a_tie():
    """The cold connect returns the equator arc, 5.4 long, at heading 0,
    with no error and no ambiguity flag."""
    torus = make_surface("torus", R=2.0, r=0.7)
    path = connect_geodesic(torus, *_TORUS_EQUATOR)
    assert path.length <= 5.175373 + 1e-6
    assert path.ambiguous
