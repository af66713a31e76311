import math

import numpy as np
import pytest

import geofermat.connect as connect_mod
import geofermat.geodesics as geodesics_mod
from geofermat import (ConnectOptions, OffChartError, SolveError, SurfacePoint,
                       connect_geodesic, connect_geodesics, make_surface,
                       shoot)
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
        opts = ConnectOptions(max_len=0.5)
        with pytest.raises(SolveError):
            connect_geodesic(cylinder, SurfacePoint(0.0, 0.0),
                             SurfacePoint(5.0, 1.0), opts)


class TestAmbiguity:
    def test_cylinder_half_turn_tie(self, cylinder):
        # two helices of exactly equal length wind opposite ways
        path = connect_geodesic(cylinder, SurfacePoint(0.0, 0.0),
                                SurfacePoint(0.7, math.pi))
        assert path.ambiguous
        assert path.length == pytest.approx(math.hypot(0.7, math.pi),
                                            rel=1e-10)

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
        warm = connect_geodesic(sphere, A, B,
                                initial=(cold.theta_start, cold.length))
        assert warm.length == pytest.approx(cold.length, abs=1e-12)
        # the converged Newton shot is the returned path, not shot again
        assert len(calls) == 1
        assert np.array_equal(warm.samples, cold.samples)

    def test_newton_makes_one_shot_per_iteration(self, sphere, monkeypatch):
        """The heading column comes from the Jacobi field of the last shot,
        so each iteration makes one shot: from a start 1e-3 off, Newton
        converges within four shots, each at a new length."""
        A, B = SurfacePoint(1.1, 0.2), SurfacePoint(1.5, 1.1)
        cold = connect_geodesic(sphere, A, B)
        shots = []
        real = connect_mod.shoot

        def counted(surface, p, theta, length, *rest):
            shots.append((theta, length))
            return real(surface, p, theta, length, *rest)

        monkeypatch.setattr(connect_mod, "shoot", counted)
        warm = connect_geodesic(sphere, A, B, initial=(
            cold.theta_start + 1e-3, cold.length - 1e-3))
        assert warm.length == pytest.approx(cold.length, abs=1e-12)
        assert len(shots) <= 4
        assert len({length for _, length in shots}) == len(shots)

    def test_warm_start_leaving_the_chart_falls_back_to_cold(self,
                                                              cylinder):
        """A warm start whose first shot leaves the chart gives Newton no
        candidate, and the connect answers as a cold one."""
        A = SurfacePoint(cylinder.u_max - 0.5, 0.0)
        B = SurfacePoint(cylinder.u_max - 1.0, 1.0)
        assert connect_mod._newton(cylinder, A, B.u, B.v, 1.0, 1.0,
                                   math.pi / 2, 2.0,
                                   connect_mod._DEFAULT) == (None, 1)
        warm = connect_geodesic(cylinder, A, B, initial=(math.pi / 2, 2.0))
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
        far = (SurfacePoint(0.5, 0.0), SurfacePoint(2.6, 1.0))
        off = (SurfacePoint(1.0, 0.0), SurfacePoint(-1.0, 0.5))
        opts = ConnectOptions(max_len=1.0)
        with pytest.raises(SolveError):
            connect_geodesics(sphere, [ok, far, off], opts)
        with pytest.raises(OffChartError):
            connect_geodesics(sphere, [ok, off, far], opts)
        assert connect_geodesics(sphere, []) == []

    def test_meridian_arc_over_budget_runs_no_fan(self, monkeypatch):
        """On a vase whose psi jumps to 100 at u = 3.5, the chord from A to
        B is 1.4 but every curve between them is at least the meridian arc
        33.5 long: the pair is rejected before any fan or shot."""
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
        with pytest.raises(SolveError, match="unreachable within search "
                           "budget: meridian arc 33.5"):
            connect_geodesic(vase, A, B)
        assert calls == []


class TestOptions:
    def test_option_validation(self):
        with pytest.raises(ValueError):
            ConnectOptions(max_len=0.0)
        with pytest.raises(ValueError):
            ConnectOptions(resid_tol=-1.0)
        with pytest.raises(ValueError):
            ConnectOptions(shoot_tol=0.0)
        with pytest.raises(ValueError):
            ConnectOptions(windings=())
        with pytest.raises(ValueError, match="windings must lie within"):
            ConnectOptions(windings=(0, -2 ** 31 - 1))

    @pytest.mark.parametrize("windings", [(1,), (-1, 1), (2,)])
    def test_windings_without_0_rejected(self, windings):
        """The chord seed always searches winding 0, so a search that
        leaves 0 out is rejected rather than answered at winding 0."""
        with pytest.raises(ValueError, match="windings must include 0"):
            ConnectOptions(windings=windings)


def _vase():
    """The wavy 17-knot vase of the CLI fuzz tests."""
    return make_surface("custom", samples=[
        [0.5 * k, 1.2 + 0.35 * math.sin(0.65 * k) + 0.025 * k,
         0.5 * k + 0.2 * math.sin(0.5 * k)] for k in range(17)])


def _full_fan(surface, A, B, opts=connect_mod._DEFAULT):
    """Length and step count of the pair's full screening fan."""
    chord = connect_mod._check_cold(surface, A, B, opts)[4]
    L_fan = min(opts.max_len, 3.2 * chord + 0.1)
    return L_fan, max(connect_mod._FAN_STEPS, min(320, int(L_fan * 16)))


def _full_fan_path(surface, A, B, opts=connect_mod._DEFAULT):
    """``_polish`` fed the pair's full screening fan, every step up to
    ``3.2 chord + 0.1``, as the fan ran before it was cut at the chord
    seed's length, and with no winding settled: every pick is polished,
    as in a search without the cuts."""
    target = connect_mod._check_cold(surface, A, B, opts)
    near, _, s_e, s_g, chord, _ = target
    thetas = [*connect_mod._FAN_HEADINGS,
              connect_mod._chord_heading(surface, A, near)]
    L_fan, n_steps = _full_fan(surface, A, B, opts)
    fan = geodesics_mod.shoot_fan(surface, [A] * len(thetas), thetas,
                                  [L_fan / n_steps] * len(thetas), n_steps)
    seeded = connect_mod._newton(surface, A, near.u, near.v, s_e, s_g,
                                 thetas[-1], chord, opts)
    return connect_mod._polish(
        surface, A, target,
        (thetas, np.linspace(0.0, L_fan, n_steps + 1), *fan), seeded, set(),
        opts)


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
            got, shots = real(*args)
            return (None, shots) if len(calls) == 1 else (got, shots)

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

        def counted(surface, A_, u_t, v_t, s_e, s_g, theta0, L0, opts):
            starts.append((v_t, theta0, L0))
            return real(surface, A_, u_t, v_t, s_e, s_g, theta0, L0, opts)

        monkeypatch.setattr(connect_mod, "_newton", counted)
        connect_geodesic(torus, A, B)
        chord = float(np.linalg.norm(torus.embed(B) - torus.embed(A)))
        assert starts[0] == (B.v, connect_mod._chord_heading(torus, A, B),
                             chord)
        assert len(starts) == 5
        assert len(set(starts)) == len(starts)

    def test_unreachable_error_names_the_work(self, sphere, monkeypatch):
        """Every Newton start fails: the error says so, with the starts
        and shots per winding and the best screened residual."""
        real_newton, real_shoot = connect_mod._newton, connect_mod.shoot
        shots, starts = [], []

        def failing(*args):
            starts.append(args)
            return None, real_newton(*args)[1]

        def counted(*args):
            shots.append(args)
            return real_shoot(*args)

        monkeypatch.setattr(connect_mod, "_newton", failing)
        monkeypatch.setattr(connect_mod, "shoot", counted)
        with pytest.raises(SolveError) as err:
            connect_geodesic(sphere, SurfacePoint(1.2, 0.3),
                             SurfacePoint(1.5, 1.0))
        text = str(err.value)
        head, tallies, best = text.split("; ")
        assert head == ("unreachable within search budget: the chord seed "
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

    def test_reference_search_polishes_settled_windings(self, catenoid,
                                                        monkeypatch):
        """``_full_fan_path`` settles nothing, so it stays a search without
        the cuts: on the settled catenoid pair it polishes fan picks."""
        starts, _ = self._count(monkeypatch)
        _full_fan_path(catenoid, SurfacePoint(-1.0, 0.3),
                       SurfacePoint(0.8, -1.1))
        assert len(starts) > 1

    def test_cone_polishes_no_winding_0_pick(self, monkeypatch):
        """K = 0 settles winding 0 on the cone; phi_floor is 0 there, so
        windings -1 and 1 stay open and the fan runs."""
        cone = make_surface("cone", slope=1.0)
        A, B = SurfacePoint(0.58, 0.41), SurfacePoint(1.44, -0.82)
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
        """phi_floor bounds phi on and off the default chart, and the
        custom spline claims no bound.  inj_floor is pi R on the sphere,
        ``pi min(sqrt(r (R + r)), r, R - r)`` on the torus and 0 on the
        other kinds."""
        for kind, params, floor, flat_or_saddle, inj in [
                ("cylinder", dict(radius=2.0), 2.0, True, 0.0),
                ("catenoid", dict(a=0.5), 0.5, True, 0.0),
                ("torus", dict(R=2.0, r=0.7), 1.3, False, 0.7 * math.pi),
                # a fat torus: the inner equator, 2 pi (R - r) long
                ("torus", dict(R=1.0, r=0.8), 1.0 - 0.8, False,
                 0.2 * math.pi),
                ("cone", dict(slope=0.8), 0.0, True, 0.0),
                ("plane", {}, 0.0, True, 0.0),
                ("sphere", dict(radius=2.0), 0.0, False, 2.0 * math.pi),
                ("paraboloid", dict(a=1.0), 0.0, False, 0.0)]:
            surface = make_surface(kind, **params)
            assert surface.phi_floor == floor
            assert surface.nonpositive_curvature == flat_or_saddle
            assert surface.inj_floor == pytest.approx(inj, rel=1e-15)
            u = np.linspace(surface.u_min - 5.0, surface.u_max + 5.0, 401)
            phi = surface.metric_terms_batch(u)[4]
            if floor > 0.0:
                assert np.all(phi >= floor * (1.0 - 1e-15))
            if flat_or_saddle:
                assert np.all(surface.curvature(u[phi > 0.0]) <= 0.0)
        assert (_vase().phi_floor, _vase().nonpositive_curvature,
                _vase().inj_floor) == (0.0, False, 0.0)
        with pytest.raises(AttributeError):
            make_surface("cylinder", radius=1.0).phi_floor = 5.0
        with pytest.raises(AttributeError):
            make_surface("sphere", radius=1.0).inj_floor = 5.0

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
                assert d < sphere.inj_floor
                assert 2.0 * math.pi * radius - d >= sphere.inj_floor
        for R, r in [(2.0, 0.7), (1.0, 0.8), (3.0, 0.5)]:
            torus = make_surface("torus", R=R, r=r)
            for d in np.linspace(1e-3, math.pi, 200):
                short, other = r * d, r * (2.0 * math.pi - d)
                if short < torus.inj_floor:
                    assert other >= torus.inj_floor

    def test_settle_changes_no_path(self, sphere, torus, monkeypatch):
        """Random sphere and torus pairs get the same path with no winding
        ever settled, in a search that polishes every pick."""
        _, fans = self._count(monkeypatch)
        settled = {}
        for name, surface in (("sphere", sphere), ("torus", torus)):
            draw = TestInvariants.SAMPLERS[name][1]
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


class TestWindingBound:
    """``_winding_bound`` is at most the length of every geodesic to its
    copy of B, and so never settles a winding that could win."""

    @staticmethod
    def _pairs(rng, lo, hi, n):
        return [tuple(SurfacePoint(rng.uniform(lo, hi), rng.uniform(-4, 4))
                      for _ in range(2)) for _ in range(n)]

    def test_cylinder_closed_form(self):
        cylinder = make_surface("cylinder", radius=1.5)
        for A, B in self._pairs(np.random.default_rng(61), -3.0, 3.0, 100):
            target = connect_mod._check_cold(cylinder, A, B,
                                             connect_mod._DEFAULT)
            near = target[0]
            for k in range(-2, 3):
                length = math.hypot(B.u - A.u,
                                    1.5 * (near.v + 2 * math.pi * k - A.v))
                bound = connect_mod._winding_bound(cylinder, A, target, k)
                assert bound <= length * (1.0 + 1e-12)

    # the torus's reference searches take about 0.15 s a pair
    @pytest.mark.parametrize("name, lo, hi, n", [
        ("catenoid", -1.2, 1.2, 80), ("torus", -math.pi, math.pi, 20)],
        ids=["catenoid", "torus"])
    def test_every_converged_candidate(self, name, lo, hi, n, monkeypatch):
        """Every candidate of a search without the cuts, of every winding."""
        surface = TestInvariants.SAMPLERS[name][0]()
        found = []
        real = connect_mod._newton

        def recorded(surface_, A, u_t, v_t, *rest):
            got, shots = real(surface_, A, u_t, v_t, *rest)
            if got is not None:
                found.append((v_t, got.length, got.theta))
            return got, shots

        monkeypatch.setattr(connect_mod, "_newton", recorded)
        windings = set()
        below_inj = 0
        for A, B in self._pairs(np.random.default_rng(67), lo, hi, n):
            found.clear()
            best = _full_fan_path(surface, A, B)
            target = connect_mod._check_cold(surface, A, B,
                                             connect_mod._DEFAULT)
            for v_t, length, _ in found:
                k = round((v_t - target[0].v) / (2 * math.pi))
                windings.add(k)
                bound = connect_mod._winding_bound(surface, A, target, k)
                assert bound <= length + 1e-9
            if best.length < surface.inj_floor:
                # below the injectivity radius, every other geodesic to
                # any copy of B is at least inj_floor long
                below_inj += 1
                for v_t, length, theta in found:
                    same = (abs(v_t - best.end().v) <= 1e-8
                            and abs(length - best.length) <= 1e-8
                            and abs(math.remainder(
                                theta - best.theta_start, 2 * math.pi))
                            <= 1e-8)
                    assert same or length >= surface.inj_floor
        assert windings >= {-1, 0, 1}
        assert (below_inj > 0) == (surface.inj_floor > 0.0)


# the benchmark's wavy vase: 17 knots on u in [0, 8]
_BENCH_U = np.linspace(0.0, 8.0, 17)
_BENCH_VASE = np.column_stack([
    _BENCH_U, 1.2 + 0.35 * np.sin(1.3 * _BENCH_U) + 0.05 * _BENCH_U,
    _BENCH_U + 0.2 * np.sin(_BENCH_U)]).round(12).tolist()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the chord seed converges to a "
                   "longer winding-0 geodesic and the screening misses the "
                   "shorter winding -1 one (needs a global-minimality audit)")
def test_benchmark_vase_pair_finds_the_shorter_winding():
    """A winding -1 geodesic of length 5.7239 exists; the connect returns
    one of 7.2034 at winding 0, with no ambiguity flag."""
    vase = make_surface("custom", samples=_BENCH_VASE)
    path = connect_geodesic(vase,
                            SurfacePoint(7.192224875137635, -2.6154007939265567),
                            SurfacePoint(2.706319274019626, 1.379655701486345))
    assert path.length <= 5.7239 + 1e-6


_TORUS_MISS = (SurfacePoint(0.2042645290357763, -1.0152909252698796),
               SurfacePoint(-2.423463767362918, 2.379163010530358))


def test_torus_miss_pair_has_a_geodesic():
    """The pair below is reachable: a warm start near a 720-lane fan's
    closest pass converges to a winding-0 geodesic of length 5.4119 to
    the copy of B nearest A, B.v - 2 pi."""
    torus = make_surface("torus", R=2.0, r=0.7)
    A, B = _TORUS_MISS
    near = SurfacePoint(B.u, B.v - 2.0 * math.pi)
    path = connect_geodesic(torus, A, near, initial=(-2.090, 5.41))
    assert path.winding == 0
    assert path.length == pytest.approx(5.411914, abs=1e-6)
    end = path.end()
    assert abs(end.u - near.u) <= 1e-9 and abs(end.v - near.v) <= 1e-9


@pytest.mark.xfail(strict=True, raises=SolveError,
                   reason="the 17-lane screening fan misses the heading band "
                   "of the geodesic and the chord seed does not converge "
                   "(needs a global-minimality audit or a finer screen)")
def test_torus_pair_is_reachable():
    """The cold connect raises 'unreachable within search budget' though
    a winding-0 geodesic of length 5.4119 exists."""
    torus = make_surface("torus", R=2.0, r=0.7)
    path = connect_geodesic(torus, *_TORUS_MISS)
    assert path.length <= 5.411914 + 1e-6
