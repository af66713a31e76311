import math

import numpy as np
import pytest

from geofermat import OffChartError, ProfileError, SurfacePoint, make_surface


def _catenoid_table(n):
    u = np.linspace(-1.0, 1.0, n)
    return np.column_stack([u, np.cosh(u), u])


class TestCatalogue:
    def test_sphere_chart(self, sphere):
        assert sphere.u_min == 0.0 and sphere.u_max == math.pi
        assert np.isclose(sphere.phi(math.pi / 2), 1.0)
        assert sphere.axis_guard == pytest.approx(1e-6)

    def test_cylinder_zero_radius_rejected(self):
        with pytest.raises(ProfileError):
            make_surface("cylinder", radius=0.0)

    def test_unknown_kind(self):
        with pytest.raises(ProfileError):
            make_surface("helicoid")

    def test_unknown_parameter(self):
        with pytest.raises(ProfileError):
            make_surface("sphere", radius=1.0, slope=2.0)

    def test_torus_requires_r_below_R(self):
        with pytest.raises(ProfileError):
            make_surface("torus", R=1.0, r=1.5)

    @pytest.mark.parametrize("kind,params", [
        ("sphere", {}),
        ("custom", {}),
        ("custom", {"samples": _catenoid_table(9), "radius": 5.0}),
        ("cone", {"slope": math.inf}),
        ("catenoid", {"a": -1.0}),
        ("sphere", {"radius": "abc"}),
        ("custom", {"samples": [[10 ** 400, 1.0, 0.0]] * 4}),
        ("custom", {"samples": [[0, 1, 0], [1, 1, 1], [2, 1, 2], [3, math.nan, 3]]}),
        ("cylinder", {"radius": 1.9494548477577465e-283}),
        ("sphere", {"radius": 1.0, "axis_guard": 1e-200}),
    ], ids=["sphere-missing", "custom-missing", "custom-extra",
            "cone-inf", "catenoid-negative", "radius-text",
            "samples-overflow", "samples-nan", "radius-underflow",
            "guard-underflow"])
    def test_bad_parameter_is_profile_error(self, kind, params):
        """Every kind takes exactly its listed parameters (a custom surface
        used to ignore extra ones).  A radius or guard whose square
        underflows to 0 made a connect divide by G = 0."""
        with pytest.raises(ProfileError):
            make_surface(kind, **params)

    def test_cone_slope_any_sign(self):
        cone = make_surface("cone", slope=-0.5)
        assert cone.embed(SurfacePoint(2.0, 0.0))[2] == -1.0


class TestEmbed:
    def test_sphere_equator_points(self, sphere):
        p = sphere.embed(SurfacePoint(math.pi / 2, 0.0))
        assert np.allclose(p, [1.0, 0.0, 0.0], atol=1e-15)
        q = sphere.embed(SurfacePoint(math.pi / 2, math.pi / 2))
        assert np.allclose(q, [0.0, 1.0, 0.0], atol=1e-15)

    def test_catenoid_point(self, catenoid):
        p = catenoid.embed(SurfacePoint(1.0, 0.0))
        assert np.allclose(p, [math.cosh(1.0), 0.0, 1.0], rtol=1e-15)

    def test_off_chart_rejected(self, sphere):
        with pytest.raises(OffChartError):
            sphere.embed(SurfacePoint(4.0, 0.0))
        with pytest.raises(OffChartError):
            sphere.embed(SurfacePoint(1e-9, 0.0))  # inside the axis guard


class TestPoints:
    def test_check_point_is_the_chart_check(self, sphere):
        p = SurfacePoint(1.0, 0.0)
        assert sphere.check_point(p) is p
        for u in (4.0, 1e-9, math.nan):    # outside, in the axis guard, NaN
            with pytest.raises(OffChartError):
                sphere.check_point(SurfacePoint(u, 0.0))

    def test_points_whole_turns_apart_coincide(self):
        p = SurfacePoint(2.0, 1.0)
        assert p.coincides(SurfacePoint(2.0, 1.0 + 2 * math.pi))
        assert p.coincides(SurfacePoint(2.0, 1.0 - 6 * math.pi))
        assert not p.coincides(SurfacePoint(2.0, 1.0 + math.pi))
        assert not p.coincides(SurfacePoint(2.0, 1.0 + 1e-9))
        assert not p.coincides(SurfacePoint(2.0 + 1e-12, 1.0))


class TestMetric:
    def test_sphere_equator(self, sphere):
        E, G, E_u, G_u, rho = sphere.metric_terms(math.pi / 2)
        assert (E, G, rho) == pytest.approx((1.0, 1.0, 1.0))
        assert G_u == pytest.approx(0.0, abs=1e-15)

    def test_cylinder_radius_two(self):
        cyl = make_surface("cylinder", radius=2.0)
        E, G, E_u, G_u, rho = cyl.metric_terms(0.3)
        assert (E, G, G_u) == (1.0, 4.0, 0.0)
        assert rho == 2.0

    def test_paraboloid_at_one(self, paraboloid):
        E, G, _, _, rho = paraboloid.metric_terms(1.0)
        assert E == pytest.approx(2.0, rel=1e-15)
        assert G == pytest.approx(1.0, rel=1e-15)
        assert rho == 1.0

    def test_positive_definite_random(self):
        rng = np.random.default_rng(11)
        for kind, kwargs, lo, hi in [
            ("sphere", {"radius": 1.0}, 0.05, math.pi - 0.05),
            ("cylinder", {"radius": 1.3}, -5.0, 5.0),
            ("cone", {"slope": 0.7}, 0.1, 5.0),
            ("paraboloid", {"a": 1.0}, 0.05, 5.0),
            ("catenoid", {"a": 1.0}, -2.5, 2.5),
            ("torus", {"R": 2.0, "r": 0.7}, -6.0, 6.0),
            ("plane", {}, 0.05, 10.0),
        ]:
            surface = make_surface(kind, **kwargs)
            u = rng.uniform(lo, hi, 1000)
            E, G, _, _, rho = surface.metric_terms_batch(u)
            assert np.all(np.isfinite(E)) and np.all(E > 0.0)
            assert np.all(np.isfinite(G)) and np.all(G > 0.0)
            assert np.max(np.abs(rho - np.sqrt(G))) <= 1e-12


class TestProfileFormulas:
    CASES = {
        "sphere": ({"radius": 1.3}, np.linspace(0.4, 2.7, 6)),
        "cylinder": ({"radius": 1.3}, np.linspace(-3.0, 3.0, 6)),
        "cone": ({"slope": 0.7}, np.linspace(0.5, 4.0, 6)),
        "paraboloid": ({"a": 1.5}, np.linspace(0.3, 3.0, 6)),
        "catenoid": ({"a": 1.2}, np.linspace(-2.0, 2.0, 6)),
        "torus": ({"R": 2.0, "r": 0.7}, np.linspace(-3.0, 3.0, 6)),
        "plane": ({}, np.linspace(0.5, 5.0, 6)),
        "custom": ({"samples": _catenoid_table(41)},
                   np.array([-0.7, 0.0, 0.33, -0.42, 0.58, 0.91])),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_metric_and_meridian_agree(self, kind):
        """Each profile is written once as metric(xp, u) and
        meridian(xp, u); tie the two together and the scalar path to the
        batch."""
        params, u = self.CASES[kind]
        surface = make_surface(kind, **params)
        u = u.reshape(2, 3)
        E, G, E_u, G_u, phi = batch = surface.metric_terms_batch(u)
        for term in batch:
            # perfbench's tracer reads out[0].size: no bare Python floats
            assert isinstance(term, np.ndarray)
            assert term.dtype == np.float64 and term.shape == u.shape
        for idx in np.ndindex(u.shape):
            scalar = surface.metric_terms(float(u[idx]))
            one = surface.metric_terms_batch([u[idx]])
            for s, b in zip(scalar, one):
                assert abs(s - b[0]) <= 1e-14 * max(abs(s), abs(b[0]))

        h = 1e-6
        E_p, G_p, _, _, _ = surface.metric_terms_batch(u + h)
        E_m, G_m, _, _, _ = surface.metric_terms_batch(u - h)
        for fd, exact in (((E_p - E_m) / (2 * h), E_u),
                          ((G_p - G_m) / (2 * h), G_u)):
            assert np.all(np.abs(fd - exact)
                          <= 1e-6 * np.maximum(1.0, np.abs(exact)))
        _, dpsi = surface._meridian(np, u)
        fd = (surface._meridian(np, u + h)[0]
              - surface._meridian(np, u - h)[0]) / (2 * h)
        assert np.all(np.abs(fd - dpsi) <= 1e-6 * np.maximum(1.0, np.abs(dpsi)))

        # the two functions are written separately, so E = phi'^2 + psi'^2
        # (phi' = G_u / 2 phi) does not hold by construction
        assert np.allclose(E, (G_u / (2.0 * phi)) ** 2 + dpsi ** 2,
                           rtol=1e-12, atol=0.0)


class TestCustomSpline:
    def test_matches_catenoid_at_100_points(self, catenoid):
        surf = make_surface("custom", samples=_catenoid_table(41))
        u = np.linspace(-0.98, 0.98, 100)
        E_s, G_s, _, _, _ = surf.metric_terms_batch(u)
        E_a, G_a, _, _, _ = catenoid.metric_terms_batch(u)
        # cubic-spline error bounds on h = 0.05: value O(h^4), slope O(h^3)
        h = 2.0 / 40
        assert np.max(np.abs(G_s - G_a)) <= 4.0 * math.cosh(1.0) * h ** 4
        assert np.max(np.abs(E_s - E_a)) <= 4.0 * math.cosh(1.0) * h ** 3

    def test_dense_table_reproduces_metric_derivatives(self, catenoid):
        surf = make_surface("custom", samples=_catenoid_table(2001))
        u_mid = np.linspace(-0.9, 0.9, 200) + 0.5 * (1.8 / 2000)
        for got, want in zip(surf.metric_terms_batch(u_mid),
                             catenoid.metric_terms_batch(u_mid)):
            assert np.max(np.abs(got - want)) <= 1e-6

    def test_bad_tables_rejected(self):
        with pytest.raises(ProfileError):
            make_surface("custom", samples=[[0, 1, 0], [1, 1, 1], [2, 1, 2]])
        with pytest.raises(ProfileError):
            make_surface("custom",
                         samples=[[0, 1, 0], [1, 1, 1], [1, 1, 2], [2, 1, 3]])
        with pytest.raises(ProfileError):
            make_surface("custom",
                         samples=[[0, 1, 0], [1, -1, 1], [2, 1, 2], [3, 1, 3]])
