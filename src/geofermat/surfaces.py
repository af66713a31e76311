"""Surfaces of revolution built from profile curves.

A surface is generated by rotating the profile curve ``(phi(u), psi(u))``
in the x-z plane about the z axis:

    r(u, v) = (phi(u) cos v, phi(u) sin v, psi(u))

Curves of constant ``v`` (meridians) and constant ``u`` (parallels) form an
orthogonal net, so the first fundamental form is diagonal:

    E = phi'(u)**2 + psi'(u)**2,   F = 0,   G = phi(u)**2

The chart excludes the rotation axis through ``axis_guard``: every
admissible ``u`` must satisfy ``phi(u) > axis_guard > 0``.

The rotation angle ``v`` is stored unwrapped (on the universal cover) so
that geodesics may wind; reduce mod 2*pi only for display.

Frame and orientation convention, fixed here once for the whole package:
``e_parallel = (d/dv)/sqrt(G)`` and ``e_meridian = (d/du)/sqrt(E)``.
A heading ``theta`` is the signed angle from ``e_parallel`` toward
``e_meridian``; ``theta = 0`` points along increasing ``v`` and
``theta = pi/2`` along increasing ``u``.  The angle with a parallel is
``alpha = theta`` and the angle with a meridian is ``beta = pi/2 - theta``.
"""

import math
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import OffChartError, ProfileError

__all__ = [
    "SurfacePoint",
    "ProfileSurface",
    "make_surface",
    "CATALOGUE",
]

TWO_PI = 2.0 * math.pi
_SAME_V_TOL = 1e-12     # relative rounding of v in SurfacePoint.coincides
# an angle at most this far below a whole turn is the turn, rounded: it
# reduces to 0, not to a value that displays as 2 pi
_WHOLE_TURN_TOL = 1e-9

# How close |dphi/ds| must be to 1 at a phi -> 0 chart end for the profile
# to count as closing smoothly on the axis (sphere-like cap).
_CLOSURE_SLOPE_TOL = 1e-6
_CLOSURE_PHI_TOL = 1e-9
_MIN_GUARD = 1e-150      # phi above it keeps G = phi**2 from underflowing
# a sphere pair whose central angle is within this sine of pi is antipodal:
# its great circle's heading is lost to the rounding of its frame components
_ANTIPODAL_TOL = 1e-9


def mod_two_pi(angle: float) -> float:
    """An angle reduced to [0, 2*pi), for display; a value within
    ``_WHOLE_TURN_TOL`` below a whole turn reads 0.0."""
    angle %= TWO_PI
    return 0.0 if angle >= TWO_PI - _WHOLE_TURN_TOL else angle


@dataclass(frozen=True)
class SurfacePoint:
    """Chart coordinates: profile parameter ``u`` and rotation angle ``v``."""

    u: float
    v: float

    def coincides(self, other: "SurfacePoint") -> bool:
        """Whether both name one surface point: equal ``u``, and ``v`` equal
        up to whole turns and rounding (never when ``v`` differ by more than
        the float range)."""
        dv = self.v - other.v
        return (self.u == other.u and math.isfinite(dv)
                and abs(math.remainder(dv, TWO_PI))
                <= _SAME_V_TOL * max(1.0, abs(self.v), abs(other.v)))


# Each profile is written once, as three functions of an array module
# ``xp``: ``math`` for a scalar ``u`` (the integrator's hot path) and
# ``numpy`` for an array.  ``metric(xp, u)`` gives ``(E, G, E_u, G_u, phi)``
# in closed form, ``meridian(xp, u)`` gives ``(psi, psi')`` and
# ``curvature(xp, u)`` the Gaussian curvature
# ``K = psi' (phi' psi'' - phi'' psi') / (phi E**2)``; ``phi' = G_u / (2 phi)``,
# which the solver evaluates on scalars only.
# Constant terms add ``zero = 0.0 * u`` so that a batch gets arrays shaped
# like ``u``.


def _sphere_fns(R):
    R2 = R * R

    def metric(xp, u):
        s = xp.sin(u)
        zero = 0.0 * u
        return R2 + zero, R2 * s * s, zero, 2.0 * R2 * s * xp.cos(u), R * s

    def meridian(xp, u):
        return R * xp.cos(u), -R * xp.sin(u)

    def curvature(xp, u):
        return 1.0 / R2 + 0.0 * u

    return metric, meridian, curvature


def _flat(xp, u):
    return 0.0 * u


def _cylinder_fns(R):
    R2 = R * R

    def metric(xp, u):
        zero = 0.0 * u
        return 1.0 + zero, R2 + zero, zero, zero, R + zero

    def meridian(xp, u):
        return u, 1.0 + 0.0 * u

    return metric, meridian, _flat


def _cone_fns(slope):
    E = 1.0 + slope * slope

    def metric(xp, u):
        zero = 0.0 * u
        return E + zero, u * u, zero, 2.0 * u, u

    def meridian(xp, u):
        return slope * u, slope + 0.0 * u

    return metric, meridian, _flat


def _paraboloid_fns(a):
    inv_a = 1.0 / a
    inv_a2 = inv_a * inv_a

    def metric(xp, u):
        return 1.0 + u * u * inv_a2, u * u, 2.0 * u * inv_a2, 2.0 * u, u

    def meridian(xp, u):
        return 0.5 * u * u * inv_a, u * inv_a

    def curvature(xp, u):
        w = 1.0 + u * u * inv_a2
        return inv_a2 / (w * w)

    return metric, meridian, curvature


def _catenoid_fns(a):
    inv_a = 1.0 / a

    def metric(xp, u):
        ch = xp.cosh(u * inv_a)
        sh = xp.sinh(u * inv_a)
        phi = a * ch
        # E = sh^2 + 1 = ch^2
        return ch * ch, phi * phi, 2.0 * sh * ch * inv_a, 2.0 * phi * sh, phi

    def meridian(xp, u):
        return u, 1.0 + 0.0 * u

    def curvature(xp, u):
        ch = xp.cosh(u * inv_a)
        return -inv_a * inv_a / (ch * ch * ch * ch)

    return metric, meridian, curvature


def _torus_fns(R, r):
    r2 = r * r

    def metric(xp, u):
        s = xp.sin(u)
        phi = R + r * xp.cos(u)
        zero = 0.0 * u
        return r2 + zero, phi * phi, zero, -2.0 * phi * r * s, phi

    def meridian(xp, u):
        return r * xp.sin(u), r * xp.cos(u)

    def curvature(xp, u):
        c = xp.cos(u)
        return c / (r * (R + r * c))

    return metric, meridian, curvature


class _Spline:
    """C2 not-a-knot splines through the (u, phi, psi) samples, evaluated by
    Horner's rule on the stored coefficients of the interval holding u."""

    def __init__(self, u_samples, phi_samples, psi_samples):
        phi = CubicSpline(u_samples, phi_samples, bc_type="not-a-knot")
        psi = CubicSpline(u_samples, psi_samples, bc_type="not-a-knot")
        self._x = phi.x
        # rows: phi's cubic coefficients, then psi's, highest power first
        self._c = np.vstack([phi.c, psi.c])
        self._x_list = self._x.tolist()
        self._c_list = self._c.T.tolist()
        self._last = len(self._x) - 2

    def _interval(self, xp, u):
        """The eight coefficients and the offset ``t`` from the interval
        start; u outside the knots uses the end intervals."""
        if xp is math:
            i = min(max(bisect_right(self._x_list, u) - 1, 0), self._last)
            return self._c_list[i], u - self._x_list[i]
        i = np.clip(np.searchsorted(self._x, u, side="right") - 1, 0,
                    self._last)
        return self._c[:, i], u - self._x[i]

    def _derivatives(self, xp, u):
        """``(phi, phi', phi'', psi', psi'')`` at u."""
        (a, b, c, d, e, f, g, _), t = self._interval(xp, u)
        return (((a * t + b) * t + c) * t + d,
                (3.0 * a * t + 2.0 * b) * t + c, 6.0 * a * t + 2.0 * b,
                (3.0 * e * t + 2.0 * f) * t + g, 6.0 * e * t + 2.0 * f)

    def metric(self, xp, u):
        ph, dph, d2ph, dps, d2ps = self._derivatives(xp, u)
        return (dph * dph + dps * dps, ph * ph,
                2.0 * (dph * d2ph + dps * d2ps), 2.0 * ph * dph, ph)

    def curvature(self, xp, u):
        ph, dph, d2ph, dps, d2ps = self._derivatives(xp, u)
        E = dph * dph + dps * dps
        return dps * (dph * d2ps - d2ph * dps) / (ph * E * E)

    def meridian(self, xp, u):
        (_, _, _, _, e, f, g, h), t = self._interval(xp, u)
        return ((e * t + f) * t + g) * t + h, (3.0 * e * t + 2.0 * f) * t + g


def _custom_fns(samples):
    if (samples.ndim != 2 or samples.shape[1] != 3 or samples.shape[0] < 4
            or not np.all(np.isfinite(samples))):
        raise ProfileError("custom profile needs >= 4 finite rows of (u, phi, psi)")
    u_s, phi_s, psi_s = samples.T
    if np.any(np.diff(u_s) <= 0):
        raise ProfileError("custom profile samples must have strictly increasing u")
    if np.any(phi_s <= 0):
        raise ProfileError("custom profile requires phi > 0 at every sample")
    with np.errstate(all="ignore"):     # scipy rejects an overflowing slope
        sp = _Spline(u_s, phi_s, psi_s)
    return sp.metric, sp.meridian, sp.curvature


class ProfileSurface:
    """A surface of revolution with evaluable metric and embedding.

    Construct through :func:`make_surface`.  All methods are pure
    functions of immutable data and safe for concurrent use.
    """

    # sorted u where the profile's third derivatives jump, at which a
    # meridian's arc quadrature splits: none but the custom spline's sample
    # u, which make_surface sets
    _knots = np.empty(0)

    def __init__(self, kind, metric, meridian, curvature, u_min, u_max,
                 axis_guard, bounds, geodesic):
        self.kind = kind
        self.u_min = float(u_min)
        self.u_max = float(u_max)
        self.axis_guard = float(axis_guard)
        self._metric = metric        # (xp, u) -> (E, G, E_u, G_u, phi)
        self._meridian = meridian    # (xp, u) -> (psi, psi')
        self._curvature = curvature  # (xp, u) -> K
        self._bounds = bounds
        self._geodesic = geodesic    # (u_a, u_b, dv) -> (theta, L) or None
        if not (self.u_min < self.u_max):
            raise ProfileError(f"empty chart: u_min={self.u_min}, u_max={self.u_max}")
        if not self.axis_guard >= _MIN_GUARD:
            raise ProfileError(f"axis_guard must be at least {_MIN_GUARD:g}, "
                               f"got {self.axis_guard!r}")
        self._check_regular()
        self.closes_at_min = self._closes_smoothly(self.u_min)
        self.closes_at_max = self._closes_smoothly(self.u_max)

    def _check_regular(self):
        with np.errstate(all="ignore"):     # non-finite terms are rejected
            E, _, _, _, phi = self._metric(
                np, np.linspace(self.u_min, self.u_max, 33))
        if not np.all(np.isfinite(E)) or np.any(E <= 0.0):
            raise ProfileError("profile is not regular: E <= 0 somewhere on the chart")
        if np.all(phi <= self.axis_guard):
            raise ProfileError("entire chart lies inside the axis guard")

    def _closes_smoothly(self, u_end):
        E, _, _, _, phi = self._metric(math, u_end)
        if abs(phi) > _CLOSURE_PHI_TOL * max(1.0, self.scale()):
            return False
        dpsi = self._meridian(math, u_end)[1]
        # |dphi/ds| = sqrt(1 - (dpsi/ds)^2) on a regular profile
        slope = math.sqrt(max(0.0, 1.0 - dpsi * dpsi / E))
        return abs(slope - 1.0) <= _CLOSURE_SLOPE_TOL

    @property
    def bounds(self) -> "SurfaceBounds":
        """What the kind knows of its whole surface, on the chart or off
        it (see ``_KINDS``)."""
        return self._bounds

    def closed_form(self, A: SurfacePoint, B: SurfacePoint):
        """Heading and length ``(theta, L)`` of the geodesic from A to B
        where the kind knows it in closed form (see ``_KINDS``), else
        None.  B is the copy of its point to reach, as given: ``connect``
        gives B*, the copy nearest A.  The cylinder's strip and the cone's
        developed sector reach any copy, with None from a developed angle
        of pi on; the sphere's great circle reaches B*, with None for an
        antipodal pair.  Unchecked, like ``metric_terms``."""
        if self._geodesic is None:
            return None
        return self._geodesic(A.u, B.u, B.v - A.v)

    def scale(self) -> float:
        """Characteristic radius, used to normalise tolerances."""
        u_mid = 0.5 * (self.u_min + self.u_max)
        return max(1e-12, self._metric(math, u_mid)[4])

    # -- chart check ------------------------------------------------------

    def check_point(self, p: SurfacePoint) -> SurfacePoint:
        """Return ``p`` when it lies on the chart, else raise OffChartError."""
        if not (self.u_min <= p.u <= self.u_max):
            raise OffChartError(
                f"u={p.u!r} outside chart [{self.u_min}, {self.u_max}]")
        if self._metric(math, p.u)[4] <= self.axis_guard:
            raise OffChartError(
                f"phi(u) <= axis guard {self.axis_guard} at u={p.u!r}")
        if not math.isfinite(p.v):
            raise OffChartError(f"v={p.v!r} is not finite")
        return p

    # -- metric and embedding ---------------------------------------------

    def metric_terms(self, u: float):
        """Unchecked scalar metric terms ``(E, G, E_u, G_u, phi)``."""
        return self._metric(math, u)

    def metric_terms_batch(self, u):
        """Unchecked metric terms as arrays shaped like ``u``."""
        return self._metric(np, np.array(u, dtype=float))

    def curvature(self, u: float) -> float:
        """Unchecked scalar Gaussian curvature K."""
        return self._curvature(math, u)

    def embed(self, p: SurfacePoint) -> np.ndarray:
        """Embedding r(u, v) = (phi cos v, phi sin v, psi) in 3-space."""
        self.check_point(p)
        phi = self._metric(math, p.u)[4]
        psi = self._meridian(math, p.u)[0]
        return np.array([phi * math.cos(p.v), phi * math.sin(p.v), psi])

    def embed_batch(self, u, v):
        u = np.asarray(u, dtype=float)
        phi = self._metric(np, u)[4]
        psi = self._meridian(np, u)[0]
        v = np.asarray(v, dtype=float)
        return np.stack([phi * np.cos(v), phi * np.sin(v),
                         psi * np.ones_like(v)], axis=-1)

    def embedding_frame(self, p: SurfacePoint):
        """Unit frame vectors (e_parallel, e_meridian) in 3-space at p."""
        self.check_point(p)
        E, _, _, G_u, phi = self._metric(math, p.u)
        dphi = G_u / (2.0 * phi)
        dpsi = self._meridian(math, p.u)[1]
        cv, sv = math.cos(p.v), math.sin(p.v)
        e_par = np.array([-sv, cv, 0.0])
        e_mer = np.array([dphi * cv, dphi * sv, dpsi]) / math.sqrt(E)
        return e_par, e_mer


def _no_band(lo, hi):
    return 0.0


@dataclass(frozen=True)
class SurfaceBounds:
    """What a kind knows of its whole surface, for every u on its chart or
    off it, so that no chart override breaks it; a kind that knows nothing
    (the custom spline) keeps the defaults.

    ``e_floor`` bounds sqrt(E(u)) below.  ``nonpositive_curvature`` says
    K(u) <= 0.  ``inj_floor`` bounds the injectivity radius of the whole
    surface below, which a chart only cuts down to a part of.
    ``phi_min(lo, hi)`` bounds |phi(u)| below on the u-band [lo, hi]: the
    least phi at the band ends and at phi's interior minima, 0 where the
    band passes the axis."""

    nonpositive_curvature: bool = False
    inj_floor: float = 0.0
    e_floor: float = 0.0
    phi_min: Callable[[float, float], float] = _no_band


def _sphere_phi_min(R):
    # sin is concave on (0, pi); a band past either pole reaches the axis
    return lambda lo, hi: (R * min(math.sin(lo), math.sin(hi))
                           if 0.0 < lo and hi < math.pi else 0.0)


def _torus_phi_min(R, r):
    # phi = R + r cos u is least, R - r, at the odd multiples of pi and has
    # no other minimum
    def phi_min(lo, hi):
        if math.pi + TWO_PI * math.ceil((lo - math.pi) / TWO_PI) <= hi:
            return R - r
        return R + r * min(math.cos(lo), math.cos(hi))
    return phi_min


def _apex_phi_min(lo, hi):
    # phi = u on the cone, the plane and the paraboloid, which meet the
    # axis at u = 0
    return max(0.0, lo)


# Closed-form geodesics: ``geodesic(u_a, u_b, dv)`` is the heading and length
# ``(theta, L)`` of the geodesic from A = (u_a, v) to B = (u_b, v + dv), or
# None where the form is undefined.  The heading is ``atan2`` of the chord to
# B in the orthonormal frame (e_parallel, e_meridian) at A, developed on the
# flat kinds, written with no difference of nearly equal terms.

def _sphere_geodesic(R):
    # the great circle: in the frame at A, B has components R (p, m), so
    # |A x B| = R^2 hypot(p, m), and A.B = R^2 c; L = R atan2(|A x B|, A.B),
    # with 1 - cos dv written as 2 sin^2(dv / 2).  It ends at B*, the copy
    # of B nearest A, whichever copy is given
    def geodesic(u_a, u_b, dv):
        sa, sb, h = math.sin(u_a), math.sin(u_b), math.sin(0.5 * dv) ** 2
        p = sb * math.sin(dv)
        m = math.sin(u_b - u_a) - 2.0 * sb * math.cos(u_a) * h
        c = math.cos(u_b - u_a) - 2.0 * sa * sb * h
        sine = math.hypot(p, m)
        if c < 0.0 and sine <= _ANTIPODAL_TOL:
            return None         # the heading is undefined
        return math.atan2(m, p), R * math.atan2(sine, c)
    return geodesic


def _cylinder_geodesic(R):
    # the unrolled strip
    def geodesic(u_a, u_b, dv):
        du = u_b - u_a
        return math.atan2(du, R * dv), math.hypot(du, R * dv)
    return geodesic


def _cone_geodesic(slope):
    # the developed sector: A at slant radius k u_a and angle 0, B at k u_b
    # and angle dv / k; a chord across an angle of pi or more would pass the
    # apex, and no geodesic does
    k = math.sqrt(1.0 + slope * slope)

    def geodesic(u_a, u_b, dv):
        angle = dv / k
        if abs(angle) >= math.pi:
            return None
        m = u_b - u_a - 2.0 * u_b * math.sin(0.5 * angle) ** 2
        p = u_b * math.sin(angle)
        return math.atan2(m, p), k * math.hypot(m, p)
    return geodesic


# kind -> (parameter names, profile functions, chart defaults, bounds,
# geodesic).  All four take the parameters in the listed order; the profile
# functions are ``(metric, meridian, curvature)``, the chart defaults
# ``(u_min, u_max, axis_guard)``, the bounds a ``SurfaceBounds`` and the
# geodesic the closed form above, where the kind has one: the sphere's
# great circle, the cylinder's unrolled strip and the developed sector of
# the cone and of the plane, the cone of slope 0.  Other kinds give None.
# By Klingenberg's lemma a compact surface with K <= K_max > 0 has
# injectivity radius at least ``min(pi / sqrt(K_max), l / 2)``, l its
# shortest closed geodesic (do Carmo, Riemannian Geometry, ch. 13).  The
# sphere's is pi R.  On the torus K_max = 1 / (r (R + r)) on the outer
# equator, a closed meridian is 2 pi r long, and by Clairaut every other
# closed geodesic winds in v, so it is at least 2 pi (R - r) long.  The
# other kinds are not compact and claim 0.  ``e_floor`` and ``phi_min``
# give the u-band that a curve of bounded length can reach, and the least
# phi on it (``connect._winding_bound``): sqrt(E) is R on the sphere, r on
# the torus, sqrt(1 + slope^2) on the cone and at least 1 on the other
# kinds; phi's interior minima are the catenoid's waist u = 0 and the
# torus's inner equator u = pi (mod 2 pi), and a band reaches the axis past
# the cone's apex, the sphere's poles and the paraboloid's vertex.
_KINDS = {
    "sphere": (("radius",), _sphere_fns, lambda R: (0.0, math.pi, 1e-6 * R),
               lambda R: SurfaceBounds(inj_floor=math.pi * R, e_floor=R,
                                       phi_min=_sphere_phi_min(R)),
               _sphere_geodesic),
    "cylinder": (("radius",), _cylinder_fns,
                 lambda R: (-20.0, 20.0, 1e-6 * R),
                 lambda R: SurfaceBounds(
                     nonpositive_curvature=True, e_floor=1.0,
                     phi_min=lambda lo, hi: R),
                 _cylinder_geodesic),
    "cone": (("slope",), _cone_fns, lambda slope: (0.0, 20.0, 1e-6),
             lambda slope: SurfaceBounds(
                 nonpositive_curvature=True,
                 e_floor=math.sqrt(1.0 + slope * slope),
                 phi_min=_apex_phi_min),
             _cone_geodesic),
    "paraboloid": (("a",), _paraboloid_fns, lambda a: (0.0, 10.0, 1e-6),
                   lambda a: SurfaceBounds(e_floor=1.0,
                                           phi_min=_apex_phi_min),
                   None),
    "catenoid": (("a",), _catenoid_fns,
                 lambda a: (-3.0 * a, 3.0 * a, 1e-6 * a),
                 lambda a: SurfaceBounds(
                     nonpositive_curvature=True, e_floor=1.0,
                     phi_min=lambda lo, hi: a * math.cosh(
                         max(0.0, lo, -hi) / a)),
                 None),
    "torus": (("R", "r"), _torus_fns,
              lambda R, r: (-4.0 * math.pi, 4.0 * math.pi, 1e-6 * R),
              lambda R, r: SurfaceBounds(
                  inj_floor=math.pi * min(math.sqrt(r * (R + r)), r, R - r),
                  e_floor=r, phi_min=_torus_phi_min(R, r)),
              None),
    "plane": ((), lambda: _cone_fns(0.0), lambda: (0.0, 50.0, 1e-6),
              lambda: SurfaceBounds(nonpositive_curvature=True, e_floor=1.0,
                                    phi_min=_apex_phi_min),
              lambda: _cone_geodesic(0.0)),
    "custom": (("samples",), _custom_fns,
               lambda rows: (rows[0, 0], rows[-1, 0], 1e-6),
               lambda rows: SurfaceBounds(), None),
}
CATALOGUE = tuple(_KINDS)


def _parameter(kind, key, value):
    """A parameter as the profile functions take it: the custom samples as
    a float array, any other as a finite number, positive but for the
    cone's slope."""
    try:
        if key == "samples":
            return np.asarray(value, dtype=float)
        val = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ProfileError(f"{kind}: parameter '{key}' must be numeric") from None
    if not math.isfinite(val) or (val <= 0.0 and key != "slope"):
        raise ProfileError(f"{kind}: parameter '{key}' must be finite"
                           f"{'' if key == 'slope' else ' and positive'}, got {val!r}")
    return val


def make_surface(kind: str, *, u_min=None, u_max=None, axis_guard=None,
                 **params) -> ProfileSurface:
    """Build a catalogue surface from its kind and exactly its parameters.

    One table lists, for each kind, its parameter names, its profile
    functions and its default chart ``(u_min, u_max, axis_guard)``:

    ========== ============================ ==========================
    kind       parameters                   profile
    ========== ============================ ==========================
    sphere     radius                       (R sin u, R cos u)
    cylinder   radius                       (R, u)
    cone       slope (any sign)             (u, slope * u)
    paraboloid a                            (u, u**2 / (2 a))
    catenoid   a                            (a cosh(u/a), u)
    torus      R, r  (0 < r < R)            (R + r cos u, r sin u)
    plane      none                         (u, 0)
    custom     samples: rows of (u,phi,psi) C2 not-a-knot spline
    ========== ============================ ==========================

    The plane is the cone of slope 0 on its own chart, u in [0, 50].
    Every listed parameter is required and no other is accepted.  Numbers
    must be finite and, but for the cone's slope, positive.  A custom chart
    defaults to the span of its sample ``u``.  ``u_min``/``u_max``/
    ``axis_guard`` override the defaults.
    """
    if kind not in CATALOGUE:
        raise ProfileError(f"unknown surface kind {kind!r}; "
                           f"expected one of {CATALOGUE}")
    names, fns, defaults, bounds, geodesic = _KINDS[kind]
    if set(params) != set(names):
        raise ProfileError(f"{kind} takes exactly the parameters "
                           f"{list(names)}, got {sorted(params)}")
    values = [_parameter(kind, key, params[key]) for key in names]
    if kind == "torus" and values[1] >= values[0]:
        raise ProfileError(f"torus requires r < R, got R={values[0]}, "
                           f"r={values[1]}")
    profile = fns(*values)          # validates the custom samples first
    d_min, d_max, d_guard = defaults(*values)
    surface = ProfileSurface(
        kind, *profile,
        u_min=d_min if u_min is None else u_min,
        u_max=d_max if u_max is None else u_max,
        axis_guard=d_guard if axis_guard is None else axis_guard,
        bounds=bounds(*values),
        geodesic=None if geodesic is None else geodesic(*values))
    if kind == "custom":
        surface._knots = values[0][:, 0]
    return surface
