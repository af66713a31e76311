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
# ``K = psi' (phi' psi'' - phi'' psi') / (phi E**2)``; ``phi' = G_u / (2 phi)``.
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

    def __init__(self, kind, metric, meridian, curvature, u_min, u_max,
                 axis_guard, bounds):
        self.kind = kind
        self.u_min = float(u_min)
        self.u_max = float(u_max)
        self.axis_guard = float(axis_guard)
        self._metric = metric        # (xp, u) -> (E, G, E_u, G_u, phi)
        self._meridian = meridian    # (xp, u) -> (psi, psi')
        self._curvature = curvature  # (xp, u) -> K
        # (phi_floor, K <= 0 everywhere, inj_floor), see _KINDS
        (self._phi_floor, self._nonpositive_curvature,
         self._inj_floor) = bounds
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
    def phi_floor(self) -> float:
        """A lower bound on phi(u) for every u, 0 when none is known."""
        return self._phi_floor

    @property
    def nonpositive_curvature(self) -> bool:
        """Whether K(u) <= 0 for every u; False when not known."""
        return self._nonpositive_curvature

    @property
    def inj_floor(self) -> float:
        """A lower bound on the injectivity radius of the whole surface, 0
        when none is known: a geodesic from a point shorter than it is the
        one shortest curve to its end, and every other geodesic between
        the two is at least this long."""
        return self._inj_floor

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

    def curvature(self, u):
        """Unchecked Gaussian curvature K as an array shaped like ``u``."""
        return self._curvature(np, np.array(u, dtype=float))

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


# kind -> (parameter names, profile functions, chart defaults, bounds).
# All three take the parameters in the listed order; the profile functions
# are ``(metric, meridian, curvature)``, the chart defaults
# ``(u_min, u_max, axis_guard)`` and the bounds ``(phi_floor, K <= 0,
# inj_floor)``: phi(u) >= phi_floor and, when the flag is set, K(u) <= 0
# for every u, on the chart or off it, so that no chart override breaks
# them; inj_floor is a lower bound on the injectivity radius of the whole
# surface, which a chart only cuts down to a part of.  By Klingenberg's
# lemma a compact surface with K <= K_max > 0 has injectivity radius at
# least ``min(pi / sqrt(K_max), l / 2)``, l its shortest closed geodesic
# (do Carmo, Riemannian Geometry, ch. 13).  The sphere's is pi R.  On the
# torus K_max = 1 / (r (R + r)) on the outer equator, a closed meridian is
# 2 pi r long, and by Clairaut every other closed geodesic winds in v, so
# it is at least 2 pi (R - r) long.  The other kinds are not compact and
# claim 0, as the custom spline claims no bound at all.
_KINDS = {
    "sphere": (("radius",), _sphere_fns, lambda R: (0.0, math.pi, 1e-6 * R),
               lambda R: (0.0, False, math.pi * R)),
    "cylinder": (("radius",), _cylinder_fns,
                 lambda R: (-20.0, 20.0, 1e-6 * R), lambda R: (R, True, 0.0)),
    "cone": (("slope",), _cone_fns, lambda slope: (0.0, 20.0, 1e-6),
             lambda slope: (0.0, True, 0.0)),
    "paraboloid": (("a",), _paraboloid_fns, lambda a: (0.0, 10.0, 1e-6),
                   lambda a: (0.0, False, 0.0)),
    "catenoid": (("a",), _catenoid_fns,
                 lambda a: (-3.0 * a, 3.0 * a, 1e-6 * a),
                 lambda a: (a, True, 0.0)),
    "torus": (("R", "r"), _torus_fns,
              lambda R, r: (-4.0 * math.pi, 4.0 * math.pi, 1e-6 * R),
              lambda R, r: (R - r, False,
                            math.pi * min(math.sqrt(r * (R + r)), r, R - r))),
    "plane": ((), lambda: _cone_fns(0.0), lambda: (0.0, 50.0, 1e-6),
              lambda: (0.0, True, 0.0)),
    "custom": (("samples",), _custom_fns,
               lambda rows: (rows[0, 0], rows[-1, 0], 1e-6),
               lambda rows: (0.0, False, 0.0)),
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
    names, fns, defaults, bounds = _KINDS[kind]
    if set(params) != set(names):
        raise ProfileError(f"{kind} takes exactly the parameters "
                           f"{list(names)}, got {sorted(params)}")
    values = [_parameter(kind, key, params[key]) for key in names]
    if kind == "torus" and values[1] >= values[0]:
        raise ProfileError(f"torus requires r < R, got R={values[0]}, "
                           f"r={values[1]}")
    profile = fns(*values)          # validates the custom samples first
    d_min, d_max, d_guard = defaults(*values)
    return ProfileSurface(
        kind, *profile,
        u_min=d_min if u_min is None else u_min,
        u_max=d_max if u_max is None else u_max,
        axis_guard=d_guard if axis_guard is None else axis_guard,
        bounds=bounds(*values))
