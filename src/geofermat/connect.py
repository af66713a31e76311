"""Geodesic boundary-value solver.

Finds a geodesic arc between two chart points as a two-unknown root
solve over (heading, length).  The endpoint residual is measured in the
chart metric frozen at the target point.  The windings count from the
copy of the target nearest the start, ``B* = (B.u, B.v + 2 pi k)`` with
k the whole turns nearest ``(A.v - B.v) / 2 pi``: every start aims at B*
or its neighbours, and the ``winding`` reported is relative to B as
given (the winding found from B* plus k).

The search windings are fixed: -1, 0 and 1 from B*.  The metric ``E du^2
+ phi^2 dv^2`` does not depend on v, so a curve (u(t), v(t)) from A whose
v-travel exceeds half a turn is no shorter than (u(t), A.v + lam (v(t) -
A.v)) with |lam| < 1, which keeps its u-travel and ends at a nearer copy
of B.  The shortest curve from A therefore ends at B*, whose v-travel is
at most pi, or at the copy of winding +-1 only when B lies exactly half a
turn from A.  A cold connect runs in five steps:

1. Seed.  Newton aimed at B* (winding 0) from the kind's closed-form
   geodesic to B* (``ProfileSurface.closed_form``): the great circle on
   the sphere, the unrolled strip on the cylinder and the developed
   sector on the cone and the plane.  Its first shot lands on B* up to
   the integrator's error, so Newton stops there or one step later.
   Other kinds, and pairs where the form is undefined (antipodal on the
   sphere, a developed angle of pi or more), start from the chord seed:
   the embedded chord's heading, with the chord as length; only it and
   the fan of step 3 read the chord, so only they embed A and B*.
2. Settle.  When the seed converged to a length L*, a search
   winding is settled when no other candidate of it can be shorter than
   L*, tie with it or make it ambiguous:

   - winding 0, when K <= 0 everywhere (``nonpositive_curvature``).
     On the universal cover, the (u, v) strip with v unwrapped, two
     distinct geodesics from A to B* would bound a disc D with two
     corners of interior angles a1, a2 > 0, and Gauss-Bonnet would give
     ``int_D K dA = a1 + a2 > 0``.  So B* has one geodesic from A;
   - winding k, when ``hypot(arc_lo, phi_band |B*.v + 2 pi k - A.v|)``
     exceeds ``bar = L* + 2 _AMBIGUITY_TOL``.  Only curves at most ``bar``
     long matter.  With ``arc(a, b) = |int_a^b sqrt(E) du|`` the meridian
     arc, each point x of such a curve has ``arc(A.u, x.u) + arc(x.u,
     B.u) <= bar``, as ``ds >= sqrt(E) |du|``.  So x.u lies in the band
     ``[m - bar / (2 e_floor), m + bar / (2 e_floor)]``, m the mean of
     A.u and B.u and ``e_floor <= sqrt(E)`` everywhere.  On that band
     ``phi >= phi_band = phi_min(band)`` (0 where ``e_floor`` is 0), and
     as ``ds^2 = E du^2 + phi^2 dv^2 >= E du^2 + phi_band^2 dv^2``,
     Minkowski's inequality makes the curve at least ``hypot(arc_lo,
     phi_band |dv|)`` long, ``arc_lo`` a lower bound on ``arc(A.u,
     B.u)``.  Where phi reaches 0 only away from the pair, as at the
     cone's apex, the band keeps phi_band above 0;
   - every winding, when ``bar`` is below the injectivity radius bound
     ``inj_floor`` (the sphere and the torus).  Two geodesics from A to
     one surface point, both shorter than the injectivity radius, would
     be two vectors of the ball that ``exp_A`` maps injectively.  So every
     other geodesic from A to any copy of B, in v or in u, is at least
     ``inj_floor`` long.

   The bounds ``nonpositive_curvature``, ``e_floor``, ``phi_min`` and
   ``inj_floor`` hold for the whole surface and come from
   ``ProfileSurface.bounds``.  A pair whose search windings are all
   settled runs no fan: its answer is the seed's geodesic.
3. Fan.  A cheap fixed-step fan of headings (batched RK4), the chord
   heading among them.  When the seed converged to a length L*,
   the fan keeps its step h but runs only ``ceil(1.1 L* / h) + 2`` of its
   steps, so its samples are a prefix of the full fan's.  A lane passes
   nearest B* no later than the length of the geodesic it shadows, so
   samples beyond ``1.1 L* + 2h`` could only seed geodesics longer than
   the one in hand.  Otherwise the fan runs in full.
4. Screen.  Each lane's nearest pass to every search winding of
   B* is a seed; the best few go on, skipping any seed within ``pi /
   16`` of the heading of a pick of its winding.  A converged seed from
   step 1 counts as such a pick; a failed one does not.  Settled
   windings are screened too, so the picks are those of a search
   without the cuts.
5. Polish.  Each pick of an unsettled winding is polished by a damped
   Newton iteration whose heading column is the Jacobi field ``m1`` of
   the last shot along its end normal (``GeodesicPath.jacobi``) and
   whose length column is the endpoint velocity: one shot per
   iteration, plus halvings.  The seed's result from step 1 is reused,
   not polished again.  Each start is told the (heading, length) of the
   candidates already converged in its winding, the seed's geodesic
   first; starts of other windings aim at another copy of B and cannot
   converge to them.  With ``d`` the larger of the heading gap and the
   length gap relative to ``max(1, L_k)``, a start whose iterate x lies
   within ``d <= 1`` of such a root x_k and whose full Newton step lands
   within ``d(x, x_k) / 4`` of it is absorbed: it makes no further shot
   and returns no candidate.  The step contracts toward x_k at a Newton
   rate (Deuflhard's contraction monitor, *Newton Methods for Nonlinear
   Problems*, 2004), so the start is taken to converge to x_k, where it
   would be dropped as a duplicate of it; an absorbed start is no failed
   start.  Like the screening cutoff this is a heuristic, not a
   guarantee: a distinct root of the winding that such a start would
   have reached instead is lost.  The two geodesics that leave the torus
   equator 0.073 apart in heading are both kept.

Every Newton start of a pair caps the lengths it steps to at the pair's
reach plus ``2 _AMBIGUITY_TOL``: the reach is the length of a curve known
to join A to B, so no geodesic longer than that can win, tie or make the
answer ambiguous.  A cold pair's curve runs along the meridian from A.u
to B.u and along the shorter of the two parallels, ``reach = arc_hi +
min(phi(A.u), phi(B.u)) |B*.v - A.v|``, ``arc_hi`` an upper bound on the
meridian arc (no cap when the arc's integral fails).  A warm connect is
given its bound by the caller.

Every Newton shot is a ``shoot``, and a converged candidate keeps its
path: the geodesic returned is the shot whose residual converged, not a
second integration of it.

``connect_geodesics`` solves several pairs at once: the fan lanes of all
pairs run in at most one ``shoot_fan`` call (none when every pair is
settled), each lane with its own pair's step size, for the largest step
count of the batch.  Each pair then reads its own steps of its lanes and
is screened and polished on its own, so every answer equals that of a
lone cold ``connect_geodesic``.  Without a converged warm start,
``connect_geodesic`` is a batch of one pair.

Among converged candidates the shortest is returned; lengths within
``_TIE_TOL`` of it count as ties, which prefer smaller |winding| from B*,
then smaller heading.  When a second distinct candidate matches the best
length within ``_AMBIGUITY_TOL`` the result is flagged ambiguous
(cut-locus regime).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import ChartExitError, SolveError
from .geodesics import DEFAULT_TOL, shoot, shoot_fan, GeodesicPath
from .surfaces import ProfileSurface, SurfacePoint, TWO_PI

__all__ = ["ConnectOptions", "connect_geodesic", "connect_geodesics"]

_NEWTON_MAX_ITER = 30    # damped Newton iterations per start
# fewest fixed RK4 steps in the full screening fan: a short fan samples each
# lane every 0.08 chord, 5 times finer than the gap of 16 lanes at the
# target.  A pair whose seed converged runs a prefix of its full fan
_FAN_STEPS = 40
# the screening fan's headings, evenly spaced; each pair adds its chord
# heading, also where its seed is a closed form: a lane at that exact heading
# passes B* within a fraction of a step, and as the best screened seed it
# narrows _polish's cutoff until a half-turn tie's second winding is dropped
_FAN_HEADINGS = tuple(-math.pi + TWO_PI * (j + 0.5) / 16 for j in range(16))
_REFINE_TOP = 4          # screened starts polished by Newton
_AMBIGUITY_TOL = 1e-6    # a second geodesic this close in length: ambiguous
_TIE_TOL = 1e-9          # lengths this close tie
# whole turns searched, counted from B*: the shortest curve from A turns at
# most half a turn about the axis (module docstring)
_WINDINGS = (-1, 0, 1)
# the loosest resid_tol, a length: an end that misses B by more than the
# ambiguity tolerance is no answer (a resid_tol of 1e300 took the chord
# seed's first shot, 0.03 short of B, as converged)
_MAX_RESID_TOL = _AMBIGUITY_TOL
# the tightest shoot_tol, the smallest power of ten that the integrator
# meets on every bundled scenario: at 1e-17 sphere_triangle exits 2 and
# plane_equilateral runs past a minute
_MIN_SHOOT_TOL = 1e-16


@dataclass(frozen=True)
class ConnectOptions:
    """Tolerances of a connect: the endpoint residual that counts as
    converged and the integrator's error tolerance."""

    resid_tol: float = 1e-10
    shoot_tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not 0.0 < self.resid_tol <= _MAX_RESID_TOL:
            raise ValueError(f"resid_tol must be positive and at most "
                             f"{_MAX_RESID_TOL:g}")
        if not self.shoot_tol >= _MIN_SHOOT_TOL:
            raise ValueError(f"shoot_tol must be at least {_MIN_SHOOT_TOL:g}")


_DEFAULT = ConnectOptions()


def _chord(surface, A, B):
    """Heading at A and length of the embedded chord from A to B."""
    d = surface.embed(B) - surface.embed(A)
    e_par, e_mer = surface.embedding_frame(A)
    return (math.atan2(float(d @ e_mer), float(d @ e_par)),
            float(np.linalg.norm(d)))


def _seed(surface, A, near):
    """The first Newton start of a cold pair, aimed at ``near``, the copy
    B* of B nearest A: ``(theta, L, name)`` of the kind's closed-form
    geodesic where it has one, else of the chord seed (step 1 of the
    module docstring), which alone embeds A and B*."""
    form = surface.closed_form(A, near)
    if form is not None:
        return (*form, "closed-form seed")
    return (*_chord(surface, A, near), "chord seed")


@dataclass
class _Candidate:
    theta: float
    length: float
    winding: int
    resid: float
    path: GeodesicPath | None = None    # the converged shot, set by _newton


def _root_distance(theta, L, root):
    """The distance from ``(theta, L)`` to a root ``(theta_k, L_k)``: the
    larger of the heading gap and the length gap relative to
    ``max(1, L_k)``."""
    theta_k, L_k = root
    return max(abs(math.remainder(theta - theta_k, TWO_PI)),
               abs(L - L_k) / max(1.0, L_k))


def _newton(surface, A, u_t, v_t, s_e, s_g, theta0, L0, reach, opts,
            known=()):
    """Damped Newton on the 2-D endpoint residual, its steps capped at
    length ``reach + 2 _AMBIGUITY_TOL``.  Returns a _Candidate with the
    converged residual and shot, or None; the shots made; and the message
    of the integrator's SolveError when the last shot raised one, else
    None (a chart exit is the shot's end, not an integrator fault).

    ``known`` holds the ``(theta, length)`` of roots already found for
    the same target.  A start whose full Newton step, from an iterate x
    within distance 1 of such a root (``_root_distance``), lands within a
    quarter of x's distance to it is absorbed: it returns None with no
    fault and makes no further shot, as it would only converge to that
    root again (step 5 of the module docstring)."""
    theta, L = theta0, max(L0, 1e-12)
    cap = reach + 2.0 * _AMBIGUITY_TOL
    shots, fault = 0, None

    def res(th, ln):
        nonlocal shots, fault
        shots, fault = shots + 1, None
        try:
            path = shoot(surface, A, th, ln, opts.shoot_tol)
        except ChartExitError:
            return None
        except SolveError as exc:
            fault = str(exc)
            return None
        _, u, v, du, dv = path.samples[-1].tolist()
        return (s_e * (u - u_t), s_g * (v - v_t), du, dv, path)

    cur = res(theta, L)
    if cur is None:
        return None, shots, fault
    r_norm = math.hypot(cur[0], cur[1])
    for _ in range(_NEWTON_MAX_ITER):
        if r_norm <= opts.resid_tol:
            return _Candidate(theta, L, 0, r_norm, cur[4]), shots, None
        # Jacobian: the heading column is the Jacobi field m1 along the end
        # normal, the length column the end velocity
        path = cur[4]
        m1 = path.jacobi()[0]
        E, G, _, _, _ = surface.metric_terms(path.samples[-1, 1])
        j00 = s_e * m1 * math.cos(path.theta_end) / math.sqrt(E)
        j10 = -s_g * m1 * math.sin(path.theta_end) / math.sqrt(G)
        j01 = s_e * cur[2]
        j11 = s_g * cur[3]
        det = j00 * j11 - j01 * j10
        if det == 0.0 or not math.isfinite(det):
            return None, shots, fault
        step_th = (-cur[0] * j11 + cur[1] * j01) / det
        step_L = (-j00 * cur[1] + j10 * cur[0]) / det
        for root in known:
            gap = _root_distance(theta, L, root)
            if (gap <= 1.0 and _root_distance(theta + step_th, L + step_L,
                                              root) <= 0.25 * gap):
                return None, shots, None
        # near-conjugate configurations make the heading column tiny; a
        # trust region keeps the step sane instead of diverging
        big = max(abs(step_th), abs(step_L) / max(1.0, L))
        lam = min(1.0, 1.0 / big) if big > 1.0 else 1.0
        improved = False
        for _halve in range(14):
            th_new = theta + lam * step_th
            L_new = min(cap, max(L + lam * step_L, 0.25 * L, 1e-12))
            trial = res(th_new, L_new)
            if trial is not None:
                t_norm = math.hypot(trial[0], trial[1])
                if t_norm <= (1.0 - 1e-4 * lam) * r_norm:
                    theta, L, cur, r_norm = th_new, L_new, trial, t_norm
                    improved = True
                    break
            lam *= 0.5
        if not improved:
            return None, shots, fault
    if r_norm <= opts.resid_tol:
        return _Candidate(theta, L, 0, r_norm, cur[4]), shots, None
    return None, shots, fault


def _check_pair(surface, A, B):
    """Chart checks of one pair.  Returns the copy ``B* = (B.u, B.v + 2 pi
    k)`` of B nearest A, the whole turns ``k`` and the frame scales ``(B*,
    k, s_e, s_g)``, or None when A and B coincide; no chord, which only
    the chord seed and the fan read (``_chord``)."""
    surface.check_point(A)
    surface.check_point(B)
    turns = (A.v - B.v) / TWO_PI
    if not math.isfinite(turns):
        raise SolveError(f"v difference {A.v!r} - {B.v!r} of the pair is "
                         "not finite")
    if A.coincides(B):
        return None
    k = round(turns)
    near = SurfacePoint(B.u, B.v + TWO_PI * k)
    E_b, G_b, _, _, _ = surface.metric_terms(B.u)
    return near, k, math.sqrt(E_b), math.sqrt(G_b)


def _check_cold(surface, A, B):
    """``_check_pair`` for a pair that goes to the cold search, which also
    bounds the length of its answer by the meridian arc ``|int sqrt(E)
    du|`` over [A.u, B.u]: every curve from A to B is at least that long.
    The target gains a lower bound ``arc_lo`` on that arc and the reach
    (module docstring), ``(B*, k, s_e, s_g, arc_lo, reach)``, no chord."""
    target = _check_pair(surface, A, B)
    if target is None:
        return None
    # full_output keeps quad quiet and appends a message when it fails; a
    # failed quad bounds nothing
    out = quad(lambda u: math.sqrt(surface.metric_terms(u)[0]), A.u, B.u,
               full_output=1)
    if len(out) != 3:
        return (*target, 0.0, math.inf)
    arc, err = abs(out[0]), out[1]
    phi = min(surface.metric_terms(A.u)[4], surface.metric_terms(B.u)[4])
    return (*target, max(0.0, arc - err),
            arc + err + phi * abs(target[0].v - A.v))


def _winding_bound(surface, A, target, k, bar):
    """A lower bound on the length of every curve from A to the copy
    ``B*.v + 2 pi k`` of B that is at most ``bar`` long:
    ``hypot(arc_lo, phi_band |dv|)``, with phi_band the floor on phi over
    the u-band such a curve can reach (step 2 of the module docstring)."""
    near, arc_lo = target[0], target[4]
    bounds = surface.bounds
    phi_band = 0.0
    if bounds.e_floor > 0.0:
        mid, half = 0.5 * (A.u + near.u), 0.5 * bar / bounds.e_floor
        phi_band = bounds.phi_min(mid - half, mid + half)
    return math.hypot(arc_lo, phi_band * abs(near.v + TWO_PI * k - A.v))


def _settled(surface, A, target, length):
    """The search windings from B* that the seed's geodesic, of this
    length, settles: no other candidate of them can be shorter, tie with
    it or make the answer ambiguous (step 2 of the module docstring)."""
    bar = length + 2.0 * _AMBIGUITY_TOL
    bounds = surface.bounds
    if bar < bounds.inj_floor:
        return set(_WINDINGS)
    return {k for k in _WINDINGS
            if (k == 0 and bounds.nonpositive_curvature)
            or _winding_bound(surface, A, target, k, bar) > bar}


def connect_geodesic(surface: ProfileSurface, A: SurfacePoint, B: SurfacePoint,
                     opts: ConnectOptions | None = None,
                     initial: tuple | None = None) -> GeodesicPath:
    """Shortest found geodesic from A to B.

    ``initial`` is an optional warm start ``(theta, length, bound)`` aimed
    at the winding-0 target, ``bound`` the length of a curve known to join
    A to B, which is its reach; when it converges the multi-start search
    is skipped (no ambiguity detection in that mode).  Otherwise this is
    ``connect_geodesics(surface, [(A, B)], opts)[0]``.
    """
    opts = opts or _DEFAULT
    if initial is not None:
        target = _check_pair(surface, A, B)
        if target is None:
            return shoot(surface, A, 0.0, 0.0)
        got = _newton(surface, A, B.u, B.v, *target[2:], *initial, opts)[0]
        if got is not None:
            return got.path
    return connect_geodesics(surface, [(A, B)], opts)[0]


def connect_geodesics(surface: ProfileSurface, pairs,
                      opts: ConnectOptions | None = None) -> list:
    """Shortest found geodesic for each pair ``(A, B)``, in pair order.

    Each pair is checked, screened and polished as a lone cold connect
    would be, and gets the same answer.  All pairs are checked before any
    Newton or fan runs, and the first failing check raises.  Then each
    pair's seed is polished, which settles windings and sets how
    many fan steps the pair reads: ``ceil(1.1 L* / h) + 2`` of its ``n``
    full steps of size h when the seed converged to length L*, all ``n``
    otherwise, and none when all its windings are settled.  The fans of
    all other pairs run as one ``shoot_fan`` call, for the largest step count of
    the batch, in which the lanes of a pair with fewer steps run on past
    them and are read only up to them.
    """
    opts = opts or _DEFAULT
    pairs = list(pairs)
    targets = [_check_cold(surface, A, B) for A, B in pairs]

    lanes = []          # (start, heading, step) of every fan lane
    grids = {}          # pair index -> (first lane, thetas, s_grid)
    seeded = {}         # pair index -> its _seed and that seed's _newton result
    settled = {}        # pair index -> its settled windings from B*
    for n, ((A, B), target) in enumerate(zip(pairs, targets)):
        if target is None:
            continue
        near, _, s_e, s_g, _, reach = target
        seed = _seed(surface, A, near)
        seeded[n] = (seed, _newton(surface, A, near.u, near.v, s_e, s_g,
                                   *seed[:2], reach, opts))
        got = seeded[n][1][0]
        settled[n] = (set() if got is None
                      else _settled(surface, A, target, got.length))
        if settled[n].issuperset(_WINDINGS):
            continue        # the seed's geodesic is the answer
        chord_theta, chord = _chord(surface, A, near)
        L_fan = 3.2 * chord + 0.1
        n_steps = max(_FAN_STEPS, min(320, int(L_fan * 16)))
        h = L_fan / n_steps
        n_read = n_steps if got is None else min(
            n_steps, math.ceil(1.1 * got.length / h) + 2)
        thetas = [*_FAN_HEADINGS, chord_theta]
        grids[n] = (len(lanes), thetas,
                    np.linspace(0.0, L_fan, n_steps + 1)[:n_read + 1])
        lanes += [(A, theta, h) for theta in thetas]

    fans = {}           # pair index -> (thetas, s_grid, us, vs, alive)
    if lanes:
        starts, headings, steps = zip(*lanes)
        n_most = max(len(s_grid) for _, _, s_grid in grids.values()) - 1
        out = shoot_fan(surface, starts, headings, steps, n_most)
        for n, (row, thetas, s_grid) in grids.items():
            fans[n] = (thetas, s_grid, *(arr[row:row + len(thetas),
                                             :len(s_grid)] for arr in out))

    return [shoot(surface, A, 0.0, 0.0) if target is None
            else _polish(surface, A, target, fans.get(n), seeded[n],
                         settled[n], opts)
            for n, ((A, B), target) in enumerate(zip(pairs, targets))]


def _polish(surface, A, target, fan, start, settled, opts):
    """Newton-polish the best screened fan starts of one pair toward the
    copy B* of its target nearest A, and return the shortest converged
    geodesic with its winding counted from B as given.  ``start`` is the
    pair's ``_seed`` and that seed's ``_newton`` result, which is not
    polished again.  Seeds of every search winding are screened and ranked, but
    picks of a ``settled`` winding are not polished; ``fan`` is None when
    every search winding is settled, and the seed's geodesic is then the
    answer."""
    near, turns, s_e, s_g, _, reach = target
    seed, seeded = start
    if fan is None:
        path = seeded[0].path
        path.winding = turns
        return path
    fan_thetas, s_grid, us, vs, alive = fan
    seeds: list[_Candidate] = [_Candidate(seed[0], seed[1], 0, 0.0)]
    for k in _WINDINGS:
        v_t = near.v + TWO_PI * k
        r2 = (s_e * (us - near.u)) ** 2 + (s_g * (vs - v_t)) ** 2
        r2 = np.where(alive, r2, np.inf)
        r2[:, 0] = np.inf  # the launch point is not an arrival
        idx = np.argmin(r2, axis=1)
        for j, theta in enumerate(fan_thetas):
            i = int(idx[j])
            r = float(r2[j, i])
            if math.isfinite(r):
                seeds.append(_Candidate(theta, float(s_grid[i]), int(k),
                                        math.sqrt(r)))

    ranked = sorted(seeds[1:], key=lambda c: c.resid)
    picks = seeds[:1]
    # seeds far worse than the best skip the Newton polish.  This is a
    # heuristic, not a guarantee: the shortest geodesic is dropped when
    # its fan lane passes B* farther off than 8 times the best seed.
    # Screened against B as given, one turn away, it dropped the shortest
    # winding on 17 of 1200 cylinder pairs; against B* on none of them
    cutoff = 8.0 * ranked[0].resid + 1e-6 if ranked else math.inf
    for cand in ranked:
        if len(picks) >= _REFINE_TOP + 1:
            break
        if cand.resid > cutoff:
            break
        # a converged seed stands for the picks near its heading; a failed
        # one stands for none
        dup = any(c.winding == cand.winding
                  and abs(math.remainder(c.theta - cand.theta, TWO_PI))
                  < math.pi / len(_FAN_HEADINGS)
                  for c in (picks if seeded[0] is not None else picks[1:]))
        if not dup:
            picks.append(cand)
    converged: list[_Candidate] = []
    spent = {}          # winding from B* -> [Newton starts, shots]
    faults = []         # each start's integrator fault, or None

    def _absorb(cand, got, shots, fault):
        tally = spent.setdefault(cand.winding, [0, 0])
        tally[0] += 1
        tally[1] += shots
        faults.append(fault)
        if got is None:
            return
        got.winding = cand.winding
        dup = any(abs(c.length - got.length) <= 1e-8 * max(1.0, got.length)
                  and c.winding == got.winding
                  and abs(math.remainder(c.theta - got.theta, TWO_PI)) <= 1e-8
                  for c in converged)
        if not dup:
            converged.append(got)

    _absorb(picks[0], *seeded)
    for cand in picks[1:]:
        if cand.winding not in settled:
            known = [(c.theta, c.length) for c in converged
                     if c.winding == cand.winding]
            _absorb(cand, *_newton(surface, A, near.u,
                                   near.v + TWO_PI * cand.winding, s_e, s_g,
                                   cand.theta, cand.length, reach, opts,
                                   known))

    if not converged:
        # the seed is among the failed starts, so the fan ran in full
        tallies = ", ".join(f"{k}: {n}/{m}"
                            for k, (n, m) in sorted(spent.items()))
        screened = f"{ranked[0].resid:.3e}" if ranked else "none"
        head = (f"unreachable within search budget: the {seed[2]} did not "
                "converge")
        if all(faults):
            head = ("every Newton start failed in the integrator at "
                    f"shoot_tol {opts.shoot_tol:g}: {faults[-1]}")
        raise SolveError(
            f"{head}; Newton starts/shots per winding from the copy of B "
            f"nearest A: {tallies}; best screened residual {screened}")

    best_len = min(c.length for c in converged)
    pool = [c for c in converged if c.length <= best_len + _TIE_TOL]
    best = min(pool, key=lambda c: (abs(c.winding), c.theta))
    ambiguous = any(
        c is not best and c.length <= best.length + _AMBIGUITY_TOL
        and (abs(math.remainder(c.theta - best.theta, TWO_PI)) > 1e-6
             or c.winding != best.winding)
        for c in converged)

    path = best.path
    path.winding = best.winding + turns
    path.ambiguous = ambiguous
    return path
