"""Geodesic boundary-value solver.

Finds a geodesic arc between two chart points as a two-unknown root
solve over (heading, length).  The endpoint residual is measured in the
chart metric frozen at the target point.  The windings count from the
copy of the target nearest the start, ``B* = (B.u, B.v + 2 pi k)`` with
k the whole turns nearest ``(A.v - B.v) / 2 pi``: every start aims at B*
or its neighbours, and the ``winding`` reported is relative to B as
given (the winding found from B* plus k).  A cold connect runs in five
steps:

1. Chord seed.  Newton from the embedded chord direction, with the
   chord as length, aimed at B* (winding 0, which every search
   includes).
2. Settle.  When the chord seed converged to a length L*, a requested
   winding is settled when no other candidate of it can be shorter than
   L*, tie with it or make it ambiguous:

   - winding 0, when K <= 0 everywhere (``ProfileSurface.
     nonpositive_curvature``).  On the universal cover, the (u, v) strip
     with v unwrapped, two distinct geodesics from A to B* would bound a
     disc D with two corners of interior angles a1, a2 > 0, and
     Gauss-Bonnet would give ``int_D K dA = a1 + a2 > 0``.  So B* has
     one geodesic from A;
   - winding k, when ``hypot(arc_lo, phi_floor |B*.v + 2 pi k - A.v|)``
     exceeds ``L* + 2 _AMBIGUITY_TOL``.  As ``ds^2 = E du^2 + phi^2 dv^2
     >= E du^2 + phi_floor^2 dv^2``, Minkowski's inequality makes every
     curve to that copy of B at least that long; ``arc_lo`` is a lower
     bound on the meridian arc ``|int sqrt(E) du|`` from A.u to B.u, and
     ``phi_floor`` one on phi (``ProfileSurface.phi_floor``);
   - every winding, when ``L* + 2 _AMBIGUITY_TOL`` is below the
     injectivity radius bound ``ProfileSurface.inj_floor`` (the sphere and
     the torus).  Two geodesics from A to one surface point, both shorter
     than the injectivity radius, would be two vectors of the ball that
     ``exp_A`` maps injectively.  So every other geodesic from A to any
     copy of B, in v or in u, is at least ``inj_floor`` long.

   A pair whose requested windings are all settled runs no fan: its
   answer is the chord seed's geodesic.
3. Fan.  A cheap fixed-step fan of headings (batched RK4), the chord
   heading among them.  When the chord seed converged to a length L*,
   the fan keeps its step h but runs only ``ceil(1.1 L* / h) + 2`` of its
   steps, so its samples are a prefix of the full fan's.  A lane passes
   nearest B* no later than the length of the geodesic it shadows, so
   samples beyond ``1.1 L* + 2h`` could only seed geodesics longer than
   the one in hand.  Otherwise the fan runs in full.
4. Screen.  Each lane's nearest pass to every requested winding of
   B* is a seed; the best few go on.  Settled windings are screened
   too, so the picks are those of a search without the cuts.
5. Polish.  Each pick of an unsettled winding is polished by a damped
   Newton iteration whose heading column is the Jacobi field ``m1`` of
   the last shot along its end normal (``GeodesicPath.jacobi``) and
   whose length column is the endpoint velocity: one shot per
   iteration, plus halvings.  The chord seed's result from step 1 is
   reused, not polished again.

Every Newton shot is a ``shoot``, and a converged candidate keeps its
path: the geodesic returned is the shot whose residual converged, not a
second integration of it.

``connect_geodesics`` solves several pairs at once: the fan lanes of all
pairs run in at most one ``shoot_fan`` call (none when every pair is
settled), each lane with its own pair's step size, for the largest step
count of the batch.  Each pair then reads its own steps of its lanes and
is screened and polished on its own, so every answer equals that of a
lone cold ``connect_geodesic``.  Without a converged warm start,
``connect_geodesic`` is a batch of one pair.  A cold pair whose meridian
arc ``|int sqrt(E) du|`` alone exceeds ``max_len`` is unreachable, and is
rejected before any fan runs.

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
# target.  A pair whose chord seed converged runs a prefix of its full fan
_FAN_STEPS = 40
# the screening fan's headings, evenly spaced; each pair adds its chord heading
_FAN_HEADINGS = tuple(-math.pi + TWO_PI * (j + 0.5) / 16 for j in range(16))
_REFINE_TOP = 4          # screened starts polished by Newton
_AMBIGUITY_TOL = 1e-6    # a second geodesic this close in length: ambiguous
_TIE_TOL = 1e-9          # lengths this close tie
# largest |winding| searched: 2 pi times a winding past the float range, or
# its square in the screen, would overflow, and no geodesic of a useful
# max_len winds this often
_MAX_WINDING = 2 ** 31


@dataclass(frozen=True)
class ConnectOptions:
    """Search settings of a cold connect.  ``windings`` are the whole turns
    searched, counted from the copy of B nearest A, and include 0; a
    path's reported ``winding`` is relative to B as given."""

    windings: tuple = (-1, 0, 1)
    max_len: float = 20.0
    resid_tol: float = 1e-10
    shoot_tol: float = DEFAULT_TOL

    def __post_init__(self):
        if 0 not in self.windings:
            raise ValueError("windings must include 0, the copy of B nearest "
                             "A, which the chord seed always searches")
        if any(abs(k) > _MAX_WINDING for k in self.windings):
            raise ValueError(f"windings must lie within +-{_MAX_WINDING}")
        if not self.max_len > 0.0:
            raise ValueError("max_len must be positive")
        if not self.resid_tol > 0.0:
            raise ValueError("resid_tol must be positive")
        if not self.shoot_tol > 0.0:
            raise ValueError("shoot_tol must be positive")


_DEFAULT = ConnectOptions()


def _chord_heading(surface, A, B):
    d = surface.embed(B) - surface.embed(A)
    e_par, e_mer = surface.embedding_frame(A)
    return math.atan2(float(d @ e_mer), float(d @ e_par))


@dataclass
class _Candidate:
    theta: float
    length: float
    winding: int
    resid: float
    path: GeodesicPath | None = None    # the converged shot, set by _newton


def _newton(surface, A, u_t, v_t, s_e, s_g, theta0, L0, opts):
    """Damped Newton on the 2-D endpoint residual.  Returns a _Candidate
    with the converged residual and shot, or None, and the shots made."""
    theta, L = theta0, max(L0, 1e-12)
    shots = 0

    def res(th, ln):
        nonlocal shots
        shots += 1
        try:
            path = shoot(surface, A, th, ln, opts.shoot_tol)
        except (ChartExitError, SolveError):
            return None
        _, u, v, du, dv = path.samples[-1].tolist()
        return (s_e * (u - u_t), s_g * (v - v_t), du, dv, path)

    cur = res(theta, L)
    if cur is None:
        return None, shots
    r_norm = math.hypot(cur[0], cur[1])
    for _ in range(_NEWTON_MAX_ITER):
        if r_norm <= opts.resid_tol:
            return _Candidate(theta, L, 0, r_norm, cur[4]), shots
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
            return None, shots
        step_th = (-cur[0] * j11 + cur[1] * j01) / det
        step_L = (-j00 * cur[1] + j10 * cur[0]) / det
        # near-conjugate configurations make the heading column tiny; a
        # trust region keeps the step sane instead of diverging
        big = max(abs(step_th), abs(step_L) / max(1.0, L))
        lam = min(1.0, 1.0 / big) if big > 1.0 else 1.0
        improved = False
        for _halve in range(14):
            th_new = theta + lam * step_th
            L_new = min(opts.max_len, max(L + lam * step_L, 0.25 * L, 1e-12))
            trial = res(th_new, L_new)
            if trial is not None:
                t_norm = math.hypot(trial[0], trial[1])
                if t_norm <= (1.0 - 1e-4 * lam) * r_norm:
                    theta, L, cur, r_norm = th_new, L_new, trial, t_norm
                    improved = True
                    break
            lam *= 0.5
        if not improved:
            return None, shots
    if r_norm <= opts.resid_tol:
        return _Candidate(theta, L, 0, r_norm, cur[4]), shots
    return None, shots


def _check_pair(surface, A, B, opts):
    """Chart checks and search budget of one pair.  Returns the copy
    ``B* = (B.u, B.v + 2 pi k)`` of B nearest A, the whole turns ``k``,
    the target's frame scales and the embedded chord
    ``(B*, k, s_e, s_g, chord)``, or None when A and B coincide."""
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
    chord = float(np.linalg.norm(surface.embed(near) - surface.embed(A)))
    if chord > opts.max_len:
        raise SolveError(
            f"unreachable within search budget: chord {chord:.6g} exceeds "
            f"max_len {opts.max_len:.6g}")
    return near, k, math.sqrt(E_b), math.sqrt(G_b), chord


def _check_cold(surface, A, B, opts):
    """``_check_pair`` for a pair that goes to the cold search, which also
    bounds its reach by the meridian arc: every curve from A to B is at
    least ``|int sqrt(E) du|`` long over [A.u, B.u].  The target gains a
    lower bound ``arc_lo`` on that arc, ``(B*, k, s_e, s_g, chord,
    arc_lo)``."""
    target = _check_pair(surface, A, B, opts)
    if target is None:
        return None
    # full_output keeps quad quiet and appends a message when it fails; a
    # failed quad bounds nothing
    out = quad(lambda u: math.sqrt(surface.metric_terms(u)[0]), A.u, B.u,
               full_output=1)
    arc = abs(out[0])
    arc_lo = max(0.0, arc - out[1]) if len(out) == 3 else 0.0
    if arc_lo > opts.max_len:
        raise SolveError(
            f"unreachable within search budget: meridian arc {arc:.6g} "
            f"exceeds max_len {opts.max_len:.6g}")
    return (*target, arc_lo)


def _winding_bound(surface, A, target, k):
    """A lower bound on the length of every curve from A to the copy
    ``B*.v + 2 pi k`` of B: ``hypot(arc_lo, phi_floor |dv|)``."""
    near, arc_lo = target[0], target[5]
    return math.hypot(arc_lo,
                      surface.phi_floor * abs(near.v + TWO_PI * k - A.v))


def _settled(surface, A, target, length, opts):
    """The requested windings from B* that the chord seed's geodesic, of
    this length, settles: no other candidate of them can be shorter, tie
    with it or make the answer ambiguous (step 2 of the module
    docstring)."""
    bar = length + 2.0 * _AMBIGUITY_TOL
    if bar < surface.inj_floor:
        return set(opts.windings)
    return {k for k in opts.windings
            if (k == 0 and surface.nonpositive_curvature)
            or _winding_bound(surface, A, target, k) > bar}


def connect_geodesic(surface: ProfileSurface, A: SurfacePoint, B: SurfacePoint,
                     opts: ConnectOptions | None = None,
                     initial: tuple[float, float] | None = None) -> GeodesicPath:
    """Shortest found geodesic from A to B.

    ``initial`` is an optional warm start ``(theta, length)`` aimed at the
    winding-0 target; when it converges the multi-start search is skipped
    (no ambiguity detection in that mode).  Otherwise this is
    ``connect_geodesics(surface, [(A, B)], opts)[0]``.
    """
    opts = opts or _DEFAULT
    if initial is not None:
        target = _check_pair(surface, A, B, opts)
        if target is None:
            return shoot(surface, A, 0.0, 0.0)
        _, _, s_e, s_g, _ = target
        got, _ = _newton(surface, A, B.u, B.v, s_e, s_g, initial[0],
                         initial[1], opts)
        if got is not None:
            got.path.winding = 0
            return got.path
    return connect_geodesics(surface, [(A, B)], opts)[0]


def connect_geodesics(surface: ProfileSurface, pairs,
                      opts: ConnectOptions | None = None) -> list:
    """Shortest found geodesic for each pair ``(A, B)``, in pair order.

    Each pair is checked, screened and polished as a lone cold connect
    would be, and gets the same answer.  All pairs are checked before any
    Newton or fan runs, and the first failing check raises.  Then each
    pair's chord seed is polished, which settles windings and sets how
    many fan steps the pair reads: ``ceil(1.1 L* / h) + 2`` of its ``n``
    full steps of size h when the seed converged to length L*, all ``n``
    otherwise, and none when all its windings are settled.  The fans of
    all other pairs run as one ``shoot_fan`` call, for the largest step count of
    the batch, in which the lanes of a pair with fewer steps run on past
    them and are read only up to them.
    """
    opts = opts or _DEFAULT
    pairs = list(pairs)
    targets = [_check_cold(surface, A, B, opts) for A, B in pairs]

    lanes = []          # (start, heading, step) of every fan lane
    grids = {}          # pair index -> (first lane, thetas, s_grid)
    seeded = {}         # pair index -> the chord seed's (Newton result, shots)
    settled = {}        # pair index -> its settled windings from B*
    for n, ((A, B), target) in enumerate(zip(pairs, targets)):
        if target is None:
            continue
        near, _, s_e, s_g, chord, _ = target
        thetas = [*_FAN_HEADINGS, _chord_heading(surface, A, near)]
        got, shots = _newton(surface, A, near.u, near.v, s_e, s_g,
                             thetas[-1], chord, opts)
        seeded[n] = (got, shots)
        settled[n] = (set() if got is None
                      else _settled(surface, A, target, got.length, opts))
        if settled[n].issuperset(opts.windings):
            continue        # the chord seed's geodesic is the answer
        L_fan = min(opts.max_len, 3.2 * chord + 0.1)
        n_steps = max(_FAN_STEPS, min(320, int(L_fan * 16)))
        h = L_fan / n_steps
        n_read = n_steps if got is None else min(
            n_steps, math.ceil(1.1 * got.length / h) + 2)
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


def _polish(surface, A, target, fan, seeded, settled, opts):
    """Newton-polish the best screened fan starts of one pair toward the
    copy B* of its target nearest A, and return the shortest converged
    geodesic with its winding counted from B as given.  ``seeded`` is the
    chord seed's ``(Newton result, shots)``, which is not polished again.
    Seeds of every requested winding are screened and ranked, but picks
    of a ``settled`` winding are not polished; ``fan`` is None when every
    requested winding is settled, and the chord seed's geodesic is then
    the answer."""
    near, turns, s_e, s_g, chord, _ = target
    if fan is None:
        path = seeded[0].path
        path.winding = turns
        return path
    fan_thetas, s_grid, us, vs, alive = fan
    seeds: list[_Candidate] = [_Candidate(fan_thetas[-1], chord, 0, 0.0)]
    for k in opts.windings:
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
        dup = any(c.winding == cand.winding
                  and abs(math.remainder(c.theta - cand.theta, TWO_PI))
                  < math.pi / len(_FAN_HEADINGS)
                  for c in picks)
        if not dup:
            picks.append(cand)
    converged: list[_Candidate] = []
    spent = {}          # winding from B* -> [Newton starts, shots]

    def _absorb(cand, got, shots):
        tally = spent.setdefault(cand.winding, [0, 0])
        tally[0] += 1
        tally[1] += shots
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
            _absorb(cand, *_newton(surface, A, near.u,
                                   near.v + TWO_PI * cand.winding, s_e, s_g,
                                   cand.theta, cand.length, opts))

    if not converged:
        # the chord seed is among the failed starts, so the fan ran in full
        tallies = ", ".join(f"{k}: {n}/{m}"
                            for k, (n, m) in sorted(spent.items()))
        screened = f"{ranked[0].resid:.3e}" if ranked else "none"
        raise SolveError(
            "unreachable within search budget: the chord seed did not "
            "converge; Newton starts/shots per winding from the copy of B "
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
