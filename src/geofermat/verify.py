"""Built-in verification suites.

Each suite checks one oracle- or property-based claim at a fixed seed and
returns the values it measured, as a dict of plain bools, ints and floats.
``SUITES`` pairs each suite with its bounds: each names one measured value,
or ``elapsed_s``, the time ``run_suites`` takes it to run, a comparison
("at most", "more than" or "equal to") and a limit.  ``run_suites`` passes
a suite when every bound holds, and names it by its key in ``SUITES``.
The oracles are independent of the code paths they check: closed forms on
the sphere, cylinder and plane, an independent flat-space Weiszfeld
iteration, planted-tree constructions, and direct evaluation of the
closed-form identities.
"""

import math
import operator
import sys
import time
from dataclasses import dataclass

import numpy as np

from .clairaut import (BranchConstants, alpha1_window, branch_report,
                       law_of_sines_diameter, predict_clairaut_constants,
                       rotate_tree_experiment, sphere_sine_ratio_probe,
                       triangle_cosine)
from .connect import connect_geodesic
from .errors import UndefinedRatioError
from .fermat import (sector_angles_from_weights, solve_fermat,
                     weights_from_sector_angles)
from .geodesics import shoot
from .surfaces import TWO_PI, SurfacePoint, make_surface

__all__ = ["SuiteResult", "SUITES", "run_suites"]


@dataclass
class SuiteResult:
    name: str
    criterion: int       # the suite's position in SUITES, from 1
    passed: bool
    detail: str
    elapsed_s: float
    stats: dict


def _sample_sphere_point(rng):
    z = rng.uniform(-1.0, 1.0)
    v = rng.uniform(-math.pi, math.pi)
    return math.acos(z), v


def _sphere_pair(rng, sep_lo=0.1, sep_hi=2.5, pole_margin=0.25):
    """A random admissible sphere pair: separation in [sep_lo, sep_hi] and
    the connecting arc at least pole_margin away from both poles (the
    chart region the solver works in)."""
    while True:
        ua, va = _sample_sphere_point(rng)
        ub, vb = _sample_sphere_point(rng)
        ea = np.array([math.sin(ua) * math.cos(va),
                       math.sin(ua) * math.sin(va), math.cos(ua)])
        eb = np.array([math.sin(ub) * math.cos(vb),
                       math.sin(ub) * math.sin(vb), math.cos(ub)])
        sep = math.acos(max(-1.0, min(1.0, float(ea @ eb))))
        if not sep_lo <= sep <= sep_hi:
            continue
        ts = np.linspace(0.0, 1.0, 65)
        arc = (np.sin((1.0 - ts)[:, None] * sep) * ea
               + np.sin(ts[:, None] * sep) * eb) / math.sin(sep)
        if np.max(np.abs(arc[:, 2])) > math.cos(pole_margin):
            continue
        return SurfacePoint(ua, va), SurfacePoint(ub, vb), sep


def suite_sphere_distance():
    """Criterion 1: connect length vs the great-circle closed form."""
    rng = np.random.default_rng(101)
    sphere = make_surface("sphere", radius=1.0)
    worst = 0.0
    for _ in range(200):
        A, B, sep = _sphere_pair(rng)
        length = connect_geodesic(sphere, A, B).length
        worst = max(worst, abs(length - sep) / sep)
    return {"pairs": 200, "max_rel_err": worst}


def suite_cylinder_unroll():
    """Criterion 2: connect vs the unrolled-strip closed form with
    windings in {-1, 0, 1}."""
    rng = np.random.default_rng(202)
    cyl = make_surface("cylinder", radius=1.0)
    worst = 0.0
    for _ in range(100):
        ua, ub = rng.uniform(-3.0, 3.0, 2)
        va = rng.uniform(-math.pi, math.pi)
        dv = rng.uniform(-2.5 * math.pi, 2.5 * math.pi)
        expected = min(math.hypot(ub - ua, dv - TWO_PI * k)
                       for k in (-1, 0, 1))
        if expected < 1e-3:
            continue
        length = connect_geodesic(cyl, SurfacePoint(ua, va),
                                  SurfacePoint(ub, va + dv)).length
        worst = max(worst, abs(length - expected) / expected)
    return {"pairs": 100, "max_rel_err": worst}


def suite_clairaut_drift():
    """Criterion 3: first-integral drift on random shots of length <= 3,
    each over its budget ``1e-8 * max(1, rho)`` and scaled by 1e-8."""
    rng = np.random.default_rng(303)
    cases = [
        ("sphere", make_surface("sphere", radius=1.0),
         lambda: rng.uniform(0.6, math.pi - 0.6), math.sin(0.25)),
        ("paraboloid", make_surface("paraboloid", a=1.0),
         lambda: rng.uniform(0.8, 2.0), 0.1),
        ("catenoid", make_surface("catenoid", a=1.0),
         lambda: rng.uniform(-1.0, 1.0), 0.0),
    ]
    worst = 0.0
    worst_unit = 0.0
    for _, surface, draw_u, c_floor in cases:
        for _ in range(50):
            u0 = draw_u()
            v0 = rng.uniform(-math.pi, math.pi)
            length = rng.uniform(0.5, 3.0)
            phi0 = float(surface.metric_terms_batch(u0)[4])
            while True:
                theta = rng.uniform(-math.pi, math.pi)
                if abs(phi0 * math.cos(theta)) >= c_floor:
                    break
            path = shoot(surface, SurfacePoint(u0, v0), theta, length)
            bound = 1e-8 * max(1.0, path.rho_max())
            worst = max(worst, path.c_drift / bound * 1e-8)
            worst_unit = max(worst_unit, path.unit_defect / bound * 1e-8)
    return {"shots": 150, "max_drift": worst, "max_unit": worst_unit}


def _weiszfeld(points_xy, b, tol=1e-14, max_iter=200_000):
    pts = np.asarray(points_xy, dtype=float)
    b = np.asarray(b, dtype=float)
    x = (pts * b[:, None]).sum(axis=0) / b.sum()
    for _ in range(max_iter):
        d = np.linalg.norm(pts - x, axis=1)
        if np.any(d < 1e-14):
            return pts[int(np.argmin(d))]
        wgt = b / d
        x_new = (pts * wgt[:, None]).sum(axis=0) / wgt.sum()
        if np.linalg.norm(x_new - x) <= tol * max(1.0, np.linalg.norm(x)):
            return x_new
        x = x_new
    return x


def _valid_weights(rng, lo=0.6, hi=1.8, margin=0.0):
    while True:
        b = rng.uniform(lo, hi, 3)
        s = b.sum()
        if (b[0] + b[1] - b[2] > margin * s and b[1] + b[2] - b[0] > margin * s
                and b[0] + b[2] - b[1] > margin * s):
            return tuple(float(x) for x in b)


def suite_plane_weiszfeld():
    """Criterion 4: the surface solver on the flat chart against an
    independent Weiszfeld iteration in the embedding plane."""
    rng = np.random.default_rng(404)
    plane = make_surface("plane")
    worst_pos = 0.0
    worst_ang = 0.0
    done = 0
    while done < 50:
        v1 = rng.uniform(-0.5, 0.5)
        v2 = v1 + rng.uniform(0.55, 1.05)
        v3 = v2 + rng.uniform(0.55, 1.05)
        radii = rng.uniform(0.7, 2.2, 3)
        pts = [SurfacePoint(float(r), float(v))
               for r, v in zip(radii, (v1, v2, v3))]
        b = _valid_weights(rng, margin=0.02)
        xy = np.array([[r * math.cos(v), r * math.sin(v)]
                       for r, v in ((p.u, p.v) for p in pts)])
        oracle = _weiszfeld(xy, b)
        if min(np.linalg.norm(xy - oracle, axis=1)) < 1e-3:
            continue
        # solve_fermat runs the floating test first; vertex cases are skipped
        res = solve_fermat(plane, pts, b)
        if res.mode != "interior":
            continue
        got = np.asarray(plane.embed(res.point)[:2])
        worst_pos = max(worst_pos, float(np.linalg.norm(got - oracle)))
        expected = sector_angles_from_weights(b)
        worst_ang = max(worst_ang, max(
            abs(a - e) for a, e in zip(res.sector_angles, expected)))
        done += 1
    return {"triangles": done, "max_pos": worst_pos, "max_ang": worst_ang}


def _planted_case(surface, rng, u_lo, u_hi):
    b = _valid_weights(rng, margin=0.02)
    center = SurfacePoint(float(rng.uniform(u_lo, u_hi)),
                          float(rng.uniform(-math.pi, math.pi)))
    lengths = rng.uniform(0.2, 0.5, 3)
    theta0 = float(rng.uniform(0.0, TWO_PI))
    phi = sector_angles_from_weights(b)
    headings = (theta0, theta0 + phi[0], theta0 + phi[0] + phi[1])
    terminals = [shoot(surface, center, th, float(L)).end()
                 for th, L in zip(headings, lengths)]
    return b, center, terminals, phi


def suite_planted_recovery():
    """Criterion 5: recover a planted branching point on three surfaces."""
    rng = np.random.default_rng(505)
    cases = [
        (make_surface("sphere", radius=1.0), 1.0, 2.1),
        (make_surface("paraboloid", a=1.0), 0.9, 1.6),
        (make_surface("catenoid", a=1.0), -0.6, 0.6),
    ]
    worst_pos = 0.0
    worst_ang = 0.0
    for surface, u_lo, u_hi in cases:
        for _ in range(20):
            b, center, terminals, phi = _planted_case(surface, rng, u_lo, u_hi)
            res = solve_fermat(surface, terminals, b)
            E, G, _, _, _ = surface.metric_terms(center.u)
            gap = math.hypot(math.sqrt(E) * (res.point.u - center.u),
                             math.sqrt(G) * (res.point.v - center.v))
            worst_pos = max(worst_pos, gap)
            worst_ang = max(worst_ang, max(
                abs(a - e) for a, e in zip(res.sector_angles, phi)))
    return {"trees": 60, "max_pos": worst_pos, "max_ang": worst_ang}


def suite_inverse_round_trip():
    """Criterion 6: weights -> angles -> weights is the identity."""
    rng = np.random.default_rng(606)
    worst = 0.0
    worst_sum = 0.0
    for _ in range(1000):
        b = _valid_weights(rng, lo=0.1, hi=5.0, margin=1e-3)
        angles = sector_angles_from_weights(b)
        worst_sum = max(worst_sum, abs(sum(angles) - TWO_PI))
        back = weights_from_sector_angles(angles, total=sum(b)).astuple()
        worst = max(worst, max(abs(x - y) for x, y in zip(b, back)))
    return {"triples": 1000, "max_err": worst, "max_sum_err": worst_sum}


def _acute_weights(rng):
    """Weights whose three sector angles all lie strictly inside
    (pi/2, pi), with margins keeping the quadratic roots separated."""
    while True:
        b = rng.uniform(0.5, 2.0, 3)
        vals = [triangle_cosine(b[i], b[j], b[k])
                for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
        # cos(sector) = -value, so this keeps every sector in (pi/2, pi)
        # away from both endpoints
        if all(1e-3 < x < 1.0 - 1e-3 for x in vals):
            return tuple(float(x) for x in b)


def suite_root_consistency():
    """Criterion 7: exactly one quadratic root per ratio reproduces the
    angular relations; the published sign of the first ratio is wrong at
    the documented configuration.  ``failures`` counts the draws whose
    sector angles miss 2 pi by more than 1e-12 and the samples (the draws
    whose alpha1 window is wide enough to sample) without exactly one
    matching root per ratio."""
    rng = np.random.default_rng(707)
    failures = 0
    samples = 0
    for _ in range(500):
        b = _acute_weights(rng)
        failures += abs(sum(sector_angles_from_weights(b)) - TWO_PI) > 1e-12
        lo, hi = alpha1_window(b)
        lo = max(lo + 0.05 * (hi - lo), 0.5 * math.pi + 0.06)
        hi = hi - 0.05 * (hi - lo)
        if hi - lo < 0.02:
            continue
        alpha1 = float(rng.uniform(lo, hi))
        pc = predict_clairaut_constants(b, alpha1, rho0=1.0)
        ratio2 = pc.c2 / pc.c1
        ratio3 = pc.c3 / pc.c1
        n2 = sum(1 for r in pc.c2_roots if abs(r - ratio2) <= 1e-12)
        n3 = sum(1 for r in pc.c3_roots if abs(r - ratio3) <= 1e-12)
        failures += n2 != 1 or n3 != 1
        samples += 1
    printed = predict_clairaut_constants((1.0, 1.0, 1.0),
                                         math.radians(100.0), 1.0)
    sign_flagged = (not printed.printed_sign_ok_c2
                    and printed.printed_sign_ok_c3
                    and printed.c2_match_err <= 1e-12
                    and printed.c3_match_err <= 1e-12)
    return {"samples": samples, "failures": failures,
            "printed_sign_flagged": sign_flagged}


def suite_sine_rule():
    """Criterion 8: weight / sin(opposite sector) is branch-independent
    and equals the corrected circumdiameter; the published form differs."""
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(1000):
        b = _valid_weights(rng, lo=0.2, hi=3.0, margin=1e-3)
        check = law_of_sines_diameter(b)
        scale = max(1.0, check.d_corrected)
        spread = max(check.per_branch) - min(check.per_branch)
        gap = max(abs(x - check.d_corrected) for x in check.per_branch)
        worst = max(worst, spread / scale, gap / scale)
    equal = law_of_sines_diameter((1.0, 1.0, 1.0))
    printed_differs = (abs(equal.d_printed - 2.0) <= 1e-12
                       and abs(equal.d_corrected - 2.0 / math.sqrt(3.0))
                       <= 1e-12 and not equal.printed_matches)
    return {"triples": 1000, "max_dev": worst,
            "printed_differs": printed_differs}


def suite_rotation_invariance():
    """Criterion 9: recovered weights are rotation-invariant while the
    branch constants change: 4 trees, each turned by 0 to 50 degrees; the
    constants' spread is taken over the 1e-3 * rho floor."""
    rng = np.random.default_rng(909)
    deltas = [math.radians(d) for d in range(0, 51, 10)]
    cases = [
        (make_surface("paraboloid", a=1.0), SurfacePoint(1.0, 0.2), 1.9),
        (make_surface("sphere", radius=1.0), SurfacePoint(1.2, 0.5), 0.7),
    ]
    worst_w = 0.0
    min_spread = math.inf
    for surface, center, theta0 in cases:
        for b in [(2.0, 3.0, 4.0), _valid_weights(rng, margin=0.05)]:
            exp = rotate_tree_experiment(surface, center, b, (0.3, 0.4, 0.5),
                                         theta0, deltas)
            rho0 = float(surface.metric_terms_batch(center.u)[4])
            worst_w = max(worst_w, exp.weight_spread)
            min_spread = min(min_spread,
                             min(s / (1e-3 * rho0) for s in exp.clairaut_spread))
    return {"weight_spread": worst_w, "min_spread_ratio": min_spread}


def suite_sphere_probe():
    """Criterion 10: the sphere sine-ratio probe reports deterministic
    deviations, is exact for the proportional construction, and flags
    positivity violations instead of asserting the claim."""
    sphere = make_surface("sphere", radius=1.0)
    center = SurfacePoint(1.2, 0.3)
    checks = {}

    # proportional construction: sin(beta_i) = kappa * b_i by design
    b = (2.0, 3.0, 4.0)
    kappa = 0.2
    thetas = [math.acos(kappa * bi) for bi in b]
    thetas[1] = -thetas[1]
    paths = [shoot(sphere, center, th, 0.3) for th in thetas]
    rep = branch_report(sphere, center, paths, b)
    checks["proportional_dev"] = max(rep.sphere_probe.deviations)
    checks["proportional_positive"] = rep.sphere_probe.all_positive

    # positivity violation: one branch aims against the meridian frame
    betas = [math.radians(x) for x in (30.0, 150.0, 270.0)]
    paths = [shoot(sphere, center, 0.5 * math.pi - be, 0.3) for be in betas]
    rep2 = branch_report(sphere, center, paths, (1.0, 1.0, 1.0))
    checks["violation_flagged"] = (rep2.sphere_probe is not None
                                   and not rep2.sphere_probe.all_positive)

    # planted Fermat tree: a deterministic deviation report
    phi = sector_angles_from_weights(b)
    headings = (2.0, 2.0 + phi[0], 2.0 + phi[0] + phi[1])
    paths = [shoot(sphere, center, th, L)
             for th, L in zip(headings, (0.3, 0.4, 0.5))]
    rep3a = branch_report(sphere, center, paths, b)
    rep3b = branch_report(sphere, center, paths, b)
    checks["deterministic"] = (rep3a.sphere_probe == rep3b.sphere_probe
                               and rep3a.sector_angles == rep3b.sector_angles)
    checks["planted_dev"] = (None if rep3a.sphere_probe is None
                             else max(rep3a.sphere_probe.deviations))

    # all-meridian constants leave the ratios undefined
    synth = tuple(BranchConstants(math.pi / 2, math.pi / 2, 0.0,
                                  5e-17, 0.0) for _ in range(3))
    try:
        sphere_sine_ratio_probe(sphere, synth, (1.0, 1.0, 1.0))
        checks["meridian_error"] = False
    except UndefinedRatioError:
        checks["meridian_error"] = True
    return checks


# each bound: (measured value or "elapsed_s", comparison, limit)
SUITES = {
    "sphere-distance": (suite_sphere_distance, (
        ("max_rel_err", "at most", 1e-7), ("elapsed_s", "at most", 30.0))),
    "cylinder-unroll": (suite_cylinder_unroll, (
        ("max_rel_err", "at most", 1e-7),)),
    "clairaut-drift": (suite_clairaut_drift, (
        ("max_drift", "at most", 1e-8), ("max_unit", "at most", 1e-8))),
    "plane-weiszfeld": (suite_plane_weiszfeld, (
        ("max_pos", "at most", 1e-6), ("max_ang", "at most", 1e-6))),
    "planted-recovery": (suite_planted_recovery, (
        ("max_pos", "at most", 1e-5), ("max_ang", "at most", 1e-5))),
    "inverse-round-trip": (suite_inverse_round_trip, (
        ("max_err", "at most", 1e-10), ("max_sum_err", "at most", 1e-12))),
    "root-consistency": (suite_root_consistency, (
        ("failures", "equal to", 0),
        ("printed_sign_flagged", "equal to", True))),
    "sine-rule-diameter": (suite_sine_rule, (
        ("max_dev", "at most", 1e-12), ("printed_differs", "equal to", True))),
    "rotation-invariance": (suite_rotation_invariance, (
        ("weight_spread", "at most", 1e-6),
        ("min_spread_ratio", "more than", 1.0))),
    "sphere-ratio-probe": (suite_sphere_probe, (
        ("proportional_dev", "at most", 1e-6),
        ("proportional_positive", "equal to", True),
        ("violation_flagged", "equal to", True),
        ("deterministic", "equal to", True),
        ("meridian_error", "equal to", True))),
}

_COMPARE = {"at most": operator.le, "more than": operator.gt,
            "equal to": operator.eq}


def _show(x):
    return f"{x:.3g}" if isinstance(x, float) else str(x)


def run_suites(names=None):
    """Run the named suites (all by default), each passing when every bound
    of its ``SUITES`` entry holds; prints one ``[PASS]`` or ``[FAIL]`` line
    per suite to stderr, with each bounded value and its limit, and returns
    the SuiteResult list."""
    order = list(SUITES)
    selected = order if names is None else list(names)
    if not selected:
        raise ValueError("no suite selected")
    for name in selected:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; "
                           f"choose from {sorted(SUITES)}")
    results = []
    for name in selected:
        suite, bounds = SUITES[name]
        t0 = time.perf_counter()
        stats = suite()
        measured = {**stats, "elapsed_s": time.perf_counter() - t0}
        passed = all(_COMPARE[test](measured[key], limit)
                     for key, test, limit in bounds)
        detail = "; ".join(f"{key} {_show(measured[key])} ({test} "
                           f"{_show(limit)})" for key, test, limit in bounds)
        result = SuiteResult(name, order.index(name) + 1, passed, detail,
                             measured["elapsed_s"], stats)
        results.append(result)
        print(f"[{'PASS' if passed else 'FAIL'}] criterion "
              f"{result.criterion:2d} {name}: {detail}", file=sys.stderr)
    return results
