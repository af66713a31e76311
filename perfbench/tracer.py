"""Spans around the program's public callables, recorded from outside.

:meth:`Tracer.install` replaces each callable in ``BOUNDARIES`` at every
module of the ``geofermat`` package that binds it (modules import each
other's names, so one binding is not enough), and wraps the surface's
``metric_terms`` and ``metric_terms_batch`` on the class.  A span holds a
name, start, end, parent and answer id; metric evaluations are not spans
(there are millions) but counts and times charged to the innermost open
span.  Spans stay in memory until :meth:`Tracer.write`.

A span's self time is its duration minus its child spans and minus the
metric evaluations charged to it, so ``surfaces`` time is never counted
twice.  Integrations that the program runs through private helpers (the
Newton endpoint shots of ``connect``) stay in their caller's self time.
"""

import importlib
import json
import math
import sys
import time
from collections import Counter

BOUNDARIES = {
    "cli.run": ("geofermat.cli", "run"),
    "scenario.scenario_from_dict": ("geofermat.scenario", "scenario_from_dict"),
    "fermat.solve_fermat": ("geofermat.fermat", "solve_fermat"),
    "fermat.floating_test": ("geofermat.fermat", "floating_test"),
    "connect.connect_geodesic": ("geofermat.connect", "connect_geodesic"),
    "geodesics.shoot": ("geofermat.geodesics", "shoot"),
    "geodesics.shoot_fan": ("geofermat.geodesics", "shoot_fan"),
    "clairaut.branch_report": ("geofermat.clairaut", "branch_report"),
}
SURFACE_METHODS = ("metric_terms", "metric_terms_batch")
# shoot() integrates a launch with |cos(theta)| at or below this as an exact
# meridian (no adaptive steps), see geofermat.geodesics
MERIDIAN_SNAP = 1e-14

_ns = time.perf_counter_ns


class Span:
    __slots__ = ("id", "name", "parent", "answer", "start", "end", "child_ns",
                 "mt", "mt_ns", "mtb", "mtb_lanes", "mtb_ns", "fans",
                 "failed", "steps", "lane_steps", "warm", "iterations")

    def __init__(self, sid, name, parent, answer):
        self.id, self.name, self.parent, self.answer = sid, name, parent, answer
        self.start = self.end = self.child_ns = 0
        self.mt = self.mt_ns = self.mtb = self.mtb_lanes = self.mtb_ns = 0
        self.fans = self.lane_steps = self.iterations = 0
        self.steps = None
        self.failed = self.warm = False

    def self_ns(self):
        return (self.end - self.start - self.child_ns - self.mt_ns
                - self.mtb_ns)

    def ancestors(self):
        p = self.parent
        while p is not None:
            yield p
            p = p.parent


def _note_shoot(span, args, kwargs, out):
    theta, length = args[2], args[3]
    collect = kwargs.get("collect", args[5] if len(args) > 5 else True)
    if collect and length > 0.0 and abs(math.cos(theta)) > MERIDIAN_SNAP:
        span.steps = len(out.samples) - 1


def _note_fan(span, args, kwargs, out):
    span.lane_steps = len(args[2]) * args[4]
    if span.parent is not None:
        span.parent.fans += 1


def _note_connect(span, args, kwargs, out):
    span.warm = kwargs.get("initial", args[4] if len(args) > 4 else None) is not None


def _note_solve(span, args, kwargs, out):
    span.iterations = out.iterations


_NOTES = {"geodesics.shoot": _note_shoot, "geodesics.shoot_fan": _note_fan,
          "connect.connect_geodesic": _note_connect,
          "fermat.solve_fermat": _note_solve}


class Tracer:
    def __init__(self):
        self.spans = []
        self.kinds = {}                 # surface kind -> [calls, ns]
        self._root = Span(0, "outside", None, None)
        self._stack = [self._root]
        self._answer = None
        self._next_id = 1
        self._undo = []

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every boundary at every binding; raises if one is missing."""
        from geofermat.surfaces import ProfileSurface
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "geofermat" or n.startswith("geofermat."))]
        for name, (modname, attr) in BOUNDARIES.items():
            orig = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is orig]:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))
        for meth in SURFACE_METHODS:
            orig = getattr(ProfileSurface, meth)
            setattr(ProfileSurface, meth, self._wrap_metric(meth, orig))
            self._undo.append((ProfileSurface, meth, orig))

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def _wrap(self, name, fn):
        stack, spans, note = self._stack, self.spans, _NOTES.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = Span(self._next_id, name, parent, self._answer)
            self._next_id += 1
            stack.append(span)
            span.start = _ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = _ns()
                stack.pop()
                parent.child_ns += span.end - span.start
                spans.append(span)
            if note is not None:
                note(span, args, kwargs, out)
            return out

        return wrapper

    def _wrap_metric(self, meth, fn):
        stack, kinds = self._stack, self.kinds
        if meth == "metric_terms":
            def metric_terms(surface, u):
                t0 = _ns()
                out = fn(surface, u)
                dt = _ns() - t0
                top = stack[-1]
                top.mt += 1
                top.mt_ns += dt
                k = kinds.get(surface.kind)
                if k is None:
                    k = kinds[surface.kind] = [0, 0]
                k[0] += 1
                k[1] += dt
                return out
            return metric_terms

        def metric_terms_batch(surface, u):
            t0 = _ns()
            out = fn(surface, u)
            top = stack[-1]
            top.mtb_ns += _ns() - t0
            top.mtb += 1
            top.mtb_lanes += out[0].size
            return out
        return metric_terms_batch

    # -- answers -------------------------------------------------------------

    def answer(self, answer_id):
        """Context manager: one answer's root span."""
        return _AnswerScope(self, answer_id)

    def fired(self):
        """Names of the boundaries that recorded at least one call."""
        names = {s.name for s in self.spans}
        spans = self.spans + [self._root]
        if any(s.mt for s in spans):
            names.add("surfaces.metric_terms")
        if any(s.mtb for s in spans):
            names.add("surfaces.metric_terms_batch")
        return names

    def answer_counts(self):
        """Deterministic work counts per answer id, for exact comparison."""
        per = {}
        for s in self.spans:
            c = per.setdefault(s.answer, Counter())
            c[s.name + ".calls"] += 1
            c[s.name + ".metric_terms"] += s.mt
            c[s.name + ".batch_lanes"] += s.mtb_lanes
            c[s.name + ".failed"] += s.failed
            c[s.name + ".fans"] += s.fans
            c[s.name + ".steps"] += s.steps or 0
            c[s.name + ".lane_steps"] += s.lane_steps
            c[s.name + ".iterations"] += s.iterations
        return {a: sorted((k, v) for k, v in c.items() if v)
                for a, c in per.items()}

    def write(self, path):
        """Spans as JSON lines: id, parent, answer, name, start and end in
        ns, scalar and batched metric evaluations charged to the span."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps([s.id, s.parent.id, s.answer, s.name,
                                     s.start, s.end, s.mt, s.mtb_lanes]) + "\n")


class _AnswerScope:
    def __init__(self, tracer, answer_id):
        self.tracer, self.answer_id = tracer, answer_id

    def __enter__(self):
        t = self.tracer
        t._answer = self.answer_id
        self.span = Span(t._next_id, "answer", t._root, self.answer_id)
        t._next_id += 1
        t._stack.append(self.span)
        self.span.start = _ns()
        return self.span

    def __exit__(self, *exc):
        t = self.tracer
        self.span.end = _ns()
        t._stack.pop()
        t.spans.append(self.span)
        t._answer = None
        return False


def layer_metrics(spans, kinds, n_answers):
    """Per-layer metrics from one traced pass over ``n_answers`` answers;
    counts and times are per answer unless the name says otherwise."""
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def total(name, fn):
        return sum(fn(s) for s in by.get(name, ()))

    def per_answer(x):
        return x / n_answers

    def ms(x_ns):
        return x_ns / 1e6

    def under(name, ancestor):
        return [s for s in by.get(name, ())
                if any(a.name == ancestor for a in s.ancestors())]

    mt_calls = sum(s.mt for s in spans)
    mt_ns = sum(s.mt_ns for s in spans)
    out = {
        "surfaces.metric_terms.calls": per_answer(mt_calls),
        "surfaces.metric_terms.ns": mt_ns / mt_calls if mt_calls else 0.0,
    }
    for kind in ("sphere", "cylinder", "cone", "paraboloid", "catenoid",
                 "torus", "custom"):
        calls, ns = kinds.get(kind, (0, 0))
        out[f"surfaces.metric_terms.ns.{kind}"] = ns / calls if calls else 0.0
    out["surfaces.metric_terms_batch.calls"] = per_answer(sum(s.mtb for s in spans))
    out["surfaces.metric_terms_batch.lanes"] = per_answer(sum(s.mtb_lanes for s in spans))
    out["surfaces.self_ms"] = per_answer(ms(sum(s.mt_ns + s.mtb_ns for s in spans)))

    shoots = by.get("geodesics.shoot", [])
    stepped = [s for s in shoots if s.steps]
    steps = sum(s.steps for s in stepped)
    out["geodesics.shoot.calls"] = per_answer(len(shoots))
    out["geodesics.shoot.self_ms"] = per_answer(ms(total("geodesics.shoot", Span.self_ns)))
    out["geodesics.shoot.steps_per_shot"] = steps / len(stepped) if stepped else 0.0
    out["geodesics.shoot.rhs_per_step"] = (sum(s.mt for s in stepped) / steps
                                           if steps else 0.0)
    out["geodesics.shoot_fan.calls"] = per_answer(len(by.get("geodesics.shoot_fan", ())))
    out["geodesics.shoot_fan.lane_steps"] = per_answer(total("geodesics.shoot_fan",
                                                             lambda s: s.lane_steps))
    out["geodesics.shoot_fan.self_ms"] = per_answer(ms(total("geodesics.shoot_fan",
                                                             Span.self_ns)))

    connects = by.get("connect.connect_geodesic", [])
    warm = [s for s in connects if s.warm]
    # metric evaluations (scalar calls plus batch lanes) made inside a
    # connect, its child shots and fans included
    connect_evals = sum(
        s.mt + s.mtb_lanes for s in spans
        if s.name == "connect.connect_geodesic"
        or any(a.name == "connect.connect_geodesic" for a in s.ancestors()))
    out["connect.calls"] = per_answer(len(connects))
    out["connect.cold_calls"] = per_answer(len(connects) - len(warm))
    out["connect.warm_calls"] = per_answer(len(warm))
    out["connect.warm_fallback_frac"] = (sum(1 for s in warm if s.fans) / len(warm)
                                         if warm else 0.0)
    out["connect.self_ms"] = per_answer(ms(total("connect.connect_geodesic", Span.self_ns)))
    out["connect.rhs_per_call"] = connect_evals / len(connects) if connects else 0.0
    out["connect.failures"] = per_answer(sum(s.failed for s in connects))

    out["fermat.floating_test.ms"] = per_answer(ms(total(
        "fermat.floating_test", lambda s: s.end - s.start)))
    out["fermat.floating_test.connects"] = per_answer(len(under(
        "connect.connect_geodesic", "fermat.floating_test")))
    out["fermat.solve.self_ms"] = per_answer(ms(total("fermat.solve_fermat", Span.self_ns)))
    out["fermat.solve.iterations"] = per_answer(total("fermat.solve_fermat",
                                                      lambda s: s.iterations))
    out["fermat.solve.connects"] = per_answer(len(under(
        "connect.connect_geodesic", "fermat.solve_fermat")))
    out["clairaut.branch_report.ms"] = per_answer(ms(total(
        "clairaut.branch_report", lambda s: s.end - s.start)))
    out["scenario.parse_ms"] = per_answer(ms(total(
        "scenario.scenario_from_dict", lambda s: s.end - s.start)))
    out["cli.self_ms"] = per_answer(ms(total("cli.run", Span.self_ns)))
    return out
