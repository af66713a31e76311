#!/usr/bin/env python3
"""geofermat benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload fermat-planted --seed 1 \\
        --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures the same inputs untraced and then traced twice,
checks that every wrapped boundary fired and that the per-answer work
counts of the two traced passes are identical, and reports the per-layer
metrics.  Every answer is checked against an oracle that does not use the
program.  The last line of standard output is the JSON result; the full
record (machine facts, failures, spans) goes under ``.perfbench_out/``.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# p90 needs ten answers beyond it
MIN_ANSWERS = 100
# a run that is still short of MIN_ANSWERS stops here regardless
MAX_RUN_S = 150.0
SETUP_REPEATS = 7
# the machine's speed is probed this often during the timed loop
PROBE_EVERY_S = 0.1
# mean probe time on the 2-core Intel Xeon VM over the runs that sized
# the benchmark: timings are reported at that machine speed
PROBE_REF_NS = 400_000
POOL = {"fermat-planted": 160, "connect-cold": 1280, "shoot-paths": 480}
# boundaries each workload must reach in the traced run
EXPECTED = {
    "fermat-planted": {"cli.run", "scenario.scenario_from_dict",
                       "fermat.solve_fermat", "fermat.floating_test",
                       "connect.connect_geodesic", "geodesics.shoot",
                       "geodesics.shoot_fan", "clairaut.branch_report",
                       "surfaces.metric_terms", "surfaces.metric_terms_batch"},
    "connect-cold": {"connect.connect_geodesic", "geodesics.shoot",
                     "geodesics.shoot_fan", "surfaces.metric_terms",
                     "surfaces.metric_terms_batch"},
    "shoot-paths": {"geodesics.shoot", "surfaces.metric_terms",
                    "surfaces.metric_terms_batch"},
}

SETUP_CODE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import geofermat\n"
    "for spec in json.loads(sys.argv[2]):\n"
    "    geofermat.make_surface(**spec)\n"
)


def _probe_kernel():
    """Fixed work that does not touch the program: a scalar float loop with
    math calls and a few small-array numpy calls, the two kinds of work
    the program does."""
    import numpy as np
    u, du = 0.3, 1.0
    for _ in range(300):
        s, c = math.sin(u), math.cos(u)
        du += 0.01 * (-s * c * du * du / (1.0 + s * s))
        u += 0.01 * du
    x = np.linspace(0.1, 1.0, 17)
    for _ in range(30):
        x = np.where(x > 0.0, np.sin(x) * 0.5 + np.cos(x) * 0.5, x)
    return u + float(x[0])


class Speed:
    """Machine speed over a run, from the probe kernel interleaved with the
    work.  On a shared VM, steal and contention from other tenants slow
    the work by up to a third over minutes; the probe slows with it, so timings scaled by
    ``factor()`` compare across runs where raw ones do not."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0
        self._last = -math.inf

    def probe(self):
        t0 = time.perf_counter_ns()
        _probe_kernel()
        t1 = time.perf_counter_ns()
        self.samples.append(t1 - t0)
        self._last = t1 / 1e9
        self.spent_s += (t1 - t0) / 1e9

    def maybe_probe(self):
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def factor(self, how=statistics.fmean):
        """Reference probe time over this run's mean probe time: below 1
        on a machine slower than the reference.  The mean counts the short
        bursts of contention that slow the work as well; ``how=median``
        skips them."""
        return PROBE_REF_NS / how(self.samples)


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def import_program():
    if not (SRC / "geofermat" / "__init__.py").is_file():
        raise BenchError(f"no geofermat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import geofermat
    if Path(geofermat.__file__).resolve().parent != SRC / "geofermat":
        raise BenchError(f"imported geofermat from {geofermat.__file__}, "
                         f"not from {SRC}")


def machine_facts():
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def measure_setup(surfaces):
    """Median wall time of a fresh interpreter that imports geofermat and
    builds the workload's surfaces.  Not scaled by the machine's speed:
    probes taken in the idle parent between interpreters do not track
    them."""
    specs = json.dumps(list(surfaces))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), specs],
                       check=True, timeout=120, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


class Ledger:
    """Answers of one run: times, and the first output of each input for
    the oracle.  A repeated input must reproduce its first output exactly."""

    def __init__(self, workload, pool):
        self.wl, self.pool = workload, pool
        self.times_ns = []
        self.indices = []
        self.first = {}            # pool index -> (fingerprint, out, error)
        self.mismatch = set()

    def run_one(self, idx):
        inp = self.pool[idx]
        t0 = time.perf_counter_ns()
        try:
            out, err = self.wl.answer(inp), None
        except Exception as exc:   # an answer that raises is a failure
            out, err = None, f"{type(exc).__name__}: {exc}"
        self.times_ns.append(time.perf_counter_ns() - t0)
        self.indices.append(idx)
        fp = None if err else self.wl.fingerprint(out)
        if idx not in self.first:
            self.first[idx] = (fp, out, err)
        elif (fp, err) != (self.first[idx][0], self.first[idx][2]):
            self.mismatch.add(idx)

    def verdicts(self):
        """Pool index -> None or the reason the answer is wrong."""
        out = {}
        for idx, (_, res, err) in self.first.items():
            if err is None:
                try:
                    err = self.wl.check(self.pool[idx], res)
                except Exception as exc:   # malformed answer
                    err = f"oracle could not read the answer: {type(exc).__name__}: {exc}"
            if idx in self.mismatch:
                err = (err + "; " if err else "") + "repeat gave a different answer"
            out[idx] = err
        return out


def closed_loop(ledger, order, seconds, min_answers, speed=None):
    """Answer inputs in ``order`` (cycled) until ``seconds`` have passed and
    at least ``min_answers`` answers are in, probing the machine between
    answers when ``speed`` is given; returns the wall time spent answering."""
    t0 = time.perf_counter()
    probing = speed.spent_s if speed else 0.0
    i = 0
    while True:
        elapsed = time.perf_counter() - t0
        if (elapsed >= seconds and i >= min_answers) or elapsed >= MAX_RUN_S:
            return elapsed - ((speed.spent_s if speed else 0.0) - probing)
        ledger.run_one(order[i % len(order)])
        i += 1
        if speed:
            speed.maybe_probe()


def summarize_failures(ledger):
    verdicts = ledger.verdicts()
    failed = sum(1 for idx in ledger.indices if verdicts[idx])
    bad = [{"index": idx, "stratum": ledger.pool[idx].get("stratum"),
            "input": describe(ledger.pool[idx]), "reason": why}
           for idx, why in sorted(verdicts.items()) if why]
    return failed, bad


def describe(inp):
    """JSON-safe view of an input, enough to reproduce it."""
    return {k: v for k, v in inp.items()
            if k not in ("surface", "profile", "end")}


def percentile_ms(times_ns, q):
    ms = [t / 1e6 for t in times_ns]
    if q == 50:
        return statistics.median(ms)
    return statistics.quantiles(ms, n=100, method="inclusive")[q - 1]


def run_untraced(wl, pool, seconds, speed):
    """End-to-end metrics; times are scaled to the reference machine speed
    and also returned raw among the extras."""
    ledger = Ledger(wl, pool)
    speed.probe()
    wall = closed_loop(ledger, range(len(pool)), seconds, MIN_ANSWERS, speed)
    failed, bad = summarize_failures(ledger)
    n = len(ledger.times_ns)
    f = speed.factor()
    p50, p90 = (percentile_ms(ledger.times_ns, q) for q in (50, 90))
    metrics = {
        "answer_ms.p50": (p50 * f, "ms"),
        "answer_ms.p90": (p90 * f, "ms"),
        "answers_per_s": (n / wall / f, "1/s"),
        "ok_frac": ((n - failed) / n, "frac"),
    }
    extra = {"failed_frac": (failed / n, "frac"), "wall_s": (wall, "s"),
             "speed_factor": (f, "ratio"),
             "speed_factor.median": (speed.factor(statistics.median), "ratio"),
             "raw.answer_ms.p50": (p50, "ms"), "raw.answer_ms.p90": (p90, "ms"),
             "raw.answers_per_s": (n / wall, "1/s")}
    return n, failed, bad, metrics, extra


def run_traced(wl, pool, seconds, seed):
    from tracer import Tracer, layer_metrics
    k = min(wl.trace_answers, len(pool))
    order = list(range(k))
    plain = Ledger(wl, pool)
    wall_plain = closed_loop(plain, order, seconds / 4.0, k)
    plain_rate = len(plain.times_ns) / wall_plain

    passes = []
    for _ in range(2):
        tracer = Tracer()
        ledger = Ledger(wl, pool)
        tracer.install()
        try:
            t0 = time.perf_counter()
            for idx in order:
                with tracer.answer(idx):
                    ledger.run_one(idx)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        passes.append((tracer, ledger, wall))

    missing = EXPECTED[wl.name] - passes[0][0].fired()
    if missing:
        raise BenchError(f"wrapped boundaries never fired on {wl.name}: "
                         f"{sorted(missing)}; a call was rerouted around them")
    counts = [t.answer_counts() for t, _, _ in passes]
    if counts[0] != counts[1]:
        diff = [a for a in counts[0] if counts[0][a] != counts[1].get(a)]
        raise BenchError(f"per-answer work counts differ between two traced "
                         f"passes (answers {diff[:10]})")

    metrics = {}
    for tracer, _, _ in passes:
        for name, val in layer_metrics(tracer.spans, tracer.kinds, k).items():
            metrics.setdefault(name, []).append(val)
    metrics = {name: (statistics.fmean(vals), unit_of(name))
               for name, vals in metrics.items()}
    traced_rate = 2 * k / sum(w for _, _, w in passes)
    metrics["trace.overhead_frac"] = (plain_rate / traced_rate - 1.0, "frac")

    OUT.mkdir(exist_ok=True)
    passes[0][0].write(OUT / f"spans-{wl.name}-seed{seed}.jsonl")
    attempted = failed = 0
    bad = []
    for ledger in [plain] + [led for _, led, _ in passes]:
        f, b = summarize_failures(ledger)
        attempted += len(ledger.times_ns)
        failed += f
        bad += b
    return attempted, failed, bad, metrics, {"trace_answers": (k, "count")}


def unit_of(name):
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith(".ns") or ".ns." in name:
        return "ns"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(EXPECTED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import_program()
        from workloads import WORKLOADS
        wl = WORKLOADS[args.workload]()
        facts = machine_facts()
        if args.trace == 0:
            setup_s, setup_all = measure_setup(wl.surfaces)
        pool = wl.generate(args.seed, POOL[wl.name])
        for idx in range(min(2, len(pool))):    # first-call warm-up
            wl.answer(pool[idx])
        if args.trace == 0:
            attempted, failed, bad, metrics, extra = run_untraced(
                wl, pool, args.seconds, Speed())
            metrics["setup_s"] = (setup_s, "s")
            extra["setup_s.runs"] = (setup_all, "s")
        else:
            attempted, failed, bad, metrics, extra = run_traced(
                wl, pool, args.seconds, args.seed)
    except (BenchError, ImportError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for name, (val, unit) in {**metrics, **extra}.items():
        print(f"{args.workload}  {name:36s} {val!s:>24} {unit}")
    print(f"{args.workload}  machine {json.dumps(facts)}")
    for item in bad:
        print(f"{args.workload}  FAILED {json.dumps(item)}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": facts, "attempted": attempted, "failed": failed,
              "failures": bad,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in {**metrics, **extra}.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
