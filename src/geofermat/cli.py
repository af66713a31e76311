"""Command-line interface.

    geofermat <command> --scenario <file> [--out <file>] [--paths <dir>]

Commands: shoot, connect, fermat-solve, fermat-inverse, clairaut-report,
rotate-experiment, verify.  Reports are JSON on stdout (or --out); branch
polylines go to CSV files under --paths.  Exit codes: 0 success, 1
configuration error, 2 numerical failure (also for results holding NaN or
infinity: reports are strict JSON), 3 verification-suite failure.

Reports are deterministic for a given scenario and package version except
for the ``wall_time_ms`` field.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .clairaut import branch_report, rotate_tree_experiment
from .connect import connect_geodesic, connect_geodesics
from .errors import (ChartExitError, ScenarioError, SolveError,
                     UndefinedRatioError, WeightDomainError)
from .fermat import (measure_sector_angles, solve_fermat,
                     weights_from_sector_angles)
from .geodesics import shoot, write_path_csv
from .scenario import (SCHEMA, Scenario, load_scenario, parse_angle,
                       parse_number)
from .verify import run_suites

CONVENTIONS = {
    "frame": "e_parallel = (d/dv)/sqrt(G), e_meridian = (d/du)/sqrt(E)",
    "heading": ("theta measured from e_parallel toward e_meridian; "
                "theta = 0 along increasing v, theta = pi/2 along "
                "increasing u"),
    "angles": ("alpha = theta (angle with parallel), beta = pi/2 - theta "
               "(angle with meridian); radians everywhere"),
    "clairaut_sign": "c = rho * cos(alpha), signed by the departure direction",
    "v_storage": "rotation angle unwrapped; reduce mod 2*pi for display",
}


def _point_dict(p):
    return {"u": p.u, "v": p.v, "v_mod_2pi": p.wrapped_v()}


def _path_dict(path):
    return {
        "length": path.length,
        "theta_start": path.theta_start,
        "theta_end": path.theta_end,
        "clairaut_c": path.c_nominal,
        "clairaut_drift": path.c_drift,
        "unit_speed_defect": path.unit_defect,
        "start": _point_dict(path.start()),
        "end": _point_dict(path.end()),
        "winding": path.winding,
        "ambiguous": path.ambiguous,
        "samples": len(path.samples),
    }


def _write_paths(paths_dir, named_paths):
    out = Path(paths_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, path in named_paths:
        with open(out / f"{name}.csv", "w", encoding="utf-8") as fh:
            write_path_csv(path, fh)


def _cmd_shoot(scn: Scenario, paths_dir, warnings):
    spec = scn.section("shoot")
    p = scn.point(spec.get("from"), "shoot.from")
    theta = parse_angle(spec.get("heading"), "shoot.heading")
    length = parse_number(spec.get("length"), "shoot.length", positive=True)
    path = shoot(scn.surface, p, theta, length, scn.connect_opts.shoot_tol)
    if paths_dir:
        _write_paths(paths_dir, [("shoot", path)])
    return {"path": _path_dict(path)}


def _cmd_connect(scn: Scenario, paths_dir, warnings):
    spec = scn.section("connect")
    A = scn.point(spec.get("from"), "connect.from")
    B = scn.point(spec.get("to"), "connect.to")
    path = connect_geodesic(scn.surface, A, B, scn.connect_opts)
    if path.ambiguous:
        warnings.append({"kind": "ambiguous",
                         "message": "two geodesics tie in length within "
                                    "1e-6; cut-locus regime"})
    if paths_dir:
        _write_paths(paths_dir, [("connect", path)])
    return {"path": _path_dict(path)}


def _fermat_result_dict(res):
    return {
        "mode": res.mode,
        "vertex_index": res.vertex_index,
        "point": _point_dict(res.point),
        "f_value": res.f_value,
        "residual": res.residual,
        "sector_angles": (None if res.sector_angles is None
                          else list(res.sector_angles)),
        "iterations": res.iterations,
        "branches": [_path_dict(p) for p in res.branches],
    }


def _cmd_fermat_solve(scn: Scenario, paths_dir, warnings):
    if scn.weights is None:
        raise ScenarioError("command 'fermat-solve' needs 'weights'",
                            "weights")
    res = solve_fermat(scn.surface, scn.terminals(), scn.weights,
                       scn.fermat_opts)
    if res.mode == "vertex":
        warnings.append({"kind": "vertex-regime",
                         "message": f"minimiser is terminal "
                                    f"{res.vertex_index + 1}; no interior "
                                    "branching point"})
    if paths_dir:
        _write_paths(paths_dir,
                     [(f"branch_{i + 1}", p)
                      for i, p in enumerate(res.branches)])
    return {"fermat": _fermat_result_dict(res)}


def _cmd_fermat_inverse(scn: Scenario, paths_dir, warnings):
    spec = scn.section("inverse")
    total = parse_number(spec.get("total", 1.0), "inverse.total",
                         positive=True)
    if "angles" in spec:
        raw = spec["angles"]
        if not isinstance(raw, list) or len(raw) != 3:
            raise ScenarioError("inverse.angles must be three angles",
                                "inverse.angles")
        angles = tuple(parse_angle(a, f"inverse.angles[{i}]")
                       for i, a in enumerate(raw))
    elif "center" in spec:
        center = scn.point(spec["center"], "inverse.center")
        angles = measure_sector_angles(scn.surface, center, scn.terminals(),
                                       scn.connect_opts)
    else:
        raise ScenarioError("inverse needs 'angles' or 'center'", "inverse")
    try:
        w = weights_from_sector_angles(angles, total)
    except WeightDomainError as exc:
        raise ScenarioError(str(exc), "inverse.angles") from exc
    return {"inverse": {"angles": list(angles), "total": total,
                        "weights": list(w.astuple()),
                        "normalized": list(w.normalized())}}


def _report_dict(rep):
    probe = None
    if rep.sphere_probe is not None:
        probe = {
            "ratios": list(rep.sphere_probe.ratios),
            "weight_fractions": list(rep.sphere_probe.weight_fractions),
            "deviations": list(rep.sphere_probe.deviations),
            "all_positive": rep.sphere_probe.all_positive,
            "sine_sum": rep.sphere_probe.sine_sum,
        }
    predicted = None
    if rep.predicted is not None:
        predicted = {
            "alpha": [rep.predicted.alpha1, rep.predicted.alpha2,
                      rep.predicted.alpha3],
            "constants": [rep.predicted.c1, rep.predicted.c2,
                          rep.predicted.c3],
            "ratio2_roots": list(rep.predicted.c2_roots),
            "ratio3_roots": list(rep.predicted.c3_roots),
            "ratio2_root": rep.predicted.c2_root,
            "ratio3_root": rep.predicted.c3_root,
            "printed_sign_ok": [rep.predicted.printed_sign_ok_c2,
                                rep.predicted.printed_sign_ok_c3],
            "measured_layout_frame": (None if rep.measured_layout_frame is None
                                     else list(rep.measured_layout_frame)),
            "deviation": (None if rep.predicted_deviation is None
                          else list(rep.predicted_deviation)),
        }
    return {
        "rho0": rep.rho0,
        "orientation": rep.orientation,
        "sector_angles": list(rep.sector_angles),
        "branches": [
            {"theta": br.theta, "alpha": br.alpha, "beta": br.beta,
             "c_cos": br.c_cos, "c_sin": br.c_sin}
            for br in rep.branches
        ],
        "prediction": predicted,
        "prediction_note": rep.predicted_note,
        "sphere_probe": probe,
        "sphere_note": rep.sphere_note,
    }


def _cmd_clairaut_report(scn: Scenario, paths_dir, warnings):
    if scn.weights is None:
        raise ScenarioError("command 'clairaut-report' needs 'weights'",
                            "weights")
    raw = scn.section("clairaut", optional=True)
    if "center" in raw:
        center = scn.point(raw["center"], "clairaut.center")
        branches = tuple(connect_geodesics(
            scn.surface, [(center, t) for t in scn.terminals()],
            scn.connect_opts))
        solve = None
    else:
        solve = solve_fermat(scn.surface, scn.terminals(), scn.weights,
                             scn.fermat_opts)
        if solve.mode == "vertex":
            raise SolveError("vertex-regime minimiser has no three-branch "
                             "report; supply clairaut.center to force one")
        center = solve.point
        branches = solve.branches
    rep = branch_report(scn.surface, center, branches, scn.weights)
    if rep.sphere_probe is not None and not rep.sphere_probe.all_positive:
        warnings.append({"kind": "positivity",
                         "message": "some sine constants are not positive; "
                                    "the ratio claim hypothesis fails"})
    if rep.predicted is None and rep.predicted_note:
        warnings.append({"kind": "prediction-window",
                         "message": rep.predicted_note})
    if paths_dir:
        _write_paths(paths_dir,
                     [(f"branch_{i + 1}", p) for i, p in enumerate(branches)])
    out = {"clairaut": _report_dict(rep), "center": _point_dict(center)}
    if solve is not None:
        out["fermat"] = _fermat_result_dict(solve)
    return out


def _cmd_rotate_experiment(scn: Scenario, paths_dir, warnings):
    spec = scn.section("experiment")
    if scn.weights is None:
        raise ScenarioError("command 'rotate-experiment' needs 'weights'",
                            "weights")
    center = scn.point(spec.get("center"), "experiment.center")
    theta0 = parse_angle(spec.get("theta0", 0.0), "experiment.theta0")
    lengths = spec.get("lengths")
    if not isinstance(lengths, list) or len(lengths) != 3:
        raise ScenarioError("experiment.lengths must be three numbers",
                            "experiment.lengths")
    lengths = [parse_number(x, f"experiment.lengths[{i}]", positive=True)
               for i, x in enumerate(lengths)]
    deltas_raw = spec.get("deltas")
    if not isinstance(deltas_raw, list) or not deltas_raw:
        raise ScenarioError("experiment.deltas must be a nonempty list",
                            "experiment.deltas")
    deltas = [parse_angle(d, f"experiment.deltas[{i}]")
              for i, d in enumerate(deltas_raw)]
    exp = rotate_tree_experiment(scn.surface, center, scn.weights, lengths,
                                 theta0, deltas, scn.connect_opts)
    return {"experiment": {
        "center": _point_dict(exp.center),
        "weights_normalized": list(exp.weights),
        "theta0": exp.theta0,
        "lengths": list(exp.lengths),
        "deltas": list(exp.deltas),
        "weight_spread": exp.weight_spread,
        "clairaut_spread": list(exp.clairaut_spread),
        "steps": [
            {"delta": st.delta,
             "headings": list(st.headings),
             "endpoints": [_point_dict(p) for p in st.endpoints],
             "recovered_weights": list(st.recovered_weights),
             "recovery_error": st.recovery_error,
             "clairaut": list(st.clairaut)}
            for st in exp.steps
        ],
    }}


_HANDLERS = {
    "shoot": _cmd_shoot,
    "connect": _cmd_connect,
    "fermat-solve": _cmd_fermat_solve,
    "fermat-inverse": _cmd_fermat_inverse,
    "clairaut-report": _cmd_clairaut_report,
    "rotate-experiment": _cmd_rotate_experiment,
}
COMMANDS = (*_HANDLERS, "verify")


def _digest(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run(command: str, scenario: Scenario | None, paths_dir=None,
        suites=None):
    """Execute a command; returns (exit_code, report dict)."""
    t0 = time.perf_counter()
    report = {
        "command": command,
        "schema": SCHEMA,
        "version": __version__,
        "conventions": CONVENTIONS,
        "scenario_digest": None if scenario is None else _digest(scenario.raw),
        "warnings": [],
        "results": {},
    }
    exit_code = 0
    try:
        if command == "verify":
            results = run_suites(suites, report=lambda line:
                                 print(line, file=sys.stderr))
            report["results"]["verify"] = [
                {"name": r.name, "criterion": int(r.criterion),
                 "passed": bool(r.passed), "detail": r.detail,
                 "elapsed_s": round(float(r.elapsed_s), 3),
                 # numpy scalars unwrapped to Python bools, ints and floats
                 "stats": {key: val.item() if hasattr(val, "item") else val
                           for key, val in r.stats.items()}}
                for r in results
            ]
            if not all(r.passed for r in results):
                exit_code = 3
        elif command in _HANDLERS:
            if scenario is None:
                raise ScenarioError("this command requires --scenario")
            report["results"] = _HANDLERS[command](scenario, paths_dir,
                                                   report["warnings"])
        else:
            raise ScenarioError(f"unknown command {command!r}")
    except (ValueError, KeyError) as exc:   # ScenarioError among them
        report["error"] = {"kind": type(exc).__name__, "message": str(exc)}
        exit_code = 1
    except (SolveError, ChartExitError, UndefinedRatioError) as exc:
        report["error"] = {"kind": type(exc).__name__, "message": str(exc)}
        exit_code = 2
    report["wall_time_ms"] = round(1000.0 * (time.perf_counter() - t0), 3)
    return exit_code, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="geofermat",
        description="Geodesic trees and Clairaut constants on surfaces "
                    "of revolution")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--scenario", default=None,
                         help="scenario JSON file")
        cmd.add_argument("--out", default=None,
                         help="write the JSON report here instead of stdout")
        cmd.add_argument("--paths", default=None,
                         help="directory for CSV branch polylines")
        if name == "verify":
            cmd.add_argument("--suite", default=None,
                             help="comma-separated suite names (default all)")
    args = parser.parse_args(argv)

    scenario = None
    if args.scenario is not None:
        try:
            scenario = load_scenario(args.scenario)
        except ScenarioError as exc:
            payload = json.dumps({"error": {"kind": "ScenarioError",
                                            "message": str(exc),
                                            "field": exc.field}}, indent=2)
            print(payload, file=sys.stderr)
            if args.out:
                Path(args.out).write_text(payload + "\n", encoding="utf-8")
            return 1

    suites = None
    if args.command == "verify" and args.suite:
        suites = [s.strip() for s in args.suite.split(",") if s.strip()]

    code, report = run(args.command, scenario, paths_dir=args.paths,
                       suites=suites)
    try:
        payload = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        code, report["results"] = 2, {}
        report["error"] = {"kind": "NonFiniteResult",
                           "message": "the results hold NaN or infinity, "
                                      "which strict JSON cannot carry"}
        payload = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    else:
        print(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
