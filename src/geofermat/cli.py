"""Command-line interface.

    geofermat <command> --scenario <file> [--out <file>] [--paths <dir>]

Commands: shoot, connect, fermat-solve, fermat-inverse, clairaut-report,
rotate-experiment, verify.  Reports are JSON on stdout (or --out); branch
polylines go to CSV files under --paths.  Exit codes: 0 success, 1
configuration error (also for an --out or --paths that cannot be written,
and for a --suite list naming no suite), 2 numerical failure (also for
results holding NaN or infinity: reports are strict JSON), 3
verification-suite failure.

Each command handler takes (scenario, warnings list) and only computes: it
returns (results, named paths), and ``run`` checks ``weights`` and writes
the CSVs for all.

Reports are deterministic for a given scenario and package version except
for the ``wall_time_ms`` field.
"""

import argparse
import hashlib
import json
import sys
import time
from functools import partial
from pathlib import Path

from . import __version__
from .clairaut import branch_report, rotate_tree_experiment
from .connect import connect_geodesic, connect_geodesics
from .errors import (ChartExitError, DegenerateTreeError, ScenarioError,
                     SolveError, UndefinedRatioError, WeightDomainError)
from .fermat import (measure_sector_angles, solve_fermat,
                     weights_from_sector_angles)
from .geodesics import shoot, write_path_csv
from .scenario import (SCHEMA, Scenario, load_scenario, parse_angle,
                       parse_list, parse_number)
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


_BRANCHES = ("branch_1", "branch_2", "branch_3")


def _cmd_shoot(scn: Scenario, warnings):
    spec = scn.section("shoot")
    p = scn.point(spec.get("from"), "shoot.from")
    theta = parse_angle(spec.get("heading"), "shoot.heading")
    length = parse_number(spec.get("length"), "shoot.length", positive=True)
    path = shoot(scn.surface, p, theta, length, scn.connect_opts.shoot_tol)
    return {"path": _path_dict(path)}, [("shoot", path)]


def _cmd_connect(scn: Scenario, warnings):
    spec = scn.section("connect")
    A = scn.point(spec.get("from"), "connect.from")
    B = scn.point(spec.get("to"), "connect.to")
    path = connect_geodesic(scn.surface, A, B, scn.connect_opts)
    if path.ambiguous:
        warnings.append({"kind": "ambiguous",
                         "message": "two geodesics tie in length within "
                                    "1e-6; cut-locus regime"})
    return {"path": _path_dict(path)}, [("connect", path)]


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


def _cmd_fermat_solve(scn: Scenario, warnings):
    res = solve_fermat(scn.surface, scn.terminals(), scn.weights,
                       scn.fermat_opts)
    if res.mode == "vertex":
        warnings.append({"kind": "vertex-regime",
                         "message": f"minimiser is terminal "
                                    f"{res.vertex_index + 1}; no interior "
                                    "branching point"})
    return {"fermat": _fermat_result_dict(res)}, zip(_BRANCHES, res.branches)


def _center_and_terminals(scn: Scenario, section: str):
    """The center given in ``section`` and the three terminals; points
    given coincident are a configuration error, found before any connect."""
    center = scn.point(scn.section(section)["center"], f"{section}.center")
    terminals = scn.terminals()
    points = [center, *terminals]
    if any(p.coincides(q) for i, p in enumerate(points)
           for q in points[i + 1:]):
        raise DegenerateTreeError(
            f"{section}.center and the terminals must be pairwise distinct")
    return center, terminals


def _cmd_fermat_inverse(scn: Scenario, warnings):
    spec = scn.section("inverse")
    total = parse_number(spec.get("total", 1.0), "inverse.total",
                         positive=True)
    if "angles" in spec:
        angles = tuple(parse_list(spec["angles"], "inverse.angles",
                                  parse_angle, 3))
    elif "center" in spec:
        center, terminals = _center_and_terminals(scn, "inverse")
        try:
            angles = measure_sector_angles(scn.surface, center, terminals,
                                           scn.connect_opts)
        except DegenerateTreeError as exc:
            raise SolveError(f"measured branch headings: {exc}") from exc
    else:
        raise ScenarioError("inverse needs 'angles' or 'center'", "inverse")
    try:
        w = weights_from_sector_angles(angles, total)
    except WeightDomainError as exc:
        if "angles" in spec:
            raise ScenarioError(str(exc), "inverse.angles") from exc
        raise SolveError(f"measured sector angles {list(angles)}: {exc}") from exc
    return {"inverse": {"angles": list(angles), "total": total,
                        "weights": list(w.astuple()),
                        "normalized": list(w.normalized())}}, []


def _report_dict(rep):
    # the keys of "branches" and "sphere_probe" are the fields of
    # BranchConstants and SineRatioProbe; renaming one changes the report
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
        "branches": [dict(vars(br)) for br in rep.branches],
        "prediction": predicted,
        "prediction_note": rep.predicted_note,
        "sphere_probe": (None if rep.sphere_probe is None
                         else dict(vars(rep.sphere_probe))),
        "sphere_note": rep.sphere_note,
    }


def _cmd_clairaut_report(scn: Scenario, warnings):
    raw = scn.section("clairaut", optional=True)
    if "center" in raw:
        center, terminals = _center_and_terminals(scn, "clairaut")
        branches = tuple(connect_geodesics(
            scn.surface, [(center, t) for t in terminals], scn.connect_opts))
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
    out = {"clairaut": _report_dict(rep), "center": _point_dict(center)}
    if solve is not None:
        out["fermat"] = _fermat_result_dict(solve)
    return out, zip(_BRANCHES, branches)


def _cmd_rotate_experiment(scn: Scenario, warnings):
    spec = scn.section("experiment")
    center = scn.point(spec.get("center"), "experiment.center")
    theta0 = parse_angle(spec.get("theta0", 0.0), "experiment.theta0")
    lengths = parse_list(spec.get("lengths"), "experiment.lengths",
                         partial(parse_number, positive=True), 3)
    deltas = parse_list(spec.get("deltas"), "experiment.deltas", parse_angle)
    if not deltas:
        raise ScenarioError("expected a nonempty list", "experiment.deltas")
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
        "steps": [dict(vars(st), endpoints=[_point_dict(p)
                                            for p in st.endpoints])
                  for st in exp.steps],
    }}, []


_HANDLERS = {
    "shoot": _cmd_shoot,
    "connect": _cmd_connect,
    "fermat-solve": _cmd_fermat_solve,
    "fermat-inverse": _cmd_fermat_inverse,
    "clairaut-report": _cmd_clairaut_report,
    "rotate-experiment": _cmd_rotate_experiment,
}
COMMANDS = (*_HANDLERS, "verify")
_NEEDS_WEIGHTS = {"fermat-solve", "clairaut-report", "rotate-experiment"}


def _error(exc) -> dict:
    """A report's ``error``: the exception's kind and message, and the
    field a ScenarioError names ("" for none)."""
    error = {"kind": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ScenarioError):
        error["field"] = exc.field
    return error


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
                {"name": r.name, "criterion": r.criterion,
                 "passed": r.passed, "detail": r.detail,
                 "elapsed_s": round(r.elapsed_s, 3),
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
            if command in _NEEDS_WEIGHTS and scenario.weights is None:
                raise ScenarioError(f"command {command!r} needs 'weights'",
                                    "weights")
            results, named_paths = _HANDLERS[command](scenario,
                                                      report["warnings"])
            if paths_dir and named_paths:
                _write_paths(paths_dir, named_paths)
            report["results"] = results
        else:
            raise ScenarioError(f"unknown command {command!r}")
    except (ValueError, KeyError, OSError) as exc:  # ScenarioError, --paths
        report["error"], exit_code = _error(exc), 1
    except (SolveError, ChartExitError, UndefinedRatioError) as exc:
        report["error"], exit_code = _error(exc), 2
    report["wall_time_ms"] = round(1000.0 * (time.perf_counter() - t0), 3)
    return exit_code, report


def _save(payload: str, out) -> bool:
    """Write the report to ``out``; a file that cannot be written leaves an
    error report on stderr instead, and returns False."""
    try:
        Path(out).write_text(payload + "\n", encoding="utf-8")
        return True
    except OSError as exc:
        print(json.dumps({"error": {"kind": type(exc).__name__,
                                    "message": f"cannot write --out: {exc}"}},
                         indent=2), file=sys.stderr)
        return False


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
            payload = json.dumps({"error": _error(exc)}, indent=2)
            print(payload, file=sys.stderr)
            if args.out:
                _save(payload, args.out)
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
    if not args.out:
        print(payload)
    elif not _save(payload, args.out):
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
