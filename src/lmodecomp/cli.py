"""Command-line front end.

Subcommands: matrix-game, blotto, affine-vi, nash.  Each loads a JSON
problem spec, runs the decomposition pipeline, prints a human-readable
summary and writes a JSON report whose stop_reason names the event that
ended the solver's step loop.  Exit status: 0 when the certified gap
reached the threshold, 2 when the step budget ran out first (stop_reason
max_steps), 3 when the solver stopped earlier without certifying the
threshold (a stationary point, a collapsed ellipsoid, or eps reached
above the gap threshold), 1 on input errors, 4 when an exact gap
exceeded the certified residual that should bound it.  Reports are deterministic
for a fixed spec, at any BLAS thread count, except for the wall_time_s
field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .blotto import blotto_from_json, solve_blotto
from .certificates import CertificateError
from .domains import FiniteAtoms, Simplex
from .oracles import DenseMatrixOracle, KnapsackOracle, knapsack_from_json
from .saddle import BilinearSpSpec, build_master_example1, build_master_example2, solve_sp
from .solvers import SolverConfig
from .vi import AffineViSpec, nash_spec_from_json, nash_to_skew, solve_vi

__all__ = ["main", "run"]


def _sig(x, digits=12):
    """Round to a fixed number of significant digits so that reports are
    byte-stable across platforms."""
    if x is None:
        return None
    x = float(x)
    if x == 0.0 or not np.isfinite(x):
        return x
    return float(f"{x:.{digits}g}")


def _atoms_json(atoms):
    return [{"index": list(map(int, k)) if isinstance(k, tuple) and not isinstance(k[0], tuple)
             else [list(map(int, b)) for b in k],
             "weight": _sig(v)}
            for k, v in sorted(atoms.items())]


def _history_json(rounds):
    return [{"t": int(r["t"]),
             "residual": _sig(r["residual"]),
             "gap": _sig(r["gap"])}
            for r in rounds]


def _config_from_args(args):
    return SolverConfig(eps_target=args.eps, max_steps=args.max_steps,
                        cert_period=args.cert_period, gap_threshold=args.gap_threshold)


def _load_json(path):
    try:
        with open(path) as fp:
            return json.load(fp)
    except OSError as exc:
        raise SystemExit(f"error: cannot read spec {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path}:{exc.lineno}:{exc.colno}: {exc.msg}")


def _matrix_oracle(obj):
    if isinstance(obj, dict) and "budget" in obj:
        return KnapsackOracle(knapsack_from_json(obj))
    return DenseMatrixOracle(np.asarray(obj, dtype=float))


def _run_matrix_game(args, config):
    obj = _load_json(args.spec)
    t0 = time.perf_counter()
    if "S" in obj:
        master = build_master_example1(np.asarray(obj["S"], dtype=float),
                                       p=obj.get("p"), q=obj.get("q"))
        dims = (master.S.shape[0], master.S.shape[1])
    else:
        spec = BilinearSpSpec(A=_matrix_oracle(obj["A"]), D=_matrix_oracle(obj["D"]),
                              p=obj.get("p"), q=obj.get("q"))
        master = build_master_example2(spec)
        dims = (spec.A.count_columns(), spec.D.count_columns())
    sol = solve_sp(master, solver=args.solver, config=config)
    wall = time.perf_counter() - t0
    report = {
        "command": "matrix-game",
        "value": _sig(sol.value_estimate),
        "gap_bound": _sig(sol.gap_bound),
        "gap_exact": _sig(sol.gap_exact),
        "steps": int(sol.steps),
        "stop_reason": sol.stop_reason,
        "wall_time_s": wall,
        "dims": [str(d) for d in dims],
        "atoms": {"w": _atoms_json(sol.w_atoms), "z": _atoms_json(sol.z_atoms)},
        "history": _history_json(sol.rounds),
    }
    return report, min(sol.gap_bound, sol.gap_exact)


def _run_blotto(args, config):
    spec = blotto_from_json(_load_json(args.spec))
    report_obj = solve_blotto(spec, config, solver=args.solver)
    report = {
        "command": "blotto",
        "value": _sig(report_obj.value),
        "gap_bound": _sig(report_obj.gap),
        "gap_exact": _sig(report_obj.gap_exact),
        "steps": int(report_obj.steps),
        "stop_reason": report_obj.stop_reason,
        "wall_time_s": report_obj.wall_time,
        "dims": [str(d) for d in report_obj.dims],
        "primal_dim": report_obj.primal_dim,
        "seed": report_obj.seed,
        "atoms": {"attacker": _atoms_json(report_obj.attacker_atoms),
                  "defender": _atoms_json(report_obj.defender_atoms)},
        "history": _history_json(report_obj.rounds),
    }
    return report, min(report_obj.gap, report_obj.gap_exact)


def _domain_from_json(obj):
    if "simplex" in obj:
        return Simplex(int(obj["simplex"]))
    if "atoms" in obj:
        return FiniteAtoms(np.asarray(obj["atoms"], dtype=float))
    raise SystemExit("error: affine-vi spec needs H as {'simplex': n} or {'atoms': [...]}")


def _run_affine_vi(args, config):
    obj = _load_json(args.spec)
    S = np.atleast_2d(np.asarray(obj["S"], dtype=float))
    s = np.asarray(obj["s"], dtype=float)
    H = _domain_from_json(obj["H"])
    radius = float(obj.get("Xi_radius") or H.enclosing_radius())
    spec = AffineViSpec(apply_S=lambda x: S @ x, apply_St=lambda x: S.T @ x,
                        s=s, H=H, Xi_radius=radius)
    t0 = time.perf_counter()
    sol = solve_vi(spec, solver=args.solver, config=config)
    wall = time.perf_counter() - t0
    report = {
        "command": "affine-vi",
        "value": None,
        "gap_bound": _sig(sol.eps_bound),
        "gap_exact": _sig(sol.eps_exact),
        "steps": int(sol.steps),
        "stop_reason": sol.stop_reason,
        "wall_time_s": wall,
        "dims": [str(H.dim)],
        "atoms": {"eta": [_sig(x) for x in sol.eta_vector]},
        "history": _history_json(sol.rounds),
    }
    gap = sol.eps_bound if sol.eps_exact is None else min(sol.eps_bound, sol.eps_exact)
    return report, gap


def _run_nash(args, config):
    nash = nash_spec_from_json(_load_json(args.spec))
    skew = nash_to_skew(nash)
    t0 = time.perf_counter()
    sol = solve_vi(skew, solver=args.solver, config=config)
    wall = time.perf_counter() - t0
    report = {
        "command": "nash",
        "value": None,
        "gap_bound": _sig(sol.eps_bound),
        "gap_exact": _sig(sol.eps_exact),
        "steps": int(sol.steps),
        "stop_reason": sol.stop_reason,
        "wall_time_s": wall,
        "dims": [str(d.count_columns()) for d in nash.D],
        "atoms": {"eta": _atoms_json(sol.eta_atoms)},
        "history": _history_json(sol.rounds),
    }
    return report, min(sol.eps_bound, sol.eps_exact)


_RUNNERS = {
    "matrix-game": _run_matrix_game,
    "blotto": _run_blotto,
    "affine-vi": _run_affine_vi,
    "nash": _run_nash,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lmodecomp",
        description="Certificate-based decomposition solver for huge matrix "
                    "games and monotone variational inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="path to the JSON problem spec")
        p.add_argument("--solver", choices=["ellipsoid", "md"], default="ellipsoid")
        p.add_argument("--eps", type=float, default=1e-6)
        p.add_argument("--max-steps", type=int, default=20000)
        p.add_argument("--cert-period", type=int, default=None)
        p.add_argument("--gap-threshold", type=float, default=1e-4)
        p.add_argument("--report", default=None, help="path for the JSON report")
    return parser


def run(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"error: invalid option: {exc}", file=sys.stderr)
        return 1
    try:
        report, gap = _RUNNERS[args.command](args, config)
    except SystemExit:
        raise
    except (ValueError, KeyError) as exc:
        print(f"error: invalid spec: {exc}", file=sys.stderr)
        return 1
    except CertificateError as exc:
        print(f"error: certificate check failed: {exc}", file=sys.stderr)
        return 4
    converged = gap <= args.gap_threshold
    report["converged"] = bool(converged)
    if converged:
        status, code = "converged", 0
    elif report["stop_reason"] == "max_steps":
        status, code = "step budget exhausted", 2
    else:
        status, code = f"stopped uncertified: {report['stop_reason']}", 3
    print(f"{args.command}: gap_bound={report['gap_bound']:.6g} "
          f"steps={report['steps']} wall={report['wall_time_s']:.2f}s {status}")
    if report.get("value") is not None:
        print(f"value estimate: {report['value']:.9g}")
    if args.report:
        with open(args.report, "w") as fp:
            json.dump(report, fp, indent=1, sort_keys=True)
            fp.write("\n")
        print(f"report written to {args.report}")
    return code


def main():
    try:
        code = run()
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            code = 1
        else:
            code = exc.code if exc.code is not None else 0
    sys.exit(code)


if __name__ == "__main__":
    main()
