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
import math
import sys
import time

from .blotto import blotto_from_json, solve_blotto
from .certificates import CertificateError
from .domains import FiniteAtoms, Simplex
from .oracles import _named, matrix_side
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
    if x == 0.0 or not math.isfinite(x):
        return x
    return float(f"{x:.{digits}g}")


def _atoms_json(atoms):
    """Weighted atoms as index/weight records, a dense point as its entries."""
    if not isinstance(atoms, dict):
        return [_sig(x) for x in atoms]
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


def _read_spec(args):
    """The parsed JSON spec, a JSON object, and the clock reading that
    starts wall_time_s."""
    try:
        with open(args.spec) as fp:
            obj = json.load(fp)
    except OSError as exc:
        raise SystemExit(f"error: cannot read spec {args.spec!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {args.spec}:{exc.lineno}:{exc.colno}: {exc.msg}")
    if not isinstance(obj, dict):
        raise ValueError(f"the spec must be a JSON object, not {json.dumps(obj)[:60]}")
    return obj, time.perf_counter()


def _report(command, t0, sol, value, bound, exact, dims, atoms, **extra):
    """(report, gap) for a solved spec.  steps, stop_reason and rounds are read
    off `sol`; `atoms` maps names to weighted atoms or a dense point.  The gap
    that certifies the run is min(bound, exact)."""
    report = {
        "command": command,
        "value": _sig(value),
        "gap_bound": _sig(bound),
        "gap_exact": _sig(exact),
        "steps": int(sol.steps),
        "stop_reason": sol.stop_reason,
        "wall_time_s": time.perf_counter() - t0,
        "dims": [str(d) for d in dims],
        "atoms": {name: _atoms_json(a) for name, a in atoms.items()},
        "history": _history_json(sol.rounds),
        **extra,
    }
    return report, min(bound, exact)


def _run_matrix_game(args, config):
    obj, t0 = _read_spec(args)
    if "S" in obj:
        master = build_master_example1(obj["S"], p=obj.get("p"), q=obj.get("q"))
    else:
        master = build_master_example2(BilinearSpSpec(
            A=matrix_side(obj["A"], "A"), D=matrix_side(obj["D"], "D"), p=obj.get("p"),
            q=obj.get("q")))
    sol = solve_sp(master, solver=args.solver, config=config)
    return _report(args.command, t0, sol, sol.value_estimate, sol.gap_bound, sol.gap_exact,
                   (master.A.count_columns(), master.D.count_columns()),
                   {"w": sol.w_atoms, "z": sol.z_atoms})


def _run_blotto(args, config):
    obj, t0 = _read_spec(args)
    sol = solve_blotto(blotto_from_json(obj), config, solver=args.solver)
    return _report(args.command, t0, sol, sol.value, sol.gap, sol.gap_exact, sol.dims,
                   {"attacker": sol.attacker_atoms, "defender": sol.defender_atoms},
                   primal_dim=sol.primal_dim, seed=sol.seed)


def _domain_from_json(obj):
    if isinstance(obj, dict) and "simplex" in obj:
        return _named("H", Simplex, obj["simplex"])
    if isinstance(obj, dict) and "atoms" in obj:
        return _named("H", FiniteAtoms, obj["atoms"])
    raise ValueError(f"H must be {{'simplex': n}} or {{'atoms': [...]}}, not {obj!r}")


def _run_affine_vi(args, config):
    obj, t0 = _read_spec(args)
    H = _domain_from_json(obj["H"])
    radius = obj.get("Xi_radius")  # only a missing or null radius takes H's
    spec = AffineViSpec(S=obj["S"], s=obj["s"], H=H,
                        Xi_radius=H.enclosing_radius() if radius is None else radius)
    sol = solve_vi(spec, solver=args.solver, config=config)
    return _report(args.command, t0, sol, None, sol.eps_bound, sol.eps_exact, [H.dim],
                   {"eta": sol.eta_vector})


def _run_nash(args, config):
    obj, t0 = _read_spec(args)
    nash = nash_spec_from_json(obj)
    sol = solve_vi(nash_to_skew(nash), solver=args.solver, config=config)
    return _report(args.command, t0, sol, None, sol.eps_bound, sol.eps_exact,
                   [d.count_columns() for d in nash.D], {"eta": sol.eta_atoms})


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
        p.add_argument("--cert-period", type=int, default=None,
                       help="base interval P, in steps, of the certificate-round schedule "
                            "(default 4K^2, K the largest block dimension); see the README")
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
    except (ValueError, KeyError, TypeError) as exc:
        missing = "missing field " if isinstance(exc, KeyError) else ""
        print(f"error: invalid spec: {missing}{exc}", file=sys.stderr)
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
    if report["value"] is not None:
        print(f"value estimate: {report['value']:.9g}")
    if args.report:
        with open(args.report, "w") as fp:
            json.dump(report, fp, indent=1, sort_keys=True)
            fp.write("\n")
        print(f"report written to {args.report}")
    return code


def main():
    # a spec error raised as SystemExit carries its message, which the
    # interpreter prints to stderr before exiting with status 1
    sys.exit(run())


if __name__ == "__main__":
    main()
