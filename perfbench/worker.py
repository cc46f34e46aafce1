"""One workload process: set up, then time or trace the workload's solves.

Started by run.py in a fresh interpreter with BLAS pinned to one thread
and `src` on PYTHONPATH.  Modes:

  setup  time the set-up only (import, inputs, pennies warm-up)
  run    set up, then a closed loop of solves over the input pool for
         --seconds; each solve starts after the previous one returned
  trace  set up, one untraced and one traced pass over the first
         inputs of the pool

The last line of standard output is one JSON object for run.py.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from collections import Counter


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def reference_seconds(steps=10000):
    """Wall time of a fixed loop that uses no lmodecomp code: central cuts
    of a 16-dimensional ellipsoid, Python overhead plus tiny BLAS calls
    like the solvers.  It measures how fast the shared machine runs right
    now, which drifts by up to a factor of two within minutes."""
    import numpy as np

    n = 16
    shape, center, g = np.eye(n), np.zeros(n), np.ones(n)
    beta = n / np.sqrt(n * n - 1.0)
    gamma = 1.0 - np.sqrt((n - 1.0) / (n + 1.0))
    t = time.perf_counter()
    for k in range(steps):
        g[k % n] = -g[k % n]
        bg = shape.T @ g
        p = bg / float(np.linalg.norm(bg))
        bp = shape @ p
        center = center - bp / (n + 1.0)
        shape = beta * (shape - gamma * np.outer(bp, p))
        shape /= float(np.abs(shape).max())
    return time.perf_counter() - t


def set_up(workload, seed):
    """Import lmodecomp, build the input pool and run the pennies warm-up,
    timing each part from a fresh interpreter."""
    t0 = time.perf_counter()
    import lmodecomp  # noqa: F401  (the timed import)
    t_import = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload]()
    pool = wl.build(seed)
    t_build = time.perf_counter()
    workloads.pennies_warmup()
    t_warm = time.perf_counter()
    times = {"setup_s": t_warm - t0, "import_s": t_import - t0,
             "build_s": t_build - t_import, "warmup_s": t_warm - t_build}
    return wl, pool, times


def checked(wl, inst, result):
    try:
        return wl.check(inst, result)
    except Exception as exc:  # a check that cannot run counts the solve as failed
        traceback.print_exc()
        return _failed_outcome(f"check raised {exc!r}")


def _failed_outcome(reason):
    import workloads

    return workloads.Outcome([reason])


def closed_loop(wl, pool, seconds):
    """Solve the pool in order until `seconds` have passed (at least one
    solve; the pool wraps around if it runs out).  Only the solve call is
    timed; its result is checked after the clock stops.  The reference
    loop runs before every solve.  Returns (solve seconds, outcomes,
    reference seconds)."""
    samples, outcomes, refs = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        k = i % len(pool)
        refs.append(reference_seconds())
        t = time.perf_counter()
        try:
            result = wl.solve(pool[k])
        except Exception as exc:  # a raising solve is a failed solve
            samples.append(time.perf_counter() - t)
            traceback.print_exc()
            outcomes.append(_failed_outcome(f"solve raised {exc!r}"))
        else:
            samples.append(time.perf_counter() - t)
            outcomes.append(checked(wl, pool[k], result))
        i += 1
    return samples, outcomes, refs


def run_mode(args):
    wl, pool, setup = set_up(args.workload, args.seed)
    samples, outcomes, refs = closed_loop(wl, pool, args.seconds)
    return {
        "setup": setup,
        "env": environment(),
        "samples": samples,
        "ref_samples": refs,
        "failures": [o.failures for o in outcomes],
        "gap_bounds": [o.gap_bound for o in outcomes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(summary, tracer, outcomes, setup, pennies_again_s, traced_s, untraced_s):
    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    calls = get("oracles.col_extreme", "calls")
    busy = get("oracles.col_extreme", "busy_s")
    rounds = get("solvers.optimize_certificate", "calls")
    steps = get("solvers.ellipsoid_cut", "calls")
    protocol_len = sum(o.protocol_len for o in outcomes)
    all_rounds = improving = 0
    for o in outcomes:
        best = float("inf")
        for res in o.residuals:
            all_rounds += 1
            if res < best:
                improving += 1
                best = res
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    values = {
        "oracles.col_extreme.calls": (calls, "count"),
        "oracles.col_extreme.busy_s": (busy, "s"),
        "oracles.col_extreme.us_per_call": (ratio(busy, calls) * 1e6, "us"),
        "oracles.distinct_hit_ratio": (ratio(len(tracer.distinct_hits), calls), "ratio"),
        "oracles.count_columns.busy_s": (get("oracles.count_columns", "busy_s"), "s"),
        "blotto.build_blotto.busy_s": (get("blotto.build_blotto", "busy_s"), "s"),
        "solvers.cert_rounds": (rounds, "count"),
        "solvers.optimize_certificate.busy_s": (
            get("solvers.optimize_certificate", "busy_s"), "s"),
        "solvers.optimize_certificate.s_per_round": (
            ratio(get("solvers.optimize_certificate", "busy_s"), rounds), "s"),
        "solvers.improving_round_ratio": (ratio(improving, all_rounds), "ratio"),
        "solvers.steps": (steps, "count"),
        "solvers.productive_ratio": (ratio(protocol_len, steps), "ratio"),
        "solvers.ellipsoid_cut.busy_s": (get("solvers.ellipsoid_cut", "busy_s"), "s"),
        "solvers.ellipsoid_run.self_s": (get("solvers.ellipsoid_run", "self_s"), "s"),
        "certificates.protocol_len": (protocol_len, "count"),
        "certificates.support": (sum(o.support for o in outcomes), "count"),
        "certificates.from_lists.busy_s": (get("certificates.from_lists", "busy_s"), "s"),
        "saddle.primal_value_grad.self_s": (get("saddle.primal_value_grad", "self_s"), "s"),
        "vi.eta_argmin.self_s": (get("vi.eta_argmin", "self_s"), "s"),
        "lmodecomp.import_s": (setup["import_s"], "s"),
        "lmodecomp.lazy_import_s": (setup["warmup_s"] - pennies_again_s, "s"),
        "trace.overhead_ratio": (ratio(traced_s, untraced_s), "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def trace_mode(args):
    wl, pool, setup = set_up(args.workload, args.seed)
    import workloads
    from tracing import Tracer

    t = time.perf_counter()
    workloads.pennies_warmup()
    pennies_again_s = time.perf_counter() - t
    pool = pool[:wl.trace_size]

    t = time.perf_counter()
    untraced = [wl.solve(inst) for inst in pool]
    untraced_s = time.perf_counter() - t

    tracer = Tracer()
    tracer.install_layers()
    try:
        t = time.perf_counter()
        traced = [tracer.solve(i, wl.solve, inst) for i, inst in enumerate(pool)]
        traced_s = time.perf_counter() - t
    finally:
        tracer.uninstall()

    outcomes = [checked(wl, inst, res) for inst, res in zip(pool, untraced)]
    traced_outcomes = [checked(wl, inst, res) for inst, res in zip(pool, traced)]
    if args.spans:
        tracer.dump(args.spans)
    metrics = per_layer(tracer.summary(), tracer, traced_outcomes, setup,
                        pennies_again_s, traced_s, untraced_s)
    counts = Counter((solve_id, name) for name, _, _, _, solve_id in tracer.spans)
    per_solve = [{"steps": counts.get((i, "solvers.ellipsoid_cut"), 0),
                  "productive": o.protocol_len,
                  "col_extreme": counts.get((i, "oracles.col_extreme"), 0),
                  "rounds": counts.get((i, "solvers.optimize_certificate"), 0)}
                 for i, o in enumerate(traced_outcomes)]
    return {
        "setup": setup,
        "env": environment(),
        "pool": len(pool),
        "failures": [o.failures for o in outcomes + traced_outcomes],
        "per_layer": metrics,
        "per_solve": per_solve,
        "spans": len(tracer.spans),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "run", "trace"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--spans", help="file for the traced spans (trace mode)")
    args = p.parse_args(argv)
    if args.mode == "setup":
        setup = set_up(args.workload, args.seed)[2]
        out = {"setup": setup, "ref_samples": [reference_seconds() for _ in range(3)]}
    elif args.mode == "run":
        out = run_mode(args)
    else:
        out = trace_mode(args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
