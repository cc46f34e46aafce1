"""lmodecomp benchmark: certified solves of three workloads.

Run from the root of a checkout:

  python3 perfbench/run.py --workload blotto-large --seed 2024 --seconds 30 --trace 0

With --trace 0 it sets the workload up in fresh interpreters (the median
of several gives setup_s), then times a closed loop of solves in one
more fresh interpreter: one process, BLAS pinned to one thread, each
solve issued after the previous one returned.  Times are rescaled to a
fixed machine speed by a reference loop timed in the same processes.  With --trace 1 it makes
a separate run with spans around every layer and prints the per-layer
metrics instead.  Every output is checked; the last line of standard
output is one JSON object with correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("blotto-large", "dense-games", "nash-knapsack")
DEFAULT_SEEDS = {"blotto-large": 2024, "dense-games": 12, "nash-knapsack": 7}
SETUP_RUNS = 3           # the run process's own set-up plus two set-up-only processes
TIME_LIMIT_S = 170.0     # whole benchmark, so that it ends within 180 s
# Timings are rescaled to a fixed machine speed: seconds x REF_S / (wall
# time of worker.reference_seconds() in the same process).  REF_S is that
# loop's time on the 2-core VM the baseline was measured on.
REF_S = 0.29
HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def git_commit(root):
    """Commit of the checkout read from .git, or None outside a repository."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as fp:
        head = fp.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fp:
            return fp.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fp:
            for line in fp:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def child(mode, args, env, deadline, extra=()):
    """Run worker.py in a fresh interpreter; return its final JSON line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the workload process started")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no result")
    return json.loads(lines[-1])


def tail(samples):
    """(value, percentile) of the highest nearest-rank percentile with at
    least 10 samples beyond it, or None with fewer than 11 samples."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return None
    k = n - 11  # xs[k] has xs[k+1:], ten samples, beyond it
    return xs[k], 100.0 * (k + 1) / n


def end_to_end(run, setups):
    """Gated metrics and the lines that explain them.  `setups` holds
    (set-up seconds, reference seconds) from each set-up process."""
    samples = run["samples"]
    n = len(samples)
    ref = statistics.median(run["ref_samples"])
    setup_scaled = [s * REF_S / r for s, r in setups]
    gaps = [g for g in run["gap_bounds"] if math.isfinite(g)]
    gap = max(gaps) if gaps else math.inf
    metrics = {
        "solve_s": {"value": statistics.median(samples) * REF_S / ref, "unit": "s"},
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "gap_digits": {"value": -math.log10(gap) if 0 < gap < math.inf else 0.0,
                       "unit": "digits"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }
    tail_s = tail(samples)
    lines = [
        f"solve_s is the median of {n} solves times {REF_S} / {ref:.4f}, the reference"
        f" loop's median; wall seconds: " + " ".join(f"{x:.3f}" for x in samples),
        (f"solve_s_tail {tail_s[0]:.6g} s, p{tail_s[1]:.3g} of {n} solves" if tail_s else
         f"solve_s_tail none: {n} solves leave no percentile with 10 beyond it"
         f" (slowest {max(samples):.6g} s)"),
        "setup_s is the median of rescaled " + " ".join(f"{x:.3f}" for x in setup_scaled)
        + "; wall seconds: " + " ".join(f"{s:.3f}" for s, _ in setups),
        f"gap_bound {gap:.6e}, the largest certified gap; gap_digits = -log10(gap_bound)",
    ]
    return metrics, lines


def report(args, metrics, failures, env, lines):
    failed = sum(1 for f in failures if f)
    print(f"env: {json.dumps(dict(env, git_commit=git_commit(os.getcwd())), sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':42s} {failed / len(failures):.6g}  "
          f"({failed} of {len(failures)} solves)")
    for line in lines:
        print(f"  {line}")
    for i, f in enumerate(failures):
        if f:
            print(f"  solve {i} failed: {'; '.join(f)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(failures), "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the seed the tests use)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lmodecomp", "__init__.py")):
        print("error: run from the root of an lmodecomp checkout (src/lmodecomp not found)",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])

    try:
        if args.trace:
            spans_dir = os.path.join(HERE, "out")
            os.makedirs(spans_dir, exist_ok=True)
            spans = os.path.join(spans_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            res = child("trace", args, env, deadline, ["--spans", spans])
            lines = [f"traced solve {i}: " + " ".join(f"{k}={v}" for k, v in c.items())
                     for i, c in enumerate(res["per_solve"])]
            lines.append(f"{res['spans']} spans over one traced pass of {res['pool']} inputs "
                         f"written to {os.path.relpath(spans, root)}")
            report(args, res["per_layer"], res["failures"], res["env"], lines)
        else:
            setups = []
            for _ in range(SETUP_RUNS - 1):
                res = child("setup", args, env, deadline)
                setups.append((res["setup"]["setup_s"], statistics.median(res["ref_samples"])))
            run = child("run", args, env, deadline)
            setups.append((run["setup"]["setup_s"], statistics.median(run["ref_samples"][:3])))
            metrics, lines = end_to_end(run, setups)
            report(args, metrics, run["failures"], run["env"], lines)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
