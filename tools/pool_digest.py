"""Digest every solve of the benchmark's input pools, to check that a change
leaves the results bit-identical.

Run from the root of a checkout:

  python3 tools/pool_digest.py                  # 3 workloads x 4 seeds x 16 inputs
  python3 tools/pool_digest.py --tiny           # one tiny input per pool
  python3 tools/pool_digest.py --seeds 555      # other seeds

It builds each workload's pool through perfbench/workloads.py, solves
every input as the benchmark does, and prints one line per (workload,
seed): the inputs solved, a SHA-256 over their results, how many inputs
stopped at each step count and for each stop reason, and the largest
bound.  Every pool input stops at its first round, so it then prints one
line per family of FAMILIES, fixed desk runs at seeds 0-2 with
gap_threshold 0 that go on for several rounds: restricted masters
re-solved within and across rounds, certificate LPs and paced rounds.
A family's line holds its digest and each seed's stop reason and bound.
Where two checkouts differ in a digest, these show what moved.  A result
enters by its dataclass fields other than the payloads: steps, stop
reason, the protocol's arrays, the certificate's weight bytes, lower
bound and residual, every round record, the atoms, the bounds and, for a
Blotto game, `dims`.  Floats enter as float.hex, arrays as their dtype,
shape and bytes, and dicts in the order of their keys' repr, so equal
digests mean equal bits.  Run it on two checkouts and compare the lines.
"""

import argparse
import dataclasses
import hashlib
import os
import sys
from collections import Counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from run import DEFAULT_SEEDS  # noqa: E402

from lmodecomp import (  # noqa: E402
    AffineViSpec,
    BilinearSpSpec,
    BlottoSpec,
    DenseMatrixOracle,
    FiniteAtoms,
    KnapsackOracle,
    KnapsackSpec,
    NashSpec,
    Simplex,
    SolverConfig,
    build_master_example1,
    build_master_example2,
    nash_to_skew,
    solve_blotto,
    solve_sp,
    solve_vi,
)

SEEDS = "default,99,31337,4242"


def config(max_steps):
    return SolverConfig(eps_target=1e-9, gap_threshold=0.0, max_steps=max_steps)


def dense_factored(k, rng):
    return solve_sp(build_master_example2(BilinearSpSpec(
        A=DenseMatrixOracle(rng.normal(size=(k, 40))),
        D=DenseMatrixOracle(rng.normal(size=(k, 30))))), config=config(300 * k))


def square(solver, rng):
    """Offsets of a tenth of S's scale: at S's own scale they often make a
    pure saddle point, which the first round closes."""
    master = build_master_example1(rng.normal(size=(12, 9)), p=0.1 * rng.normal(size=9),
                                   q=0.1 * rng.normal(size=12))
    return solve_sp(master, solver, config(1000))


def win_lose_blotto(m, rng):
    """Loss w_s on battlefield s where the attacker puts more units than
    the defender, w_s drawn from [0.5, 1.5]; caps and budgets 2m."""
    units = np.arange(2 * m + 1)
    omegas = [w * np.greater.outer(units, units) for w in rng.uniform(0.5, 1.5, size=m)]
    caps, costs = (2 * m,) * m, (1,) * m
    return solve_blotto(BlottoSpec(caps, caps, costs, costs, 2 * m, 2 * m, omegas),
                        config(400 * m))


def knapsack_nash(solver, rng):
    """Three players, each a two-stage knapsack with caps 3, 4 and 5."""
    D = [KnapsackOracle(KnapsackSpec(bounds=(cap, cap), costs=(1, 1), budget=cap,
                                     outputs=tuple(rng.normal(size=(cap + 1, 1))
                                                   for _ in range(2))))
         for cap in (3, 4, 5)]
    M = [[np.zeros((2, 2)) for _ in range(3)] for _ in range(3)]
    for l, k in ((0, 1), (0, 2), (1, 2)):
        C = rng.normal(size=(2, 2))
        M[l][k], M[k][l] = C, -C.T
    return solve_vi(nash_to_skew(NashSpec(D=D, M=M)), solver, config(1500))


def affine(H, rng):
    """S = (G - G^T) + B B^T / 2, monotone and not skew."""
    G, B = rng.normal(size=(2, H.dim, H.dim))
    return solve_vi(AffineViSpec(S=G - G.T + B @ B.T / 2, s=rng.normal(size=H.dim), H=H,
                                 Xi_radius=H.enclosing_radius()), config=config(3000))


# (name, run(rng)): each family runs at seeds 0, 1 and 2
FAMILIES = [
    ("dense-factored-K3", lambda rng: dense_factored(3, rng)),
    ("dense-factored-K5", lambda rng: dense_factored(5, rng)),
    ("square-12x9-ellipsoid", lambda rng: square("ellipsoid", rng)),
    ("square-12x9-md", lambda rng: square("md", rng)),
    ("win-lose-blotto-m3", lambda rng: win_lose_blotto(3, rng)),
    ("win-lose-blotto-m4", lambda rng: win_lose_blotto(4, rng)),
    ("knapsack-nash-3-ellipsoid", lambda rng: knapsack_nash("ellipsoid", rng)),
    ("knapsack-nash-3-md", lambda rng: knapsack_nash("md", rng)),
    ("affine-simplex-6", lambda rng: affine(Simplex(6), rng)),
    ("affine-finite-atoms-200x8", lambda rng: affine(FiniteAtoms(rng.normal(size=(200, 8))), rng)),
]


def feed(h, value):
    """Add `value` to the hash `h`, each kind under its own tag."""
    if dataclasses.is_dataclass(value):
        h.update(b"D" + type(value).__name__.encode())
        for f in dataclasses.fields(value):
            if f.name != "payloads":
                h.update(f.name.encode())
                feed(h, getattr(value, f.name))
    elif isinstance(value, np.ndarray):
        h.update(b"A" + value.dtype.str.encode() + repr(value.shape).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        h.update(b"M%d" % len(value))
        for key in sorted(value, key=repr):
            feed(h, key)
            feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(b"L%d" % len(value))
        for item in value:
            feed(h, item)
    elif isinstance(value, (float, np.floating)):
        h.update(b"F" + float(value).hex().encode())
    elif value is None or isinstance(value, str):
        h.update(b"S" + repr(value).encode())
    elif isinstance(value, (bool, np.bool_)):  # before int, which bool subclasses
        h.update(b"B%d" % bool(value))
    elif isinstance(value, (int, np.integer)):
        h.update(b"I" + str(int(value)).encode())
    else:
        raise TypeError(f"no digest for a {type(value).__name__}")


def tally(values):
    """'value:count' of each distinct value, in increasing order."""
    return ",".join(f"{value}:{count}" for value, count in sorted(Counter(values).items()))


def digest(name, seed, tiny):
    """(inputs, hex digest, summary) of one workload's pool at `seed`: the
    summary tallies the steps and stop reasons and gives the largest bound."""
    wl = workloads.WORKLOADS[name](tiny=tiny)
    pool = wl.build(seed)
    h = hashlib.sha256()
    results = []
    for inst in pool:
        results.append(wl.solve(inst))
        feed(h, results[-1])
    bound = max(result.rounds[-1]["bound"] for result in results)
    return len(pool), h.hexdigest(), (f"steps={tally(r.steps for r in results)} "
                                      f"stops={tally(r.stop_reason for r in results)} "
                                      f"max_bound={bound:.4e}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default=SEEDS,
                   help=f"comma-separated seeds, 'default' for the benchmark's (default {SEEDS})")
    p.add_argument("--tiny", action="store_true", help="the one-input tiny pools of the tests")
    args = p.parse_args(argv)
    for name in sorted(workloads.WORKLOADS):
        for seed in args.seeds.split(","):
            seed = DEFAULT_SEEDS[name] if seed == "default" else int(seed)
            count, hexdigest, summary = digest(name, seed, args.tiny)
            print(f"{name} seed={seed} inputs={count} sha256={hexdigest} {summary}", flush=True)
    for name, run in FAMILIES:
        h = hashlib.sha256()
        results = [run(np.random.default_rng(seed)) for seed in range(3)]
        for result in results:
            feed(h, result)
        print(f"{name} seeds=0-2 sha256={h.hexdigest()} "
              f"stops={','.join(r.stop_reason for r in results)} "
              f"bounds={','.join(format(r.rounds[-1]['bound'], '.4e') for r in results)}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
