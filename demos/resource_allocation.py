"""An attacker-defender allocation game with ~10^10 pure strategies.

Both sides split 64 units across 8 battlefields (per-field cap 64), and
the defender's loss is a sum of per-field loss tables.  Each table is
rank-factorized, which makes the payoff matrix a product of two
knapsack-generated matrices; column searches run by dynamic programming
and the game is solved in a primal space of dimension 16.

Run:  python3 demos/resource_allocation.py            (desk instance)
      python3 demos/resource_allocation.py --large    (the 10^10 one, 0.01 s solve)
"""

import sys
import time

import numpy as np

from lmodecomp import BlottoSpec, SolverConfig, random_rank1_omegas, solve_blotto


def desk():
    # small enough to verify against a brute-force LP (6 strategies per side)
    spec = BlottoSpec(caps_a=(2, 2), caps_d=(2, 2), costs_a=(1, 1), costs_d=(1, 1),
                      budget_a=2, budget_d=2,
                      omegas=random_rank1_omegas(2, (2, 2), (2, 2), seed=7), seed=7)
    report = solve_blotto(spec, SolverConfig(eps_target=2e-7, gap_threshold=4e-7))
    print("desk instance: 2 fields, 2 units, 6 pure strategies per side")
    print(f"  value          {report.value:.6f}")
    print(f"  certified gap  {report.gap:.2e}   exact gap {report.gap_exact:.2e}")
    print(f"  attacker mix   {_fmt(report.attacker_atoms)}")
    print(f"  defender mix   {_fmt(report.defender_atoms)}")


def large():
    m, cap, seed = 8, 64, 2024
    spec = BlottoSpec(caps_a=(cap,) * m, caps_d=(cap,) * m,
                      costs_a=(1,) * m, costs_d=(1,) * m,
                      budget_a=cap, budget_d=cap,
                      omegas=random_rank1_omegas(m, (cap,) * m, (cap,) * m, seed),
                      seed=seed)
    t0 = time.perf_counter()
    report = solve_blotto(spec, SolverConfig(eps_target=1e-4, gap_threshold=1e-12,
                                             max_steps=5000))
    wall = time.perf_counter() - t0
    print(f"large instance: {m} fields, {cap} units, seed {seed}")
    print(f"  pure strategies per side  {report.dims[0]:,}")
    print(f"  primal dimension          {report.primal_dim}")
    print(f"  value                     {report.value:.6f}")
    print(f"  certified gap             {report.gap:.2e} "
          f"after {report.steps} steps, {wall:.3f}s")
    print(f"  attacker support size     {len(report.attacker_atoms)}")
    print("  heaviest attacker allocations (units per field -> weight):")
    top = sorted(report.attacker_atoms.items(), key=lambda kv: -kv[1])[:5]
    for alloc, w in top:
        print(f"    {list(alloc)}  {w:.3f}")


def _fmt(atoms):
    return {tuple(k): round(float(v), 3) for k, v in sorted(atoms.items()) if v > 1e-6}


if __name__ == "__main__":
    np.set_printoptions(precision=4)
    if "--large" in sys.argv:
        large()
    else:
        desk()
