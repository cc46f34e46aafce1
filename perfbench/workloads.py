"""Seeded workloads: input generators, solve calls and independent checks.

Each workload builds a pool of distinct pre-built solver inputs from the
seed; the program sees only those inputs.  The pool is larger than the
number of solves that fit in a run, so every timed solve is a different
input and a run's median averages over the inputs' difficulty.  Every
result is checked with explicit comparisons against a scaled tolerance
(never `assert`, which vanishes under -O): a solve fails when it raises,
when it returns uncertified by the CLI's rule (min(gap bound, exact gap)
above the threshold), or when an output check does not hold.
"""

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from lmodecomp import (
    BilinearSpSpec,
    BlottoSpec,
    DenseMatrixOracle,
    KnapsackOracle,
    KnapsackSpec,
    NashSpec,
    SolverConfig,
    build_blotto,
    build_master_example1,
    build_master_example2,
    eps_nash,
    eps_vi_exact,
    nash_to_skew,
    random_rank1_omegas,
    solve_blotto,
    solve_sp,
    solve_vi,
)
from lmodecomp.saddle import exact_gap

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])
WEIGHT_TOL = 1e-9


def pennies_warmup():
    """One matching-pennies solve; pays every lazy import of the solve path."""
    solve_sp(build_master_example1(PENNIES),
             config=SolverConfig(eps_target=1e-7, gap_threshold=1e-7))


def scaled_tol(scale):
    return 1e-9 * max(1.0, abs(scale))


@dataclass
class Outcome:
    """Checked result of one solve."""

    failures: list
    gap_bound: float = math.nan
    protocol_len: int = 0
    support: int = 0
    residuals: list = field(default_factory=list)


def _check_certified(failures, bound, exact, config):
    threshold = max(config.eps_target, config.gap_threshold)
    if not min(bound, exact) <= threshold:
        failures.append(f"uncertified: min(bound {bound:.3e}, exact {exact:.3e}) "
                        f"> threshold {threshold:.1e}")


def _check_recomputed_gap(failures, recomputed, bound, scale):
    if not recomputed <= bound + scaled_tol(scale):
        failures.append(f"recomputed exact gap {recomputed:.6e} exceeds bound {bound:.6e}")


def _check_weights(failures, label, weights):
    w = np.fromiter(weights, dtype=float)
    if w.size == 0 or np.any(w < 0.0) or not abs(w.sum() - 1.0) <= WEIGHT_TOL:
        failures.append(f"{label} weights are not a probability vector")


def _support(weights):
    return int(np.count_nonzero(np.asarray(weights) > 0.0))


class BlottoLarge:
    """Attacker-defender game of criterion 05: m fields, cap = budget,
    rank-1 losses.  Instance 0 of the pool uses the seed itself, so the
    default seed reproduces the criterion-05 game."""

    name = "blotto-large"

    def __init__(self, tiny=False):
        self.m, self.cap = (3, 4) if tiny else (8, 64)
        self.pool_size, self.trace_size = (1, 1) if tiny else (16, 2)
        self.config = SolverConfig(eps_target=1e-4, gap_threshold=1e-12, max_steps=5000)

    def build(self, seed):
        m, cap = self.m, self.cap
        pool = []
        for i in range(self.pool_size):
            inst_seed = seed if i == 0 else [seed, i]
            pool.append(BlottoSpec(
                caps_a=(cap,) * m, caps_d=(cap,) * m, costs_a=(1,) * m, costs_d=(1,) * m,
                budget_a=cap, budget_d=cap,
                omegas=random_rank1_omegas(m, (cap,) * m, (cap,) * m, inst_seed)))
        return pool

    def solve(self, spec):
        return solve_blotto(spec, self.config)

    def check(self, spec, rep):
        failures = []
        game = build_blotto(spec)
        # caps equal the budget: lattice points of {a >= 0, sum a <= cap} in m coordinates
        count = math.comb(self.cap + self.m, self.m)
        if rep.dims != (count, count):
            failures.append(f"column counts {rep.dims} != ({count}, {count})")
        if rep.primal_dim != 2 * self.m:
            failures.append(f"primal dimension {rep.primal_dim} != {2 * self.m}")
        _check_weights(failures, "attacker", rep.attacker_atoms.values())
        _check_weights(failures, "defender", rep.defender_atoms.values())
        sol = SimpleNamespace(
            w_atoms=rep.defender_atoms, z_atoms=rep.attacker_atoms,
            w_atom_columns={k: game.D.column(k) for k in rep.defender_atoms},
            z_atom_columns={k: game.A.column(k) for k in rep.attacker_atoms})
        recomputed = exact_gap(game, sol)
        _check_recomputed_gap(failures, recomputed, rep.gap, rep.value)
        _check_certified(failures, rep.gap, recomputed, self.config)
        last = rep.rounds[-1]
        return Outcome(failures, rep.gap, last["t"], _support(last["weights"]),
                       [r["residual"] for r in rep.rounds])


def lp_game_value(S):
    """Value of min_w max_z <z, S w> over simplices, by the HiGHS LP."""
    from scipy.optimize import linprog

    M, N = S.shape
    c = np.zeros(N + 1)
    c[-1] = 1.0
    A_ub = np.hstack([S, -np.ones((M, 1))])
    A_eq = np.zeros((1, N + 1))
    A_eq[0, :N] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(M), A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0, None)] * N + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


class DenseGames:
    """Factored dense games S = A^T D shaped like criterion 03 with K = 3
    (primal dimension 6); every game has the same K so that the median
    per call is not a mix of two work classes."""

    name = "dense-games"
    value_tol = 1e-6

    def __init__(self, tiny=False):
        self.K, self.lo, self.hi = (2, 3, 9) if tiny else (3, 5, 101)
        self.pool_size, self.trace_size = (1, 1) if tiny else (16, 3)
        self.config = SolverConfig(eps_target=2e-7, gap_threshold=4e-7)

    def build(self, seed):
        rng = np.random.default_rng(seed)
        pool = []
        for _ in range(self.pool_size):
            M = int(rng.integers(self.lo, self.hi))
            N = int(rng.integers(self.lo, self.hi))
            A = rng.normal(size=(self.K, N))   # maximizer columns
            D = rng.normal(size=(self.K, M))   # minimizer columns
            spec = BilinearSpSpec(A=DenseMatrixOracle(A), D=DenseMatrixOracle(D))
            pool.append(build_master_example2(spec))
        return pool

    def solve(self, master):
        return solve_sp(master, config=self.config)

    def check(self, master, sol):
        failures = []
        lp_value = lp_game_value(master.spec.A.matrix.T @ master.spec.D.matrix)
        if not abs(sol.value_estimate - lp_value) <= self.value_tol:
            failures.append(f"value {sol.value_estimate:.9f} differs from LP {lp_value:.9f}")
        _check_weights(failures, "w", sol.w_atoms.values())
        _check_weights(failures, "z", sol.z_atoms.values())
        recomputed = exact_gap(master.spec, sol)
        _check_recomputed_gap(failures, recomputed, sol.gap_bound, lp_value)
        _check_certified(failures, sol.gap_bound, recomputed, self.config)
        return Outcome(failures, sol.gap_bound, len(sol.protocol), _support(sol.cert.weights),
                       [r["residual"] for r in sol.rounds])


class NashKnapsack:
    """Three players with pairwise zero-sum Gaussian couplings; each
    player's pure strategies are the columns of a 2-stage knapsack oracle
    (cap = budget of 12, 14 and 16, 1-dim Gaussian stage outputs), so
    K = 6 and the primal dimension is 12.  Solved as a
    skew VI that stops on its exact dual gap.  The caps are fixed, not
    drawn, so the oracle's work per call does not change with the seed."""

    name = "nash-knapsack"

    def __init__(self, tiny=False):
        self.stages, self.caps = (2, (2, 3, 3)) if tiny else (2, (12, 14, 16))
        self.pool_size, self.trace_size = (1, 1) if tiny else (16, 2)
        target = 1e-3 if tiny else 1e-4
        self.config = SolverConfig(eps_target=target, gap_threshold=target)

    def build(self, seed):
        rng = np.random.default_rng(seed)
        pool = []
        for _ in range(self.pool_size):
            L, m = len(self.caps), self.stages
            D = []
            for cap in self.caps:
                D.append(KnapsackOracle(KnapsackSpec(
                    bounds=(cap,) * m, costs=(1,) * m, budget=cap,
                    outputs=tuple(rng.normal(size=(cap + 1, 1)) for _ in range(m)))))
            M = [[np.zeros((m, m)) for _ in range(L)] for _ in range(L)]
            for l in range(L):
                for lp in range(l + 1, L):
                    C = rng.normal(size=(m, m))
                    M[l][lp], M[lp][l] = C, -C.T
            spec = NashSpec(D=D, M=M)
            pool.append((spec, nash_to_skew(spec)))
        return pool

    def solve(self, inst):
        return solve_vi(inst[1], config=self.config)

    def check(self, inst, sol):
        spec, skew = inst
        failures = []
        _check_weights(failures, "eta", sol.eta_atoms.values())
        recomputed = eps_vi_exact(skew, sol.eta_atoms)
        _check_recomputed_gap(failures, recomputed, sol.eps_bound, 1.0)
        _check_certified(failures, sol.eps_bound, recomputed, self.config)
        blocks = [{} for _ in range(spec.L)]
        for atoms, weight in sol.eta_atoms.items():
            for l, atom in enumerate(atoms):
                blocks[l][atom] = blocks[l].get(atom, 0.0) + weight
        nash = eps_nash(spec, blocks)
        tol = scaled_tol(1.0)
        if not -tol <= nash <= recomputed + tol:
            failures.append(f"eps_nash {nash:.3e} outside [0, eps_vi {recomputed:.3e}]")
        return Outcome(failures, sol.eps_bound, len(sol.protocol), _support(sol.cert.weights),
                       [r["residual"] for r in sol.rounds])


WORKLOADS = {w.name: w for w in (BlottoLarge, DenseGames, NashKnapsack)}
