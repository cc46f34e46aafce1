"""Attacker-vs-Defender resource-allocation games.

The two sides split integer units across m battlefields subject to
per-field caps and a budget; the defender's total loss is the sum of
per-field losses Omega^s indexed by the two allocations.  Each Omega^s
is rank-factorized, which turns the payoff matrix into A^T D with
knapsack-generated A (attacker) and D (defender), and the game is solved
through the saddle-point decomposition at a primal dimension of
K = sum_s rank(Omega^s) regardless of how many pure strategies exist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracles import (KnapsackOracle, KnapsackSpec, _norm_bound, entries, integer, integers,
                      reals)
from .saddle import BilinearSpSpec, SparseAtomSolution, build_master_example2, solve_sp

__all__ = [
    "BlottoSpec",
    "BlottoReport",
    "rank_factor",
    "build_blotto",
    "solve_blotto",
    "blotto_from_json",
    "random_rank1_omegas",
]


@dataclass
class BlottoSpec:
    """Game data: per-field caps and unit costs for both sides, budgets,
    and (caps_a[s]+1) x (caps_d[s]+1) loss matrices (rows: attacker).  The
    counts go through `integers` and `integer`, each loss matrix through
    `reals`, so the spec owns read-only copies of its matrices."""

    caps_a: tuple
    caps_d: tuple
    costs_a: tuple
    costs_d: tuple
    budget_a: int
    budget_d: int
    omegas: tuple
    seed: int | None = None  # recorded when the omegas were generated

    def __post_init__(self):
        self.omegas = tuple(reals(o, f"omegas[{s}]", 2)
                            for s, o in enumerate(entries(self.omegas, "omegas")))
        for name in ("caps_a", "caps_d", "costs_a", "costs_d"):
            setattr(self, name, _counts(getattr(self, name), name, self.m))
        self.budget_a = integer(self.budget_a, "budget_a")
        self.budget_d = integer(self.budget_d, "budget_d")
        if any(c <= 0 for c in self.costs_a + self.costs_d):
            raise ValueError("unit costs must be positive integers")
        if self.budget_a < 0 or self.budget_d < 0:
            raise ValueError("budgets must be nonnegative")
        for s, o in enumerate(self.omegas):
            if o.shape != (self.caps_a[s] + 1, self.caps_d[s] + 1):
                raise ValueError(
                    f"loss matrix {s} has shape {o.shape}, expected "
                    f"{(self.caps_a[s] + 1, self.caps_d[s] + 1)}"
                )

    @property
    def m(self):
        return len(self.omegas)


@dataclass
class BlottoReport(SparseAtomSolution):
    """The solved game: the attacker is the maximizer z, the defender the
    minimizer w, and their atoms are pure strategies (m-vectors)."""

    dims: tuple                # (attacker count, defender count), exact big ints
    primal_dim: int
    seed: int | None           # the spec's

    @property
    def attacker_atoms(self):
        return self.z_atoms

    @property
    def defender_atoms(self):
        return self.w_atoms

    @property
    def value(self):
        return self.value_estimate

    @property
    def gap(self):
        """Bound on the saddle-point gap of the returned atoms, `gap_bound`."""
        return self.gap_bound


def _counts(values, name, m):
    """One nonnegative integer per battlefield, as a tuple of ints."""
    counts = tuple(integers(values, name).tolist())
    if len(counts) != m or min(counts, default=0) < 0:
        raise ValueError(f"{name} must have m = {m} entries, each nonnegative, not {counts}")
    return counts


def rank_factor(omega):
    """Factor omega = F @ G.T with rank(omega) terms, by Gaussian
    elimination with complete pivoting; stops when the largest remaining
    |entry| is at most 1e-9 max(1, max|omega|)."""
    omega = np.atleast_2d(np.asarray(omega, dtype=float))
    cols = omega.shape[1]
    # omega is only read: each step writes a new residual, and |omega| gives
    # both the scale and the first pivot
    resid, size = omega, np.abs(omega)
    fs, gs = [], []
    for step in range(min(omega.shape)):
        i, j = divmod(int(size.argmax()), cols)  # the first largest |entry|, in C order
        pivot = resid[i, j]
        if step == 0:
            scale = max(1.0, abs(pivot))
        if abs(pivot) <= 1e-9 * scale:
            break
        f, g = resid[:, j], resid[i] / pivot
        fs.append(f)
        gs.append(g)
        outer = np.multiply.outer(f, g)
        resid = np.subtract(resid, outer, out=outer)
        np.abs(resid, out=size)
    if not fs:
        # zero matrix: keep one zero term so the stage still contributes a row
        fs.append(np.zeros(omega.shape[0]))
        gs.append(np.zeros(omega.shape[1]))
    # C-ordered (rows, terms) tables, as np.stack(fs, axis=1) makes them, each
    # written once: the transpose of a (terms, rows) F-ordered stack
    return np.array(fs, order="F").T, np.array(gs, order="F").T


def build_blotto(spec):
    """Knapsack-generated matrices A (attacker) and D (defender) with
    A^T D reproducing the total-loss matrix; where both sides share caps,
    costs and budget, their oracles share the tables and the column count
    that depend on these (see _KnapsackShape)."""
    f_tables, g_tables = [], []
    for omega in spec.omegas:
        F, G = rank_factor(omega)
        f_tables.append(F)        # (caps_a+1, r_s): row a -> attacker output
        g_tables.append(G)        # (caps_d+1, r_s)
    return BilinearSpSpec(
        A=KnapsackOracle(KnapsackSpec(bounds=spec.caps_a, costs=spec.costs_a,
                                      budget=spec.budget_a, outputs=tuple(f_tables))),
        D=KnapsackOracle(KnapsackSpec(bounds=spec.caps_d, costs=spec.costs_d,
                                      budget=spec.budget_d, outputs=tuple(g_tables))))


def solve_blotto(spec, config=None, solver="ellipsoid"):
    """End-to-end run: factor, build the master, solve with `solver`
    ("ellipsoid" or "md", as in solve_sp); the atoms are pure strategies.
    Sides that share caps, costs and budget share one column count (see
    build_blotto)."""
    game = build_blotto(spec)
    try:
        master = build_master_example2(game, shared_radius=True)
    except ValueError as exc:
        # a side's bound sums a term per battlefield s, from omega[s]'s rank
        # factors: name the first whose own term overflows
        for s, pair in enumerate(zip(game.A.spec.outputs, game.D.spec.outputs)):
            _norm_bound(lambda: max(np.square(o).sum(axis=1).max() for o in pair), f"omega[{s}]")
        raise ValueError(f"omega: {exc}") from None
    sol = solve_sp(master, solver, config)
    return BlottoReport(**vars(sol), dims=(game.A.count_columns(), game.D.count_columns()),
                        primal_dim=2 * game.K, seed=spec.seed)


def random_rank1_omegas(m, caps_a, caps_d, seed=0):
    """Seeded rank-1 loss matrices with entries in [0, 1]: outer products
    of uniform factors, normalized to unit maximum per field."""
    rng = np.random.default_rng(seed)
    omegas = []
    for s in range(m):
        f = rng.uniform(0.0, 1.0, caps_a[s] + 1)
        g = rng.uniform(0.0, 1.0, caps_d[s] + 1)
        o = np.outer(f, g)
        omegas.append(o / o.max())
    return omegas


def blotto_from_json(obj):
    """BlottoSpec from a parsed JSON object {"m", "caps_a", "caps_d",
    "costs_a", "costs_d", "budget_a", "budget_d", "omega": [m matrices] |
    {"rank1_seed": int}}; the spec converts and checks the fields."""
    m, omega, seed = integer(obj["m"], "m"), obj["omega"], None
    if isinstance(omega, dict) and "rank1_seed" in omega:
        seed = integer(omega["rank1_seed"], "rank1_seed")
        if seed < 0:
            raise ValueError(f"rank1_seed must be nonnegative, not {seed}")
        # the caps size the drawn matrices, so they are checked before the draw
        omega = random_rank1_omegas(m, *(_counts(obj[name], name, m)
                                         for name in ("caps_a", "caps_d")), seed)
    elif not isinstance(omega, (list, tuple)):
        raise ValueError(f"omega must be a list of m loss matrices or {{'rank1_seed': n}}, "
                         f"not {omega!r}")
    elif len(omega) != m:
        raise ValueError(f"omega must list m = {m} loss matrices, not {len(omega)}")
    else:  # converted here, so that an error names the JSON key
        omega = [reals(o, f"omega[{s}]", 2) for s, o in enumerate(omega)]
    return BlottoSpec(
        caps_a=obj["caps_a"],
        caps_d=obj["caps_d"],
        costs_a=obj["costs_a"],
        costs_d=obj["costs_d"],
        budget_a=obj["budget_a"],
        budget_d=obj["budget_d"],
        omegas=omega,
        seed=seed,
    )
