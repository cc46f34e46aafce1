from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from lmodecomp import saddle, vi
from lmodecomp.oracles import KnapsackOracle, KnapsackSpec


def lp_game_value(S):
    """Value of min_w max_z <z, S w> over Delta_M x Delta_N (w indexes
    columns).  Independent reference via linear programming."""
    M, N = S.shape
    c = np.zeros(N + 1)
    c[-1] = 1.0
    A_ub = np.hstack([S, -np.ones((M, 1))])
    A_eq = np.zeros((1, N + 1))
    A_eq[0, :N] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(M), A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0, None)] * N + [(None, None)], method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def eps_sad_enum(S, w, z):
    """Exact saddle-point gap of (w, z) for psi = <z, S w> by enumeration:
    max_z' <z', S w> - min_w' <z, S w'>."""
    return float((S @ w).max() - (S.T @ z).min())


def rebuilt_gap(spec, sol):
    """(gap, rho) of a solution's atoms, their columns rebuilt through the
    oracles (an affine VI's point as it is): rho is the rounding allowance
    of that gap."""
    if isinstance(spec, saddle.MasterProblem):
        w_cols = {k: spec.D.column(k) for k in sol.w_atoms}
        z_cols = {k: spec.A.column(k) for k in sol.z_atoms}
        return saddle.exact_gap(spec, sol), saddle._allowance(spec, sol.w_atoms, sol.z_atoms,
                                                               w_cols, z_cols)
    if isinstance(spec, vi.SkewViSpec):
        return (vi.eps_vi_exact(spec, sol.eta_atoms),
                vi._skew_allowance(spec, vi._oracle_terms(spec, sol.eta_atoms)))
    return vi.eps_vi_exact(spec, sol.eta_vector), vi._affine_allowance(spec, sol.eta_vector)


def round_atoms(atoms):
    """The atoms that a round returned (see solvers._choose_atoms) as the
    solution fields that rebuilt_gap reads."""
    if isinstance(atoms, np.ndarray):  # an affine VI's point
        return SimpleNamespace(eta_vector=atoms)
    if isinstance(atoms, dict):
        return SimpleNamespace(eta_atoms=atoms)
    return SimpleNamespace(w_atoms=atoms[0], z_atoms=atoms[1])


def md_step_sizes(protocol, radius):
    """Mirror descent's step sizes gamma_i = R/(Lhat_i sqrt(i)), rebuilt from
    its protocol by the documented rule; Lhat_i is the running max of the
    field norms, floored at 1e-30 as md_run floors it."""
    norms = np.maximum.accumulate(np.linalg.norm(protocol.field_values, axis=1))
    i = np.arange(1, len(protocol) + 1)
    return radius / (np.maximum(norms, 1e-30) * np.sqrt(i))


def random_knapsack(rng, max_cols=10 ** 4):
    """A random knapsack oracle of 2-4 stages with at most max_cols columns."""
    while True:
        m = int(rng.integers(2, 5))
        bounds = tuple(int(b) for b in rng.integers(1, 5, size=m))
        costs = tuple(int(c) for c in rng.integers(1, 3, size=m))
        budget = int(rng.integers(1, 8))
        dims = tuple(int(d) for d in rng.integers(1, 3, size=m))
        outputs = tuple(rng.normal(size=(bounds[s] + 1, dims[s])) for s in range(m))
        oracle = KnapsackOracle(KnapsackSpec(bounds=bounds, costs=costs, budget=budget,
                                             outputs=outputs))
        if oracle.count_columns() <= max_cols:
            return oracle


@pytest.fixture
def certificate_rounds_only(monkeypatch):
    """Every restricted-master LP rejected, as HiGHS may reject one: each
    round returns its certificate's atoms, so a run goes on until those
    meet a stop rule, and a test sees the rounds of the certificate alone."""
    from lmodecomp import saddle, solvers, vi

    def rejected(*args):
        raise solvers._Rejected("rejected by the test")

    for module in (saddle, vi):
        monkeypatch.setattr(module, "_restricted_lp", rejected)
