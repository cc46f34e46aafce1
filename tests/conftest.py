import numpy as np
from scipy.optimize import linprog


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


def md_step_sizes(protocol, radius):
    """Mirror descent's step sizes gamma_i = R/(Lhat_i sqrt(i)), rebuilt from
    its protocol by the documented rule; Lhat_i is the running max of the
    field norms, floored at 1e-30 as md_run floors it."""
    norms = np.maximum.accumulate(np.linalg.norm(protocol.field_values, axis=1))
    i = np.arange(1, len(protocol) + 1)
    return radius / (np.maximum(norms, 1e-30) * np.sqrt(i))
