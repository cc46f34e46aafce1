"""Bilinear saddle-point decomposition.

Reduces the (possibly huge) matrix game  min_w max_z <z, S w>  over
simplices to a small primal saddle-point problem over a product of two
balls, solves the primal with a certificate-producing method, and
transfers the certificate back into a provably accurate sparse mixed
strategy pair.  Two master constructions are supported: the square one
with D = A^T = R = S (dense desk-scale matrices) and the factored one
with S = A^T D over simple matrices A, D.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certificates import ExecutionProtocol
from .domains import Ball, Product, Simplex
from .oracles import ColumnHit, col_extreme, enumerate_columns
from .solvers import FieldOracle, ellipsoid_run, md_run

__all__ = [
    "BilinearSpSpec",
    "MasterProblem",
    "PrimalEval",
    "SparseAtomSolution",
    "build_master_example1",
    "build_master_example2",
    "primal_value_grad",
    "solve_sp",
    "exact_gap",
    "master_transfer_protocol",
]


@dataclass
class BilinearSpSpec:
    """Bilinear game psi(w, z) = <w,p> + <z,q> + <z, A^T D w> over W x Z.

    A (K x M) indexes the maximizer's pure strategies, D (K x N) the
    minimizer's; both are simple-matrix oracles sharing the row count K.
    Offsets p, q must be materialized vectors (desk scale) or None.
    """

    A: object
    D: object
    p: np.ndarray | None = None
    q: np.ndarray | None = None

    def __post_init__(self):
        if self.A.n_rows != self.D.n_rows:
            raise ValueError(
                f"A and D must share the row dimension, got {self.A.n_rows} and {self.D.n_rows}"
            )
        if self.p is not None:
            self.p = np.asarray(self.p, dtype=float)
        if self.q is not None:
            self.q = np.asarray(self.q, dtype=float)

    @property
    def K(self):
        return self.A.n_rows


@dataclass
class MasterProblem:
    """Primal saddle-point problem over U x V (origin-centered balls)."""

    spec: BilinearSpSpec | None
    R_U: float
    R_V: float
    construction: str            # "example1" | "example2"
    S: np.ndarray | None = None  # dense payoff matrix, example1 only
    p: np.ndarray | None = None
    q: np.ndarray | None = None

    @property
    def dim_u(self):
        return self.S.shape[1] if self.construction == "example1" else self.spec.K

    @property
    def dim_v(self):
        return self.S.shape[0] if self.construction == "example1" else self.spec.K

    @property
    def U(self):
        return Ball(np.zeros(self.dim_u), self.R_U)

    @property
    def V(self):
        return Ball(np.zeros(self.dim_v), self.R_V)

    def primal_domain(self):
        return Product([self.U, self.V])


@dataclass(frozen=True)
class PrimalEval:
    phi: float
    g_u: np.ndarray
    g_v: np.ndarray
    w_hit: object
    z_hit: object


@dataclass
class SparseAtomSolution:
    """Mixed strategies stored as weighted pure-strategy atoms."""

    w_atoms: dict
    z_atoms: dict
    gap_bound: float
    gap_exact: float | None
    value_estimate: float
    w_atom_columns: dict = field(default_factory=dict)
    z_atom_columns: dict = field(default_factory=dict)
    steps: int = 0
    rounds: list = field(default_factory=list)
    # raw solver output, kept for residual-transfer checks and reports
    protocol: object = None
    cert: object = None
    hits: list = field(default_factory=list)
    stop_reason: str | None = None

    def to_json_dict(self):
        return {
            "w_atoms": [{"index": list(k), "weight": float(v)}
                        for k, v in sorted(self.w_atoms.items())],
            "z_atoms": [{"index": list(k), "weight": float(v)}
                        for k, v in sorted(self.z_atoms.items())],
            "gap_bound": float(self.gap_bound),
            "gap_exact": None if self.gap_exact is None else float(self.gap_exact),
            "value_estimate": float(self.value_estimate),
        }


def build_master_example1(S, p=None, q=None):
    """Square master with D = A^T = R = S over W = Delta_N, Z = Delta_M.

    Ball radii are large enough both to contain the simplices and to
    dominate the column norms of S and S^T.
    """
    S = np.atleast_2d(np.asarray(S, dtype=float))
    r_u = max(1.0, float(np.linalg.norm(S, axis=0).max(initial=0.0)))
    r_v = max(1.0, float(np.linalg.norm(S, axis=1).max(initial=0.0)))
    return MasterProblem(spec=None, R_U=r_u, R_V=r_v, construction="example1",
                         S=S, p=None if p is None else np.asarray(p, float),
                         q=None if q is None else np.asarray(q, float))


def build_master_example2(spec, shared_radius=False):
    """Factored master Phi(u,w;v,z) = <w, p+D^T v> + <z, q+A^T u> - <u,v>.

    U must contain D W and V must contain A Z; radii come from exact
    column-norm maxima (dense) or the knapsack column-norm bound.
    """
    r_u = spec.D.column_norm_bound()
    r_v = spec.A.column_norm_bound()
    if shared_radius:
        r_u = r_v = max(r_u, r_v)
    r_u = max(r_u, 1e-12)
    r_v = max(r_v, 1e-12)
    return MasterProblem(spec=spec, R_U=r_u, R_V=r_v, construction="example2",
                         p=spec.p, q=spec.q)


def primal_value_grad(master, u, v):
    """First-order information for phi at (u, v).

    Matrix-game form: phi(u,v) = Max(A^T u) + Min(D^T v) - <u, R v-term>,
    with the sub/supergradients read off the extremizing columns.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (master.dim_u,) or v.shape != (master.dim_v,):
        raise ValueError("query dimensions do not match the master problem")

    if master.construction == "example2":
        spec = master.spec
        if master.p is None:
            w_hit = col_extreme(spec.D, v, "min")
            w_val = w_hit.value
        else:
            vals = v @ spec.D.matrix + master.p
            j = int(np.argmin(vals))
            w_val = float(vals[j])
            w_hit = ColumnHit((j,), spec.D.matrix[:, j].copy(), w_val)
        if master.q is None:
            z_hit = col_extreme(spec.A, u, "max")
            z_val = z_hit.value
        else:
            vals = u @ spec.A.matrix + master.q
            j = int(np.argmax(vals))
            z_val = float(vals[j])
            z_hit = ColumnHit((j,), spec.A.matrix[:, j].copy(), z_val)
        phi = w_val + z_val - float(u @ v)
        g_u = z_hit.column - v
        g_v = w_hit.column - u
        return PrimalEval(phi, g_u, g_v, w_hit, z_hit)

    # example1: D = A^T = R = S
    S = master.S
    wq = S.T @ v if master.p is None else S.T @ v + master.p
    zq = S @ u if master.q is None else S @ u + master.q
    jw = int(np.argmin(wq))
    jz = int(np.argmax(zq))
    phi = float(wq[jw]) + float(zq[jz]) - float(v @ (S @ u))
    g_u = S[jz, :] - S.T @ v
    g_v = S[:, jw] - S @ u
    w_hit = ColumnHit((jw,), S[:, jw].copy(), float(wq[jw]))
    z_hit = ColumnHit((jz,), S[jz, :].copy(), float(zq[jz]))
    return PrimalEval(phi, g_u, g_v, w_hit, z_hit)


def _atoms(cert, hits):
    """Pure-strategy atoms of the transferred certificate: weights
    (w_atoms, z_atoms) and stored columns (w_cols, z_cols), keyed by
    action sequence."""
    w_atoms, z_atoms, w_cols, z_cols = {}, {}, {}, {}
    for i in np.flatnonzero(cert.weights > 0.0):
        weight, (w_hit, z_hit) = cert.weights[i], hits[i]
        w_atoms[w_hit.action_sequence] = w_atoms.get(w_hit.action_sequence, 0.0) + weight
        z_atoms[z_hit.action_sequence] = z_atoms.get(z_hit.action_sequence, 0.0) + weight
        w_cols[w_hit.action_sequence] = w_hit.column
        z_cols[z_hit.action_sequence] = z_hit.column
    return w_atoms, z_atoms, w_cols, z_cols


def _value_bounds(master, w_atoms, z_atoms, w_cols, z_cols):
    """(upper, lower) bounds on the game value at the atoms' mixed pair
    (w, z): upper = max_z' psi(w, z'), lower = min_w' psi(w', z), from the
    aggregated stored columns and at most two oracle calls."""
    agg_w = sum(w_atoms[k] * c for k, c in w_cols.items())
    agg_z = sum(z_atoms[k] * c for k, c in z_cols.items())
    # offsets are indexed by the atoms' identities, desk scale only
    p_dot_w = 0.0 if master.p is None else sum(w * master.p[k[0]] for k, w in w_atoms.items())
    q_dot_z = 0.0 if master.q is None else sum(w * master.q[k[0]] for k, w in z_atoms.items())
    if master.construction == "example1":
        zq = agg_w if master.q is None else agg_w + master.q
        wq = agg_z if master.p is None else agg_z + master.p
        return p_dot_w + float(zq.max()), q_dot_z + float(wq.min())
    spec = master.spec
    if master.q is None:
        upper = p_dot_w + col_extreme(spec.A, agg_w, "max").value
    else:
        upper = p_dot_w + float((agg_w @ spec.A.matrix + master.q).max())
    if master.p is None:
        lower = q_dot_z + col_extreme(spec.D, agg_z, "min").value
    else:
        lower = q_dot_z + float((agg_z @ spec.D.matrix + master.p).min())
    return upper, lower


def solve_sp(master, solver="ellipsoid", config=None):
    """Solve the game by running `solver` on the primal field over U x V.

    The monotone primal field is F(u,v) = [phi'_u; -phi'_v]; the solver
    keeps the columns hit while evaluating it, so every certificate round
    yields sparse strategies w^t = sum_i lam_i e_{w_i}, z^t = sum_i lam_i e_{z_i}
    whose exact gap and value the round records, from the stored columns.
    The solution is the closing round's, which the run checked against
    its residual; nothing calls an oracle after the run.
    """
    nu = master.dim_u

    def fn(xi):
        ev = primal_value_grad(master, xi[:nu], xi[nu:])
        return np.concatenate([ev.g_u, -ev.g_v]), (ev.w_hit, ev.z_hit)

    def round_fields(protocol, cert, hits):
        upper, lower = _value_bounds(master, *_atoms(cert, hits))
        return {"gap": upper - lower, "value": 0.5 * (upper + lower)}

    # looked up at call time, so that wrappers installed on this module apply
    runs = {"ellipsoid": ellipsoid_run, "md": md_run}
    if solver not in runs:
        raise ValueError(f"unknown solver {solver!r}")
    run = runs[solver](FieldOracle(fn), master.primal_domain(), config, round_fields)
    w_atoms, z_atoms, w_cols, z_cols = _atoms(run.cert, run.payloads)
    last = run.rounds[-1]  # on the whole protocol and run.cert
    return SparseAtomSolution(
        w_atoms=w_atoms,
        z_atoms=z_atoms,
        gap_bound=run.residual,
        gap_exact=last["gap"],
        value_estimate=last["value"],
        w_atom_columns=w_cols,
        z_atom_columns=z_cols,
        steps=run.steps,
        rounds=run.rounds,
        protocol=run.protocol,
        cert=run.cert,
        hits=run.payloads,
        stop_reason=run.stop_reason,
    )


def exact_gap(spec, sol):
    """Exact saddle-point gap of a sparse solution, from its stored columns.

    `spec` may be a BilinearSpSpec (factored construction) or a
    MasterProblem.  Two oracle calls on the aggregated K-vectors.
    """
    master = spec if isinstance(spec, MasterProblem) else MasterProblem(
        spec=spec, R_U=1.0, R_V=1.0, construction="example2", p=spec.p, q=spec.q)
    if not sol.w_atom_columns or not sol.z_atom_columns:
        raise ValueError("solution atoms must carry their stored columns")
    upper, lower = _value_bounds(master, sol.w_atoms, sol.z_atoms,
                                 sol.w_atom_columns, sol.z_atom_columns)
    return upper - lower


def master_transfer_protocol(master, protocol, hits):
    """Lift a primal protocol to the master space (U x W) x (V x Z).

    Desk scale only: the big blocks are materialized, so the generic
    LMO-based residual over the product domain can be evaluated and
    compared against the primal residual.  Returns (protocol, domain).
    """
    if master.construction == "example1":
        D_mat = master.S
        A_mat = master.S.T
    else:
        _, D_mat = enumerate_columns(master.spec.D)
        _, A_mat = enumerate_columns(master.spec.A)
    n_w = D_mat.shape[1]
    n_z = A_mat.shape[1]
    nu = master.dim_u
    p = master.p if master.p is not None else np.zeros(n_w)
    q = master.q if master.q is not None else np.zeros(n_z)

    points, fields = [], []
    for i in range(len(protocol)):
        u = protocol.points[i][:nu]
        v = protocol.points[i][nu:]
        g_u = protocol.field_values[i][:nu]
        neg_g_v = protocol.field_values[i][nu:]
        w_hit, z_hit = hits[i]
        e_w = np.zeros(n_w)
        e_w[w_hit.action_sequence[0]] = 1.0
        e_z = np.zeros(n_z)
        e_z[z_hit.action_sequence[0]] = 1.0
        alpha = p + D_mat.T @ v       # grad of Phi in w
        beta = -q - A_mat.T @ u       # -grad of Phi in z
        points.append(np.concatenate([u, e_w, v, e_z]))
        fields.append(np.concatenate([g_u, alpha, neg_g_v, beta]))

    big = ExecutionProtocol.from_lists(points, fields, protocol.step_ids)
    domain = Product([master.U, Simplex(n_w), master.V, Simplex(n_z)])
    return big, domain
