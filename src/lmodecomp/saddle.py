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

import json
from dataclasses import dataclass, field

import numpy as np

from .certificates import CertificateError, ExecutionProtocol
from .domains import Ball, Product, Simplex
from .oracles import DenseMatrixOracle, col_extreme, enumerate_columns
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
    value_lower: float | None = None
    value_upper: float | None = None
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
            w_hit = _dense_hit(spec.D, j, vals[j])
            w_val = float(vals[j])
        if master.q is None:
            z_hit = col_extreme(spec.A, u, "max")
            z_val = z_hit.value
        else:
            vals = u @ spec.A.matrix + master.q
            j = int(np.argmax(vals))
            z_hit = _dense_hit(spec.A, j, vals[j])
            z_val = float(vals[j])
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
    w_hit = _col_hit((jw,), S[:, jw].copy(), float(wq[jw]))
    z_hit = _col_hit((jz,), S[jz, :].copy(), float(zq[jz]))
    return PrimalEval(phi, g_u, g_v, w_hit, z_hit)


def _dense_hit(oracle, j, value):
    return _col_hit((j,), oracle.matrix[:, j].copy(), float(value))


def _col_hit(seq, column, value):
    from .oracles import ColumnHit

    return ColumnHit(seq, column, value)


def _gap_terms(master, agg_w_cols, agg_z_cols, p_dot_w, q_dot_z):
    """(upper, lower) bounds on the game value at the recovered pair:
    upper = max_z psi(w^t, z), lower = min_w psi(w, z^t)."""
    if master.construction == "example1":
        zq = agg_w_cols if master.q is None else agg_w_cols + master.q
        wq = agg_z_cols if master.p is None else agg_z_cols + master.p
        upper = p_dot_w + float(zq.max())
        lower = q_dot_z + float(wq.min())
        return upper, lower
    spec = master.spec
    if master.q is None:
        upper = p_dot_w + col_extreme(spec.A, agg_w_cols, "max").value
    else:
        upper = p_dot_w + float((agg_w_cols @ spec.A.matrix + master.q).max())
    if master.p is None:
        lower = q_dot_z + col_extreme(spec.D, agg_z_cols, "min").value
    else:
        lower = q_dot_z + float((agg_z_cols @ spec.D.matrix + master.p).min())
    return upper, lower


def solve_sp(master, solver="ellipsoid", config=None):
    """Solve the game by running `solver` on the primal field over U x V.

    The monotone primal field is F(u,v) = [phi'_u; -phi'_v]; the solver
    keeps the columns hit while evaluating it, so every certificate round
    yields sparse strategies w^t = sum_i lam_i e_{w_i}, z^t = sum_i lam_i e_{z_i}
    whose exact gap is computed from the stored columns.
    """
    nu = master.dim_u

    def fn(xi):
        ev = primal_value_grad(master, xi[:nu], xi[nu:])
        return np.concatenate([ev.g_u, -ev.g_v]), (ev.w_hit, ev.z_hit)

    def round_gap(protocol, cert, hits):
        upper, lower = _aggregate_bounds(master, hits, cert)
        return upper - lower

    # looked up at call time, so that wrappers installed on this module apply
    runs = {"ellipsoid": ellipsoid_run, "md": md_run}
    if solver not in runs:
        raise ValueError(f"unknown solver {solver!r}")
    run = runs[solver](FieldOracle(fn), master.primal_domain(), config, round_gap)
    cert, hits = run.cert, run.payloads

    lam = cert.weights
    w_atoms, z_atoms = {}, {}
    w_cols, z_cols = {}, {}
    for weight, (w_hit, z_hit) in zip(lam, hits):
        if weight <= 0.0:
            continue
        w_atoms[w_hit.action_sequence] = w_atoms.get(w_hit.action_sequence, 0.0) + weight
        z_atoms[z_hit.action_sequence] = z_atoms.get(z_hit.action_sequence, 0.0) + weight
        w_cols[w_hit.action_sequence] = w_hit.column
        z_cols[z_hit.action_sequence] = z_hit.column

    upper, lower = _aggregate_bounds(master, hits, cert)
    gap_exact = upper - lower
    value = 0.5 * (upper + lower)
    if not gap_exact <= run.residual + 1e-9 * max(1.0, abs(value)):
        raise CertificateError(
            f"exact gap {gap_exact} exceeds certified residual {run.residual}")
    return SparseAtomSolution(
        w_atoms=w_atoms,
        z_atoms=z_atoms,
        gap_bound=run.residual,
        gap_exact=gap_exact,
        value_estimate=value,
        value_lower=lower,
        value_upper=upper,
        w_atom_columns=w_cols,
        z_atom_columns=z_cols,
        steps=run.steps,
        rounds=run.rounds,
        protocol=run.protocol,
        cert=cert,
        hits=hits,
        stop_reason=run.stop_reason,
    )


def _aggregate_bounds(master, hits, cert):
    lam = cert.weights
    # zero weights add exact zeros to every sum below, so skipping them
    # leaves the results bit-identical
    support = np.flatnonzero(lam)
    agg_w = np.zeros(hits[0][0].column.shape[0])
    agg_z = np.zeros(hits[0][1].column.shape[0])
    for i in support:
        agg_w += lam[i] * hits[i][0].column
        agg_z += lam[i] * hits[i][1].column
    p_dot_w = 0.0
    q_dot_z = 0.0
    if master.p is not None or master.q is not None:
        # offsets require the atom identities, desk scale only
        for i in support:
            w_hit, z_hit = hits[i]
            if master.p is not None:
                p_dot_w += lam[i] * master.p[w_hit.action_sequence[0]]
            if master.q is not None:
                q_dot_z += lam[i] * master.q[z_hit.action_sequence[0]]
    return _gap_terms(master, agg_w, agg_z, p_dot_w, q_dot_z)


def exact_gap(spec, sol):
    """Exact saddle-point gap of a sparse solution, from its stored columns.

    `spec` may be a BilinearSpSpec (factored construction) or a
    MasterProblem.  Two oracle calls on the aggregated K-vectors.
    """
    master = spec if isinstance(spec, MasterProblem) else MasterProblem(
        spec=spec, R_U=1.0, R_V=1.0, construction="example2", p=spec.p, q=spec.q)
    if not sol.w_atom_columns or not sol.z_atom_columns:
        raise ValueError("solution atoms must carry their stored columns")
    agg_w = sum(sol.w_atoms[k] * c for k, c in sol.w_atom_columns.items())
    agg_z = sum(sol.z_atoms[k] * c for k, c in sol.z_atom_columns.items())
    p_dot_w = q_dot_z = 0.0
    if master.p is not None:
        p_dot_w = sum(w * master.p[k[0]] for k, w in sol.w_atoms.items())
    if master.q is not None:
        q_dot_z = sum(w * master.q[k[0]] for k, w in sol.z_atoms.items())
    upper, lower = _gap_terms(master, agg_w, agg_z, p_dot_w, q_dot_z)
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
