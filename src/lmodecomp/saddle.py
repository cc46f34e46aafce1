"""Bilinear saddle-point decomposition.

Reduces the (possibly huge) matrix game  min_w max_z <w,p> + <z,q> + <z, S w>
over simplices to a small primal saddle-point problem over a product of
two balls, solves the primal with a certificate-producing method, and
transfers the certificate back into a provably accurate sparse mixed
strategy pair.  Both masters are one field, Phi(u,w;v,z) =
<w, p + D^T v> + <z, q + A^T u> - <v, R u>: the square one with
D = A^T = R = S (dense desk-scale S) and the factored one with S = A^T D
over simple matrices A, D and R = I.  The offsets live in the dense
column searches of D and A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import ExecutionProtocol
from .domains import Ball, Product, Simplex
from .oracles import ColumnHit, DenseMatrixOracle, _named, _norm_bound, enumerate_columns, reals
from .solvers import (
    FieldOracle,
    SolveResult,
    SolverConfig,
    _restricted_lp,
    _Rounds,
    ellipsoid_run,
    md_run,
)

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


def _with_offset(side, offset, name):
    """`side` with the linear term `offset` (named p or q in errors) in its
    column search; only a dense side, whose columns it indexes, takes one."""
    if offset is not None and not isinstance(side, DenseMatrixOracle):
        raise ValueError(f"offset {name} needs a dense side, whose columns it indexes")
    return side if offset is None else _named(f"offset {name}", DenseMatrixOracle, side.matrix,
                                              offset)


@dataclass
class BilinearSpSpec:
    """Bilinear game psi(w, z) = <w,p> + <z,q> + <z, A^T D w> over W x Z.

    A (K x M) indexes the maximizer's pure strategies, D (K x N) the
    minimizer's; both are simple-matrix oracles sharing the row count K.
    Offsets p (one entry per column of D) and q (per column of A) need a
    dense side: D and A are replaced by dense oracles carrying them.
    """

    A: object
    D: object
    p: np.ndarray | None = None
    q: np.ndarray | None = None

    def __post_init__(self):
        if self.A.n_rows != self.D.n_rows:
            raise ValueError(f"A and D must share the row dimension, got {self.A.n_rows} "
                             f"and {self.D.n_rows}")
        self.D = _with_offset(self.D, self.p, "p")
        self.A = _with_offset(self.A, self.q, "q")

    @property
    def K(self):
        return self.A.n_rows


@dataclass
class MasterProblem:
    """Primal saddle-point problem over U x V (origin-centered balls).

    The column oracles A (queried with u) and D (with v) carry the offsets
    q and p.  S is the square master's payoff, which is also its coupling
    R; None means R = I.  spec is the factored game, None when square.
    """

    A: object
    D: object
    R_U: float
    R_V: float
    S: np.ndarray | None = None
    spec: BilinearSpSpec | None = None

    @property
    def dim_u(self):
        return self.A.n_rows

    @property
    def dim_v(self):
        return self.D.n_rows

    @property
    def U(self):
        return Ball(np.zeros(self.dim_u), self.R_U)

    @property
    def V(self):
        return Ball(np.zeros(self.dim_v), self.R_V)

    def primal_domain(self):
        return Product([self.U, self.V])

    def coupling(self, u, v):
        """(R u, R^T v)."""
        return (u, v) if self.S is None else (self.S.dot(u), self.S.T.dot(v))


class PrimalEval:
    """phi's first-order information at (u, v), a plain record: `field` is
    [phi'_u; -phi'_v] = [z_col - R^T v; R u - w_col] in one array, g_u a
    view of its first half, g_v its negated second half, w_hit and z_hit
    the two ColumnHits, and phi = w_hit.value + z_hit.value - <v, R u>,
    fixed at call time."""

    __slots__ = ("field", "w_hit", "z_hit", "phi", "_dim_u")

    def __init__(self, field, w_hit, z_hit, phi, dim_u):
        self.field, self.w_hit, self.z_hit, self.phi, self._dim_u = field, w_hit, z_hit, phi, dim_u

    @property
    def g_u(self):
        return self.field[:self._dim_u]

    @property
    def g_v(self):
        return -self.field[self._dim_u:]


@dataclass
class SparseAtomSolution(SolveResult):
    """The run of a game, with the mixed strategies that its closing round
    returned: weighted pure-strategy atoms {key: weight}, keyed by
    `ColumnHit.key`, either the ones its certificate transfers or the
    equilibrium of the game restricted to the pure strategies that the run
    hit (see solve_sp).  Its payloads are the (w_hit, z_hit) pairs of the
    protocol.  gap_exact, value_estimate and gap_bound are the closing
    round's gap, value and bound for those atoms: the bound is gap_exact
    plus the rounding allowance rho (see _allowance), and for the
    certificate's atoms at most the certified residual `cert.residual`."""

    w_atoms: dict
    z_atoms: dict
    gap_bound: float
    gap_exact: float
    value_estimate: float


def build_master_example1(S, p=None, q=None):
    """Square master with D = A^T = R = S over W = Delta_N, Z = Delta_M.

    Ball radii are large enough both to contain the simplices and to
    dominate the column norms of S and S^T.  S goes through `reals`.
    """
    S = reals(S, "S", 2)
    r_u = max(1.0, _norm_bound(lambda: np.linalg.norm(S, axis=0).max(initial=0.0), "S"))
    r_v = max(1.0, _norm_bound(lambda: np.linalg.norm(S, axis=1).max(initial=0.0), "S"))
    return MasterProblem(A=_with_offset(DenseMatrixOracle(S.T), q, "q"),
                         D=_with_offset(DenseMatrixOracle(S), p, "p"), R_U=r_u, R_V=r_v, S=S)


def build_master_example2(spec, shared_radius=False):
    """Factored master Phi(u,w;v,z) = <w, p+D^T v> + <z, q+A^T u> - <u,v>.

    U must contain D W and V must contain A Z; radii come from exact
    column-norm maxima (dense) or the knapsack column-norm bound, and a
    bound that overflows raises ValueError naming its side, A or D.
    """
    r_u, r_v = _named("D", spec.D.column_norm_bound), _named("A", spec.A.column_norm_bound)
    if shared_radius:
        r_u = r_v = max(r_u, r_v)
    return MasterProblem(A=spec.A, D=spec.D, R_U=max(r_u, 1e-12),
                         R_V=max(r_v, 1e-12), spec=spec)


def primal_value_grad(master, u, v):
    """First-order information for phi at (u, v).

    Matrix-game form: phi(u,v) = Max(q + A^T u) + Min(p + D^T v) - <v, R u>,
    with the sub/supergradients read off the extremizing columns.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (master.dim_u,) or v.shape != (master.dim_v,):
        raise ValueError("query dimensions do not match the master problem")
    w_hit = master.D.col_extreme(v, "min")
    z_hit = master.A.col_extreme(u, "max")
    r_u, rt_v = master.coupling(u, v)
    field = np.empty(len(u) + len(v))
    np.subtract(z_hit.column, rt_v, out=field[:len(u)])
    np.subtract(r_u, w_hit.column, out=field[len(u):])  # -phi'_v = -(w_col - R u)
    return PrimalEval(field, w_hit, z_hit, w_hit.value + z_hit.value - float(v.dot(r_u)), len(u))


def _atoms(cert, hits):
    """Pure-strategy atoms of the transferred certificate: weights
    (w_atoms, z_atoms) and stored columns (w_cols, z_cols), keyed by
    `ColumnHit.key` (the action sequence, with a DP's start state)."""
    w_atoms, z_atoms, w_cols, z_cols = {}, {}, {}, {}
    weights = cert.weights
    for i in (weights > 0.0).nonzero()[0].tolist():
        weight, (w_hit, z_hit) = weights[i], hits[i]
        w_key, z_key = w_hit.key, z_hit.key
        w_atoms[w_key] = w_atoms.get(w_key, 0.0) + weight
        z_atoms[z_key] = z_atoms.get(z_key, 0.0) + weight
        w_cols[w_key] = w_hit.column
        z_cols[z_key] = z_hit.column
    return w_atoms, z_atoms, w_cols, z_cols


def _offset_dot(oracle, atoms):
    """<offset, mixed strategy> of the atoms, which index the columns of a dense side."""
    offset = getattr(oracle, "offset", None)
    return 0.0 if offset is None else sum(w * offset[k[0]] for k, w in atoms.items())


def _best_entry(side, scores, direction):
    """The ColumnHit of a dense side's column whose score, an entry of
    `scores`, is the largest ("max") or the least ("min")."""
    j = int(scores.argmax() if direction == "max" else scores.argmin())
    return ColumnHit((j,), side.matrix[:, j], float(scores[j]))


def _value_bounds(master, w_atoms, z_atoms, w_cols, z_cols):
    """(upper, lower, replies): bounds on the game value at the atoms' mixed
    pair (w, z), upper = max_z' psi(w, z') and lower = min_w' psi(w', z),
    from the aggregated stored columns and at most two oracle calls, and
    the best replies (w_hit, z_hit) that attain them, a pair as the
    protocol's payloads hold.  solve_sp keeps the replies to each round's
    certificate atoms and to each restricted equilibrium, which join every
    later restricted master.  The square master makes no oracle call: its
    replies are the entries of S w + q and S^T z + p, as ColumnHits of A
    and D."""
    agg_w = sum(w_atoms[k] * c for k, c in w_cols.items())
    agg_z = sum(z_atoms[k] * c for k, c in z_cols.items())
    p_dot_w, q_dot_z = _offset_dot(master.D, w_atoms), _offset_dot(master.A, z_atoms)
    if master.S is None:  # factored: D w and A z are queries of the replies' searches
        z_hit = master.A.col_extreme(agg_w, "max")
        w_hit = master.D.col_extreme(agg_z, "min")
    else:  # square: S w and S^T z are the replies' payoffs themselves
        q, p = master.A.offset, master.D.offset
        z_hit = _best_entry(master.A, agg_w if q is None else agg_w + q, "max")
        w_hit = _best_entry(master.D, agg_z if p is None else agg_z + p, "min")
    return p_dot_w + z_hit.value, q_dot_z + w_hit.value, (w_hit, z_hit)


def _offset_max(oracle):
    """Largest magnitude of a dense side's offset, 0 where it has none."""
    offset = getattr(oracle, "offset", None)
    return 0.0 if offset is None else float(np.abs(offset).max())


def _allowance(master, w_atoms, z_atoms, w_cols, z_cols):
    """rho, a first-order bound on the rounding error of the gap that
    _value_bounds computes for the atoms:
    rho = 2 (K + s) 2^-53 (R_V sum_j w_j ||D e_j|| + R_U sum_i z_i ||A e_i||
    + 2 max|p| + 2 max|q|), with K the larger block dimension and s the
    atoms summed.  The weighted column norms bound ||D w|| and ||A z||, and
    the radii bound every column norm of A and D, so each term bounds the
    magnitude of what the upper or the lower evaluation sums; the offsets
    count for the atoms and for the oracle's reply."""
    n = max(master.dim_u, master.dim_v) + len(w_atoms) + len(z_atoms)
    mass_w = sum(w_atoms[k] * math.sqrt(c.dot(c)) for k, c in w_cols.items())
    mass_z = sum(z_atoms[k] * math.sqrt(c.dot(c)) for k, c in z_cols.items())
    offsets = _offset_max(master.D) + _offset_max(master.A)
    return 2.0 * n * 2.0 ** -53 * (master.R_V * mass_w + master.R_U * mass_z + 2.0 * offsets)


def _evaluated(master, atoms):
    """((atoms, gap, rho, fields), replies) of `atoms` = (w_atoms, z_atoms,
    w_cols, z_cols): the gap, value and best replies from _value_bounds,
    rho from _allowance."""
    upper, lower, replies = _value_bounds(master, *atoms)
    return (atoms[:2], upper - lower, _allowance(master, *atoms),
            {"value": 0.5 * (upper + lower)}), replies


def _restricted_master(master, pool):
    """Equilibrium of the game restricted to `pool` = (w_cols, z_cols), one
    {key: column} table per side of a run's payloads and its rounds' best
    replies (see solvers._Rounds), as (w_atoms, z_atoms, w_cols, z_cols).
    A rejected LP raises solvers._Rejected, which the round catches.  The
    minimizer's LP (_restricted_lp) takes the columns D e_j of its
    strategies as images, and each maximizer's strategy i is one row
    <A e_i, D w> + q_i <= s: the row's normal is its column A e_i, or e_i
    for the square master, whose payoff S_ij is entry i of D e_j.  A small
    pool's LP reads these rows as the pairing table of their payoffs, a
    large one's through the images (see solvers._tabled).  The rows' duals
    are the maximizer's weights."""
    w_cols, z_cols = pool
    n, r = len(w_cols), len(z_cols)
    images = np.array(list(w_cols.values())).T
    if master.S is None:
        normals = np.array(list(z_cols.values()))
    else:
        normals = np.zeros((r, master.dim_v))
        normals[np.arange(r), [k[0] for k in z_cols]] = 1.0
    p, q = (getattr(side, "offset", None) for side in (master.D, master.A))
    cost = np.zeros(n) if p is None else p[[k[0] for k in w_cols]]
    rhs = np.zeros(r) if q is None else -q[[k[0] for k in z_cols]]
    blocks = np.zeros(max(n, r), dtype=np.intp)  # one block of atoms, one of rows
    w, z = _restricted_lp(images, blocks[:n], normals, blocks[:r], rhs, cost)
    w_atoms = {k: x for k, x in zip(w_cols, w.tolist()) if x > 0.0}
    z_atoms = {k: x for k, x in zip(z_cols, z.tolist()) if x > 0.0}
    return w_atoms, z_atoms, {k: w_cols[k] for k in w_atoms}, {k: z_cols[k] for k in z_atoms}


def solve_sp(master, solver="ellipsoid", config=None):
    """Solve the game by running `solver` on the primal field over U x V.

    The monotone primal field is F(u,v) = [phi'_u; -phi'_v]; the solver
    keeps the columns hit while evaluating it, so every certificate round
    yields sparse strategies w^t = sum_i lam_i e_{w_i}, z^t = sum_i lam_i e_{z_i}
    whose exact gap and value the round records, from the stored columns,
    with two oracle calls that find the best replies to those atoms
    (_value_bounds).  Each round also solves the restricted master, the
    game over the pool of solvers._Rounds (_restricted_master), and
    evaluates its equilibrium the same way; the protocol, the cuts and
    the certificates do not depend on them.  A round's record is as
    solvers.SolveResult says.  The round returns the certificate's atoms
    or the best restricted equilibrium: the certificate's atoms are
    bounded by max(min(cert.residual, gap + rho), gap), the restricted ones
    by gap + rho, with rho the rounding allowance of _allowance, so a pure
    saddle point reads a bound of rho, not 0.  The certificate's own gap
    is checked against its residual every round.  Early rounds (see
    solvers._Run) let the restricted master stop the run before the first
    certificate LP.
    The solution is the closing round's atoms, gap, value and bound;
    nothing calls an oracle after the run.
    """
    nu = master.dim_u
    rounds = _Rounds((config or SolverConfig()).gap_threshold, _atoms,
                     lambda atoms: _evaluated(master, atoms),
                     lambda pool: _restricted_master(master, pool),
                     lambda pair: [(hit.key, hit.column) for hit in pair])

    def fn(xi):
        ev = primal_value_grad(master, xi[:nu], xi[nu:])
        return ev.field, (ev.w_hit, ev.z_hit)

    # looked up at call time, so that wrappers installed on this module apply
    runs = {"ellipsoid": ellipsoid_run, "md": md_run}
    if solver not in runs:
        raise ValueError(f"unknown solver {solver!r}")
    run = runs[solver](FieldOracle(fn), master.primal_domain(), config, rounds)
    last = run.rounds[-1]  # on the whole protocol and run.cert
    return SparseAtomSolution(**vars(run), w_atoms=rounds.atoms[0], z_atoms=rounds.atoms[1],
                              gap_bound=last["bound"], gap_exact=last["gap"],
                              value_estimate=last["value"])


def exact_gap(spec, sol):
    """Exact saddle-point gap of a sparse solution's atoms, `sol.w_atoms`
    and `sol.z_atoms`, whose columns it rebuilds through the oracles: a
    check independent of the columns that the run stored.

    `spec` may be a BilinearSpSpec (factored construction) or a
    MasterProblem.  One column call per atom, then two oracle calls on
    the aggregated K-vectors.
    """
    master = spec if isinstance(spec, MasterProblem) else build_master_example2(spec)
    w_cols = {k: master.D.column(k) for k in sol.w_atoms}
    z_cols = {k: master.A.column(k) for k in sol.z_atoms}
    upper, lower, _ = _value_bounds(master, sol.w_atoms, sol.z_atoms, w_cols, z_cols)
    return upper - lower


def master_transfer_protocol(master, protocol, hits):
    """Lift a primal protocol to the master space (U x W) x (V x Z).

    Desk scale only: the big blocks are materialized, so the generic
    LMO-based residual over the product domain can be evaluated and
    compared against the primal residual.  Returns (protocol, domain).
    """
    w_keys, D_mat = enumerate_columns(master.D)
    z_keys, A_mat = enumerate_columns(master.A)
    n_w, n_z = D_mat.shape[1], A_mat.shape[1]
    nu = master.dim_u
    p, q = (getattr(side, "offset", None) for side in (master.D, master.A))
    p, q = (np.zeros(n_w) if p is None else p), (np.zeros(n_z) if q is None else q)

    points, fields = [], []
    for i in range(len(protocol)):
        u = protocol.points[i][:nu]
        v = protocol.points[i][nu:]
        g_u = protocol.field_values[i][:nu]
        neg_g_v = protocol.field_values[i][nu:]
        w_hit, z_hit = hits[i]
        e_w = np.zeros(n_w)
        e_w[w_keys.index(w_hit.key)] = 1.0
        e_z = np.zeros(n_z)
        e_z[z_keys.index(z_hit.key)] = 1.0
        alpha = p + D_mat.T @ v       # grad of Phi in w
        beta = -q - A_mat.T @ u       # -grad of Phi in z
        points.append(np.concatenate([u, e_w, v, e_z]))
        fields.append(np.concatenate([g_u, alpha, neg_g_v, beta]))

    big = ExecutionProtocol.from_lists(points, fields, protocol.step_ids)
    domain = Product([master.U, Simplex(n_w), master.V, Simplex(n_z)])
    return big, domain
