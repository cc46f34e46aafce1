"""Decomposition of affine monotone and skew-symmetric variational
inequalities on LMO-represented domains, and the Nash-equilibrium front
end with pairwise zero-sum interactions.

The VI of interest lives on a huge domain H; a small primal VI over a
ball (or product of two balls) is solved instead, and the certificate
transfers into weighted atoms on H whose dual gap is bounded by the
primal residual.  The gap of the recovered point takes one LMO or
oracle call: for skew-symmetric operators it is the exact dual gap, and
for affine monotone ones the gap function, an upper bound on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# residual_ball_product is unused here: benchmark tracing wraps this module's name
from .certificates import ExecutionProtocol, residual_ball_product  # noqa: F401
from .domains import Ball, Product, Simplex
from .oracles import DenseMatrixOracle, json_object, matrix_side
from .solvers import FieldOracle, SolveResult, ellipsoid_run, md_run

__all__ = [
    "AffineViSpec",
    "SkewViSpec",
    "NashSpec",
    "EtaHit",
    "ViSolution",
    "DenseSkewSystem",
    "NashSkewSystem",
    "build_affine_vi_primal",
    "build_skew_vi_primal",
    "nash_to_skew",
    "solve_vi",
    "eps_vi_exact",
    "eps_nash",
    "nash_spec_from_json",
    "skew_master_protocol",
]


@dataclass
class AffineViSpec:
    """VI with operator F(eta) = S eta + s on an LMO-represented H."""

    apply_S: object            # callable R^N -> R^N
    apply_St: object           # callable R^N -> R^N (transpose action)
    s: np.ndarray
    H: object                  # Domain with an LMO
    Xi_radius: float

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)


@dataclass(frozen=True)
class EtaHit:
    """Vertex of H minimizing a linear form, with its images under P, Q."""

    atoms: tuple               # per-block atom keys (ColumnHit.key)
    p_vec: np.ndarray          # P eta
    q_vec: np.ndarray          # Q eta
    value: float               # attained minimum of the queried linear form
    f_dot: float               # <f, eta>


class _SkewSystem:
    """P and Q of a skew VI whose domain H is a product of simplices over
    the columns of per-block column oracles D_b, acting only through those
    columns.  For a vertex eta of H with block columns D_b e_j stacked
    into d (block b's rows at `slices[b]`), P eta = A d and Q eta = B d
    for the stacked K x R maps A, B.  A block's offset (a
    DenseMatrixOracle's) is -f_b, f the VI's linear term.  So the vertex
    minimizing <f - P^T x1 - Q^T x2, .> is one column search per block,
    on the rows of y = A^T x1 + B^T x2, each maximizing <y_b, D_b e_j> - f_bj.
    """

    def __init__(self, blocks, A, B):
        self.blocks, self.A, self.B = list(blocks), A, B
        self.K = A.shape[0]
        rows = np.cumsum([0] + [D.n_rows for D in self.blocks])
        self.slices = [slice(lo, hi) for lo, hi in zip(rows[:-1], rows[1:])]
        self._f = [(b, -D.offset) for b, D in enumerate(self.blocks)
                   if getattr(D, "offset", None) is not None]

    def eta_argmin(self, x1, x2):
        y = self.A.T.dot(x1) + self.B.T.dot(x2)
        d = np.empty(len(y))
        atoms, value = [], 0.0
        for D, sl in zip(self.blocks, self.slices):
            hit = D.col_extreme(y[sl], "max")
            value -= hit.value
            d[sl] = hit.column
            atoms.append(hit.key)
        atoms = tuple(atoms)
        return EtaHit(atoms, self.A.dot(d), self.B.dot(d), value, self.f_dot_atoms(atoms))

    def apply_P_atoms(self, atoms):
        return self.A.dot(np.concatenate([D.column(a) for D, a in zip(self.blocks, atoms)]))

    def f_dot_atoms(self, atoms):
        return float(sum(f[atoms[b][0]] for b, f in self._f))

    def xi_radii(self):
        """Bounds on |Q eta| and |P eta| over H: per block the largest column
        norm of B_b D_b and A_b D_b, or for a block that is not dense the
        spectral norms of B_b and A_b times its oracle's column-norm bound."""
        r1 = r2 = 0.0
        for D, sl in zip(self.blocks, self.slices):
            A, B = self.A[:, sl], self.B[:, sl]
            if hasattr(D, "matrix"):
                r1 += float(np.linalg.norm(B @ D.matrix, axis=0).max())
                r2 += float(np.linalg.norm(A @ D.matrix, axis=0).max())
            else:
                bound = D.column_norm_bound()
                r1 += float(np.linalg.norm(B, 2)) * bound
                r2 += float(np.linalg.norm(A, 2)) * bound
        return r1, r2

    def _dense_blocks(self):
        """(matrices, column offsets) of the blocks.  Only a dense block's atom
        (j,) names a coordinate j of H, so any other block raises."""
        for b, D in enumerate(self.blocks):
            if not hasattr(D, "matrix"):
                raise ValueError(f"block {b} is a {type(D).__name__}, not a dense matrix: "
                                 "its columns have no coordinates in H")
        mats = [D.matrix for D in self.blocks]
        return mats, np.cumsum([0] + [m.shape[1] for m in mats])

    def eta_dense(self, atoms_weights):
        """Weighted atoms -> dense vector in R^N (desk scale, dense blocks)."""
        _, cols = self._dense_blocks()
        eta = np.zeros(cols[-1])
        for atoms, weight in atoms_weights.items():
            for lo, (j,) in zip(cols, atoms):
                eta[lo + j] += weight
        return eta

    def dense_PQ(self):
        """Materialized P, Q and f, f None without offsets (desk scale, dense blocks)."""
        mats, cols = self._dense_blocks()
        stacked = np.zeros((self.A.shape[1], cols[-1]))
        for m, sl, lo in zip(mats, self.slices, cols):  # block diagonal
            stacked[sl, lo:lo + m.shape[1]] = m
        f = None
        if self._f:
            f = np.zeros(cols[-1])
            for b, f_b in self._f:
                f[cols[b]:cols[b + 1]] = f_b
        return self.A @ stacked, self.B @ stacked, f

    def h_domain(self):
        return Product([Simplex(D.count_columns()) for D in self.blocks])


class DenseSkewSystem(_SkewSystem):
    """Explicit K x N matrices P, Q with H a product of simplices whose
    blocks partition the column index range: block b's oracle is the
    stacked [P_b; Q_b] with offset -f_b, and A, B select its P and Q rows."""

    def __init__(self, P, Q, f=None, block_sizes=None):
        P = np.atleast_2d(np.asarray(P, dtype=float))
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        if P.shape != Q.shape:
            raise ValueError("P and Q must have equal shapes")
        K, N = P.shape
        sizes = tuple(block_sizes) if block_sizes else (N,)
        if sum(sizes) != N:
            raise ValueError("block sizes must partition the columns")
        f = None if f is None else np.asarray(f, dtype=float)
        if f is not None and f.shape != (N,):
            raise ValueError(f"f has shape {f.shape}, expected one entry per column ({N})")
        cols = np.cumsum((0,) + sizes)
        blocks = [DenseMatrixOracle(np.vstack([P[:, lo:hi], Q[:, lo:hi]]),
                                    offset=None if f is None else -f[lo:hi])
                  for lo, hi in zip(cols[:-1], cols[1:])]
        eye, zero = np.eye(K), np.zeros((K, K))
        super().__init__(blocks, np.hstack([eye, zero] * len(sizes)),
                         np.hstack([zero, eye] * len(sizes)))

    # each system class holds its own eta_argmin, which benchmark tracing wraps
    eta_argmin = _SkewSystem.eta_argmin


@dataclass
class NashSpec:
    """L players with pairwise zero-sum couplings.

    D[l] encodes player l's pure strategies (m_l x N_l simple matrix);
    M[l][lp] are the m_l x m_lp loss matrices with M[l][l] = 0 and
    M[l][lp] = -M[lp][l]^T (checked entrywise); g[l] are optional linear
    loss terms (the part hitting player l's own strategy), one entry per
    column of a dense D[l], desk scale.  With g, each D[l] is replaced by
    a dense oracle carrying the offset -g[l], so that every player's best
    reply is one column search maximizing <y_l, D_l e_j> - g_lj.

    After validation the blocks are stacked once: C = [M[l][lp]] is the
    K x K coupling matrix (K = sum m_l), block_rows[l] = m_l and
    row_slices[l] selects player l's rows (and columns) of C.
    """

    D: list
    M: list
    g: list | None = None

    def __post_init__(self):
        L = len(self.D)
        if len(self.M) != L or any(len(row) != L for row in self.M):
            raise ValueError("M must be an L x L table of matrices")
        self.M = [[np.atleast_2d(np.asarray(m, dtype=float)) for m in row] for row in self.M]
        rows = [d.n_rows for d in self.D]
        for l in range(L):
            for lp in range(L):
                if self.M[l][lp].shape != (rows[l], rows[lp]):
                    raise ValueError(f"M[{l}][{lp}] has shape {self.M[l][lp].shape}, "
                                     f"expected {(rows[l], rows[lp])} from the encoders")
        for l in range(L):
            if not np.all(np.abs(self.M[l][l]) <= 1e-12):
                raise ValueError(f"diagonal loss matrix M[{l}][{l}] must be zero")
            for lp in range(L):
                if np.any(np.abs(self.M[l][lp] + self.M[lp][l].T) > 1e-12):
                    raise ValueError(f"M[{l}][{lp}] != -M[{lp}][{l}]^T")
        if self.g is not None:
            if len(self.g) != L:
                raise ValueError(f"g needs one entry per player, got {len(self.g)}")
            self.g = [np.asarray(v, dtype=float) for v in self.g]
            for l, v in enumerate(self.g):
                if not hasattr(self.D[l], "matrix"):
                    raise ValueError(f"g[{l}] needs a dense encoder D[{l}], whose columns "
                                     "it indexes")
                if v.shape != (self.D[l].count_columns(),):
                    raise ValueError(f"g[{l}] has shape {v.shape}, expected one entry "
                                     f"per column of D[{l}] ({self.D[l].count_columns()})")
            self.D = [DenseMatrixOracle(d.matrix, offset=-v) for d, v in zip(self.D, self.g)]
        self.block_rows = rows
        offsets = np.cumsum([0] + rows)
        self.row_slices = [slice(offsets[l], offsets[l + 1]) for l in range(L)]
        self.C = np.block(self.M)

    @property
    def L(self):
        return len(self.D)


class NashSkewSystem(_SkewSystem):
    """P, Q induced by a NashSpec, never materialized: Q = (1/2)
    blockdiag(D_l) and P = C blockdiag(D_l), C the spec's stacked
    coupling matrix.  The blocks are the players' encoders (offset -g_l),
    A = C and B = I/2, so that player l's reply maximizes
    <y_l, D_l e_j> - g_lj on the rows of y = C^T x1 + x2 / 2."""

    def __init__(self, spec):
        super().__init__(spec.D, spec.C, 0.5 * np.eye(spec.C.shape[0]))

    # each system class holds its own eta_argmin, which benchmark tracing wraps
    eta_argmin = _SkewSystem.eta_argmin


@dataclass
class SkewViSpec:
    """VI with operator F(eta) = 2 Q^T P eta + f, Q^T P skew-symmetric."""

    system: object             # DenseSkewSystem or NashSkewSystem
    Xi1_radius: float
    Xi2_radius: float

    @property
    def K(self):
        return self.system.K

    def primal_domain(self):
        return Product([
            Ball(np.zeros(self.K), self.Xi1_radius),
            Ball(np.zeros(self.K), self.Xi2_radius),
        ])


@dataclass
class ViSolution(SolveResult):
    """The run of a VI, with the point of H its certificate transfers;
    eps_bound is the certified residual `cert.residual`, eps_exact the
    closing round's gap of that point (see eps_vi_exact): the exact dual
    gap for a skew VI, the gap function for an affine one, which is the
    dual gap when S is skew and an upper bound on it otherwise."""

    eta_atoms: dict | None     # weighted product-vertex atoms (skew path)
    eta_vector: np.ndarray | None  # dense recovered point (affine path)
    eps_bound: float
    eps_exact: float


def build_affine_vi_primal(spec):
    """Primal field Psi(xi) = S^T (xi - eta_bar(xi)) with
    eta_bar(xi) = argmin_{eta in H} <S xi + s, eta>; one LMO call each."""

    def fn(xi):
        eta_bar, _ = spec.H.lmo(spec.apply_S(xi) + spec.s)
        return spec.apply_St(xi - eta_bar), {"eta": eta_bar}

    return FieldOracle(fn)


def build_skew_vi_primal(spec):
    """Primal field Psi(xi1, xi2) = [xi2 + P eta_bar; -xi1 + Q eta_bar]
    with eta_bar minimizing <f - P^T xi1 - Q^T xi2, eta> over H."""
    k = spec.K

    def fn(xi):
        hit = spec.system.eta_argmin(xi[:k], xi[k:])
        field = np.empty(2 * k)
        np.add(xi[k:], hit.p_vec, out=field[:k])
        np.subtract(hit.q_vec, xi[:k], out=field[k:])  # -xi1 + Q eta, the same bits
        return field, hit

    return FieldOracle(fn)


def nash_to_skew(spec):
    """Skew-symmetric VI whose weak solutions are the Nash equilibria.

    Q = (1/2) blockdiag(D_1..D_L); P has blocks M[lp][l] D_l.  The
    skewness of Q^T P follows from the pairwise antisymmetry of M.
    """
    system = NashSkewSystem(spec)
    r1, r2 = system.xi_radii()
    return SkewViSpec(system=system, Xi1_radius=max(r1, 1e-12), Xi2_radius=max(r2, 1e-12))


def _skew_dual_gap(spec, agg_p, f_dot):
    """(gap, scale): the dual gap of eta from P eta and <f, eta>, and the larger
    magnitude of the two terms it subtracts; skewness kills the quadratic
    term: eps_VI = <f, eta> - min <eta', F(eta)>, F(eta) = 2 Q^T P eta + f."""
    hit = spec.system.eta_argmin(np.zeros(spec.K), -2.0 * agg_p)
    return f_dot - hit.value, max(abs(f_dot), abs(hit.value))


def _skew_eps_exact(spec, atom_terms):
    """(gap, scale) as in _skew_dual_gap of the weighted atoms
    {key: (weight, P eta, <f, eta>)}: a round reads each atom's terms off
    the run's payloads (_payload_terms), eps_vi_exact from the oracles
    (_oracle_terms)."""
    agg_p = np.zeros(spec.K)
    f_dot = 0.0
    for weight, p_vec, f_atom in atom_terms.values():
        agg_p += weight * p_vec
        f_dot += weight * f_atom
    return _skew_dual_gap(spec, agg_p, f_dot)


def _oracle_terms(spec, atoms_weights):
    """{key: (weight, P eta, <f, eta>)}, each atom's column rebuilt by its oracle."""
    system = spec.system
    return {atoms: (weight, system.apply_P_atoms(atoms), system.f_dot_atoms(atoms))
            for atoms, weight in atoms_weights.items()}


def _payload_terms(cert, payloads):
    """{key: (weight, P eta, <f, eta>)} of the certificate's atoms, read off
    the EtaHit payloads that the field evaluation stored."""
    hits = {payloads[i].atoms: payloads[i] for i in np.flatnonzero(cert.weights > 0.0)}
    return {atoms: (weight, hits[atoms].p_vec, hits[atoms].f_dot)
            for atoms, weight in _collect_atoms(cert, payloads).items()}


def solve_vi(spec, solver="ellipsoid", config=None):
    """Run the primal solver and transfer the certificate to H.

    Returns a ViSolution whose eps_bound is the certified primal residual
    and whose eps_exact is the gap of the recovered point (see
    eps_vi_exact), read off the closing round; every round checks its gap
    against its residual.  A skew round reads P eta and
    <f, eta> of each atom from the run's payloads and makes one oracle
    call; eps_vi_exact, which rebuilds the columns, is the independent
    check of that gap.
    """
    skew = isinstance(spec, SkewViSpec)
    if skew:
        primal, domain = build_skew_vi_primal(spec), spec.primal_domain()
        collect, terms, exact = _collect_atoms, _payload_terms, _skew_eps_exact
    else:
        primal, domain = build_affine_vi_primal(spec), Ball(np.zeros(spec.H.dim), spec.Xi_radius)
        collect = terms = _collect_eta
        exact = _affine_eps_exact

    def round_fields(protocol, cert, payloads):
        gap, scale = exact(spec, terms(cert, payloads))
        return {"gap": gap, "scale": scale}

    # looked up at call time, so that wrappers installed on this module apply
    runs = {"ellipsoid": ellipsoid_run, "md": md_run}
    if solver not in runs:
        raise ValueError(f"unknown solver {solver!r}")
    run = runs[solver](primal, domain, config, round_fields)
    eta = collect(run.cert, run.payloads)
    return ViSolution(**vars(run), eta_atoms=eta if skew else None,
                      eta_vector=None if skew else eta, eps_bound=run.cert.residual,
                      eps_exact=run.rounds[-1]["gap"])


def _collect_atoms(cert, payloads):
    out = {}
    for i in np.flatnonzero(cert.weights > 0.0):
        out[payloads[i].atoms] = out.get(payloads[i].atoms, 0.0) + cert.weights[i]
    return out


def _collect_eta(cert, payloads):
    return sum(cert.weights[i] * payloads[i]["eta"] for i in np.flatnonzero(cert.weights > 0.0))


def _affine_eps_exact(spec, eta):
    """(gap, scale) as in _skew_dual_gap: the gap function
    <F(eta), eta> - min_H <F(eta), .> with F(eta) = S eta + s, from one LMO
    call.  By monotonicity <F(eta'), eta - eta'> <= <F(eta), eta - eta'>, so
    it bounds the dual gap from above, and equals it when S is skew."""
    field = spec.apply_S(eta) + spec.s
    _, low = spec.H.lmo(field)
    at_eta = float(field.dot(eta))
    return at_eta - low, max(abs(at_eta), abs(low))


def eps_vi_exact(spec, eta):
    """Gap of eta from one oracle or LMO call.

    A skew spec takes weighted atoms, or a dense vector when its blocks
    are dense, and returns the exact dual gap sup_{eta'} <F(eta'), eta - eta'>.
    An affine spec takes a dense vector and returns the gap function
    <F(eta), eta> - min_H <F(eta), .>: the dual gap when S is skew, an
    upper bound on it for any monotone S.
    """
    if not isinstance(spec, SkewViSpec):
        return _affine_eps_exact(spec, np.asarray(eta, dtype=float))[0]
    if isinstance(eta, dict):
        return _skew_eps_exact(spec, _oracle_terms(spec, eta))[0]
    P, _, f = spec.system.dense_PQ()
    eta = np.asarray(eta, dtype=float)
    return _skew_dual_gap(spec, P.dot(eta), 0.0 if f is None else float(f.dot(eta)))[0]


def eps_nash(spec, eta_blocks):
    """Sum over players of the incentive to deviate.

    eta_blocks: one entry per player, either a dense strategy vector or a
    dict {key: weight} keyed as `ColumnHit.key` (a DP's start state and
    action sequence, elsewhere the action sequence).  Uses one column
    search per player.
    """
    L = spec.L
    if len(eta_blocks) != L:
        raise ValueError(f"expected {L} strategy blocks, got {len(eta_blocks)}")
    encoded = []
    for l in range(L):
        blk = eta_blocks[l]
        if isinstance(blk, dict):
            encoded.append(sum(w * spec.D[l].column(a) for a, w in blk.items()))
        else:
            encoded.append(spec.D[l].matrix @ np.asarray(blk, dtype=float))
    encoded = np.concatenate(encoded)
    losses = spec.C @ encoded  # row block l: gradient of player l's loss in D_l eta_l
    total = 0.0
    for l, sl in enumerate(spec.row_slices):
        y = losses[sl]
        own = float(encoded[sl] @ y)
        if spec.g is not None:
            blk = eta_blocks[l]
            if isinstance(blk, dict):
                own += float(sum(w * spec.g[l][a[0]] for a, w in blk.items()))
            else:
                own += float(spec.g[l] @ np.asarray(blk, dtype=float))
        best = -spec.D[l].col_extreme(-y, "max").value  # min_j <y, D_l e_j> + g_lj
        total += own - best
    return total


def nash_spec_from_json(obj):
    """NashSpec from JSON: dense M matrices, D blocks dense or knapsack."""
    obj = json_object(obj)
    encoders = [matrix_side(d) for d in obj["D"]]
    g = None
    if obj.get("g") is not None:
        g = [np.asarray(v, dtype=float) for v in obj["g"]]
    return NashSpec(D=encoders, M=obj["M"], g=g)


def skew_master_protocol(spec, protocol, payloads):
    """Lift a primal skew protocol to Theta = Xi1 x Xi2 x H (desk scale).

    Requires dense blocks; used to check the residual-transfer chain
    Res(J | Theta) <= Res(I | Xi)."""
    system = spec.system
    P, Q, f = system.dense_PQ()
    k = spec.K
    points, fields = [], []
    for i in range(len(protocol)):
        xi1 = protocol.points[i][:k]
        xi2 = protocol.points[i][k:]
        eta = system.eta_dense({payloads[i].atoms: 1.0})
        phi_eta = -(P.T @ xi1) - (Q.T @ xi2)
        if f is not None:
            phi_eta = phi_eta + f
        points.append(np.concatenate([xi1, xi2, eta]))
        fields.append(np.concatenate([protocol.field_values[i], phi_eta]))
    big = ExecutionProtocol.from_lists(points, fields, protocol.step_ids)
    domain = Product([
        Ball(np.zeros(k), spec.Xi1_radius),
        Ball(np.zeros(k), spec.Xi2_radius),
        system.h_domain(),
    ])
    return big, domain
