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

import math
import numbers
from dataclasses import dataclass

import numpy as np

# residual_ball_product is unused here: benchmark tracing wraps this module's name
from .certificates import ExecutionProtocol, residual_ball_product  # noqa: F401
from .domains import Ball, Product, Simplex
from .oracles import DenseMatrixOracle, entries, integers, matrix_side, reals
from .solvers import (
    FieldOracle,
    SolveResult,
    SolverConfig,
    _Rejected,
    _restricted_lp,
    _Rounds,
    ellipsoid_run,
    md_run,
)

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
    """VI with operator F(eta) = S eta + s on an LMO-represented H, solved in
    the primal ball of radius Xi_radius.  S (N x N) and s (N), N = H.dim,
    go through `reals`.  A certificate bounds nothing for a field that is
    not monotone, so the least eigenvalue of (S + S^T)/2 may fall below 0
    by at most 1e-12 ||S||_F (rounding), and ValueError names it otherwise.
    Nor does a ball that misses part of H: Xi_radius is at least H's
    enclosing radius, up to rounding, when H implements `enclosing_radius`.
    For a domain known by its LMO alone, choosing a radius that contains
    it is the caller's; on every domain Xi_radius is finite and positive."""

    S: np.ndarray
    s: np.ndarray
    H: object                  # Domain with an LMO
    Xi_radius: float

    def __post_init__(self):
        n = self.H.dim
        self.S, self.s = reals(self.S, "S", 2), reals(self.s, "s")
        for name, shape, want in (("S", self.S.shape, (n, n)), ("s", self.s.shape, (n,))):
            if shape != want:
                raise ValueError(f"{name} has shape {shape}, not {want} for H of dimension {n}")
        low = float(np.linalg.eigvalsh(0.5 * (self.S + self.S.T))[0])
        if low < -1e-12 * np.linalg.norm(self.S):
            raise ValueError(f"S is not monotone: its symmetric part has the eigenvalue {low}")
        if isinstance(self.Xi_radius, bool) or not isinstance(self.Xi_radius, numbers.Real):
            raise ValueError(f"Xi_radius must be a real number, not {self.Xi_radius!r}")
        self.Xi_radius = float(self.Xi_radius)
        if not (math.isfinite(self.Xi_radius) and self.Xi_radius > 0.0):
            raise ValueError(f"Xi_radius {self.Xi_radius} is not finite and positive")
        try:
            radius = self.H.enclosing_radius()
        except NotImplementedError:
            return
        # relative slack: the same radius computed another way may round a few ulps short
        if self.Xi_radius < radius * (1.0 - 1e-12):
            raise ValueError(f"Xi_radius {self.Xi_radius} is below the enclosing radius "
                             f"{radius} of H")


class EtaHit:
    """Vertex of H minimizing a linear form, a plain record: per-block atom
    keys (ColumnHit.key), p_vec = P eta, q_vec = Q eta, the attained minimum
    value, f_dot = <f, eta> (0.0 when no block has an offset) and the block
    columns D_b e_j stacked into one vector d (block b's at `slices[b]`)."""

    __slots__ = ("atoms", "p_vec", "q_vec", "value", "f_dot", "columns")

    def __init__(self, atoms, p_vec, q_vec, value, f_dot, columns):
        self.atoms, self.p_vec, self.q_vec, self.value, self.f_dot = (
            atoms, p_vec, q_vec, value, f_dot)
        self.columns = columns


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
        self.f_bound = sum(float(np.abs(f).max()) for _, f in self._f)  # of |<f, eta>|

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
        return EtaHit(atoms, self.A.dot(d), self.B.dot(d), value, self.f_dot_atoms(atoms), d)

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
    stacked [P_b; Q_b] with offset -f_b, and A, B select its P and Q rows.
    P, Q and f go through `reals`, the block sizes through `integers`."""

    def __init__(self, P, Q, f=None, block_sizes=None):
        P, Q = reals(P, "P", 2), reals(Q, "Q", 2)
        if P.shape != Q.shape:
            raise ValueError("P and Q must have equal shapes")
        K, N = P.shape
        sizes = tuple(integers(block_sizes, "block_sizes").tolist()) if block_sizes else (N,)
        if sum(sizes) != N:
            raise ValueError("block sizes must partition the columns")
        f = None if f is None else reals(f, "f")
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
    reply is one column search maximizing <y_l, D_l e_j> - g_lj.  D, M,
    each row of M and g must be lists with one entry per player; the
    matrices M[l][lp] and vectors g[l] go through `reals`.

    After validation the blocks are stacked once: C = [M[l][lp]] is the
    K x K coupling matrix (K = sum m_l) and row_slices[l] selects player
    l's rows (and columns) of C.
    """

    D: list
    M: list
    g: list | None = None

    def __post_init__(self):
        self.D = list(entries(self.D, "D"))
        L = len(self.D)
        self.M = [[reals(m, f"M[{l}][{lp}]", 2)
                   for lp, m in enumerate(entries(row, f"M[{l}]", L))]
                  for l, row in enumerate(entries(self.M, "M", L))]
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
            g = entries(self.g, "g")
            if len(g) != L:
                raise ValueError(f"g needs one entry per player, got {len(g)}")
            self.g = [reals(v, f"g[{l}]") for l, v in enumerate(g)]
            for l, v in enumerate(self.g):
                if not hasattr(self.D[l], "matrix"):
                    raise ValueError(f"g[{l}] needs a dense encoder D[{l}], whose columns "
                                     "it indexes")
                if v.shape != (self.D[l].count_columns(),):
                    raise ValueError(f"g[{l}] has shape {v.shape}, expected one entry "
                                     f"per column of D[{l}] ({self.D[l].count_columns()})")
            self.D = [DenseMatrixOracle(d.matrix, offset=-v) for d, v in zip(self.D, self.g)]
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
    """The run of a VI, with the point of H that its closing round
    returned; eps_exact is that round's gap of the point (see
    eps_vi_exact): the exact dual gap for a skew VI, the gap function for
    an affine one, which is the dual gap when S is skew and an upper bound
    on it otherwise.  An affine VI's point is the one its certificate
    transfers.  A skew VI's atoms are the certificate's or the restricted
    master's equilibrium (see solve_vi).  eps_bound is eps_exact plus the
    rounding allowance rho (see _affine_allowance and _skew_allowance),
    for the certificate's atoms at most `cert.residual` but never below
    eps_exact."""

    eta_atoms: dict | None     # weighted product-vertex atoms (skew path)
    eta_vector: np.ndarray | None  # dense recovered point (affine path)
    eps_bound: float
    eps_exact: float


def build_affine_vi_primal(spec):
    """Primal field Psi(xi) = S^T (xi - eta_bar(xi)) with
    eta_bar(xi) = argmin_{eta in H} <S xi + s, eta>; one LMO call each."""

    def fn(xi):
        eta_bar, _ = spec.H.lmo(spec.S @ xi + spec.s)
        return spec.S.T @ (xi - eta_bar), {"eta": eta_bar}

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
    """(gap, scale, reply): the dual gap of eta from P eta and <f, eta>, the
    larger magnitude of the two terms it subtracts, and the EtaHit of the
    best reply eta' that attains it; skewness kills the quadratic term:
    eps_VI = <f, eta> - min <eta', F(eta)>, F(eta) = 2 Q^T P eta + f.
    solve_vi keeps the reply to each restricted equilibrium, which joins
    every later restricted master."""
    hit = spec.system.eta_argmin(np.zeros(spec.K), -2.0 * agg_p)
    return f_dot - hit.value, max(abs(f_dot), abs(hit.value)), hit


def _skew_eps_exact(spec, atom_terms):
    """(gap, scale, reply) as in _skew_dual_gap of the weighted atoms
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


def _skew_allowance(spec, terms):
    """rho, a first-order bound on the rounding error of the gap that
    _skew_eps_exact computes from `terms` {key: (weight, P eta, <f, eta>)}:
    rho = 2 (n + s) 2^-53 (2 Xi1 sum_k w_k ||P eta_k|| + 2 F), with n the
    larger of K and the stacked block rows, s the atoms summed and F the
    sum over blocks of max |f_bj|.  Xi1 bounds every ||Q eta'||, so
    2 Xi1 ||P eta|| bounds each |<2 Q^T P eta, eta'>| that the reply's search
    scores; F bounds |<f, eta>| for the atoms and for the reply."""
    system = spec.system
    n = max(system.K, system.A.shape[1]) + len(terms)
    mass = sum(w * math.sqrt(p.dot(p)) for w, p, _ in terms.values())
    return 2.0 * n * 2.0 ** -53 * (2.0 * spec.Xi1_radius * mass + 2.0 * system.f_bound)


def _coupling(marginals):
    """Joint atoms {(key_1, ..., key_L): weight} whose block-b marginal is
    marginals[b] {key: weight}, by the north-west corner rule on the
    blocks' cumulative weights: at most sum_b n_b - L + 1 atoms."""
    cums = [np.cumsum(list(m.values())) for m in marginals]
    cums = [c / c[-1] for c in cums]  # each ends at exactly 1
    cuts = np.unique(np.concatenate(cums))
    picks = [np.searchsorted(c, cuts).tolist() for c in cums]  # first j with c[j] >= cut
    joint = zip(*([keys[j] for j in i] for keys, i in zip(map(list, marginals), picks)))
    return dict(zip(joint, np.diff(cuts, prepend=0.0).tolist()))


def _restricted_terms(spec, payloads):
    """Equilibrium of the skew VI restricted to the distinct per-block pure
    strategies of the EtaHit payloads (a run's payloads and its rounds'
    best replies), as terms {key: (weight, P eta, <f, eta>)} of at most
    sum_b n_b joint atoms (see _coupling), or None where HiGHS rejects the
    LP.  With the block images p_bj = A_b D_b e_j and q_bj = B_b D_b e_j
    of block b's strategy j, the LP (_restricted_lp) minimizes <f, eta> +
    sum_b v_b over one simplex per block and x = P eta, subject to
    -v_b <= 2 <q_bj, x> + f_bj = F(eta)_bj: its optimum is the least
    restricted dual gap, 0 for a skew F.  For Nash the blocks are the
    players and -v_b a player's best restricted reply.  Each joint atom's
    P eta is rebuilt from the stored columns as eps_vi_exact rebuilds it."""
    system = spec.system
    cols = [{} for _ in system.blocks]
    for atoms, hit in {hit.atoms: hit for hit in payloads}.items():
        for b, key in enumerate(atoms):
            if key not in cols[b]:
                cols[b][key] = hit.columns[system.slices[b]]
    f = dict(system._f)
    images, normals, blocks, costs = [], [], [], []
    for b, (sl, c) in enumerate(zip(system.slices, cols)):
        d = np.array(list(c.values())).T
        images.append(system.A[:, sl].dot(d))
        normals.append(system.B[:, sl].dot(d))
        blocks.append(np.full(len(c), b, dtype=np.intp))
        costs.append(np.zeros(len(c)) if b not in f else f[b][[k[0] for k in c]])
    blocks, costs = np.concatenate(blocks), np.concatenate(costs)
    try:
        eta, _ = _restricted_lp(np.hstack(images), blocks, -2.0 * np.hstack(normals).T,
                                blocks, costs, costs)
    except _Rejected:
        return None
    parts = np.split(eta, np.cumsum([len(c) for c in cols])[:-1])
    marginals = [{k: w for k, w in zip(c, part.tolist()) if w > 0.0}
                 for c, part in zip(cols, parts)]
    return {atoms: (w, system.A.dot(np.concatenate([c[k] for c, k in zip(cols, atoms)])),
                    system.f_dot_atoms(atoms))
            for atoms, w in _coupling(marginals).items()}


def _skew_evaluated(spec, terms):
    """((eta atoms, gap, rho, fields), reply) of the weighted atoms `terms`:
    the reply is the EtaHit of their best reply (see _skew_dual_gap)."""
    gap, scale, reply = _skew_eps_exact(spec, terms)
    return ({k: w for k, (w, _, _) in terms.items()}, gap, _skew_allowance(spec, terms),
            {"scale": scale}), reply


def solve_vi(spec, solver="ellipsoid", config=None):
    """Run the primal solver and transfer the certificate to H.

    Returns a ViSolution whose eps_exact is the gap of the returned point
    (see eps_vi_exact), read off the closing round; every round checks the
    gap of its certificate's point against its residual, unless the gap
    is an affine VI's gap function for a non-skew S, which the residual
    need not bound (the round records checked False).  Every round
    returns its atoms by solvers._Rounds: the certificate's are bounded by
    max(min(cert.residual, gap + rho), gap), a restricted equilibrium's by
    gap + rho, rho from _affine_allowance or _skew_allowance.  An affine
    round returns the certificate's point, whose gap function takes one
    LMO call.  A skew round reads P eta and <f, eta> of each atom from the
    run's payloads and makes one oracle call; it also solves the
    restricted master, the VI over the distinct per-block strategies of
    the run's payloads and of the best replies found so far
    (_restricted_terms), and evaluates its equilibrium the same way, whose
    one oracle call finds the best reply (_skew_dual_gap), which the run
    keeps for its later rounds.  eps_vi_exact, which rebuilds the columns,
    is the independent check of the returned gap.  Early rounds (see
    solvers._Run) let the gap of a round's atoms stop the run before the
    first certificate LP.
    """
    skew = isinstance(spec, SkewViSpec)
    threshold = (config or SolverConfig()).gap_threshold
    if skew:
        primal, domain = build_skew_vi_primal(spec), spec.primal_domain()
        rounds = _Rounds(threshold,
                         lambda cert, payloads: _skew_evaluated(
                             spec, _payload_terms(cert, payloads))[0],
                         lambda pool: _restricted_terms(spec, pool),
                         lambda terms: _skew_evaluated(spec, terms),
                         lambda hit: hit.atoms)
    else:
        primal, domain = build_affine_vi_primal(spec), Ball(np.zeros(spec.H.dim), spec.Xi_radius)
        # an affine VI's gap function is its dual gap only for a skew S; for another
        # monotone S the residual need not bound it, so the run does not check it
        checked = not (spec.S + spec.S.T).any()
        rounds = _Rounds(threshold, lambda cert, payloads: _affine_certified(
            spec, _collect_eta(cert, payloads), checked))

    # looked up at call time, so that wrappers installed on this module apply
    runs = {"ellipsoid": ellipsoid_run, "md": md_run}
    if solver not in runs:
        raise ValueError(f"unknown solver {solver!r}")
    run = runs[solver](primal, domain, config, rounds)
    last = run.rounds[-1]
    return ViSolution(**vars(run), eta_atoms=rounds.atoms if skew else None,
                      eta_vector=None if skew else rounds.atoms,
                      eps_bound=last["bound"], eps_exact=last["gap"])


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
    field = spec.S @ eta + spec.s
    _, low = spec.H.lmo(field)
    at_eta = float(field.dot(eta))
    return at_eta - low, max(abs(at_eta), abs(low))


def _affine_allowance(spec, eta):
    """rho, a first-order bound on the rounding error of the gap function
    that _affine_eps_exact computes at eta: rho = 2 (N + 2) 2^-53 c
    (||eta|| + Xi_radius), N = H.dim and c = || |S| |eta| || + ||s||.  The
    computed field S eta + s, of norm at most c, is off by at most
    (N + 1) 2^-53 c, which moves <F, eta> and min_H <F, .> by its norm
    times ||eta|| and Xi_radius (which bounds H); the two dot products
    round by at most N 2^-53 c ||eta|| and N 2^-53 c Xi_radius.  That is
    (2N + 1) 2^-53 c (||eta|| + Xi_radius); the rest of 2 (N + 2) covers
    the subtraction and the second-order terms."""
    norm = np.linalg.norm
    c = float(norm(np.abs(spec.S).dot(np.abs(eta))) + norm(spec.s))
    return 2.0 * (spec.H.dim + 2) * 2.0 ** -53 * c * (float(norm(eta)) + spec.Xi_radius)


def _affine_certified(spec, eta, checked):
    """(eta, gap, rho, {"scale", "checked"}) of an affine round's point."""
    gap, scale = _affine_eps_exact(spec, eta)
    return eta, gap, _affine_allowance(spec, eta), {"scale": scale, "checked": checked}


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
    action sequence, elsewhere the action sequence).  A dense encoder's
    offset -g_l, its own or the spec's g[l], enters the player's own loss
    as in the best reply.  Uses one column search per player.
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
        offset = getattr(spec.D[l], "offset", None)
        if offset is not None:  # the encoder's own, or -g[l] from the spec
            g, blk = -offset, eta_blocks[l]
            if isinstance(blk, dict):
                own += float(sum(w * g[a[0]] for a, w in blk.items()))
            else:
                own += float(g @ np.asarray(blk, dtype=float))
        best = -spec.D[l].col_extreme(-y, "max").value  # min_j <y, D_l e_j> + g_lj
        total += own - best
    return total


def nash_spec_from_json(obj):
    """NashSpec from a parsed JSON object {"D", "M", "g" (optional)}: D
    blocks dense or knapsack (see `matrix_side`), dense M matrices; the
    spec converts and checks the fields."""
    return NashSpec(D=[matrix_side(d, f"D[{l}]") for l, d in enumerate(entries(obj["D"], "D"))],
                    M=obj["M"], g=obj.get("g"))


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
