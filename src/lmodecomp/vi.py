"""Decomposition of affine monotone and skew-symmetric variational
inequalities on LMO-represented domains, and the Nash-equilibrium front
end with pairwise zero-sum interactions.

The VI of interest lives on a huge domain H; a small primal VI over a
ball (or product of two balls) is solved instead, and the certificate
transfers into weighted atoms on H whose dual gap is bounded by the
primal residual.  For skew-symmetric operators the dual gap of the
recovered point is computed exactly with a single oracle call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# residual_ball_product is unused here: benchmark tracing wraps this module's name
from .certificates import ExecutionProtocol, residual_ball_product  # noqa: F401
from .domains import Ball, FiniteAtoms, Product, Simplex, lmo_argmin
from .oracles import DenseMatrixOracle, KnapsackOracle, col_extreme, knapsack_from_json
from .solvers import FieldOracle, ellipsoid_run, md_run

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

    atoms: tuple               # per-block action sequences
    p_vec: np.ndarray          # P eta
    q_vec: np.ndarray          # Q eta
    value: float               # attained minimum of the queried linear form
    f_dot: float               # <f, eta>


class DenseSkewSystem:
    """Explicit K x N matrices P, Q with H a product of simplices whose
    blocks partition the column index range."""

    def __init__(self, P, Q, f=None, block_sizes=None):
        self.P = np.atleast_2d(np.asarray(P, dtype=float))
        self.Q = np.atleast_2d(np.asarray(Q, dtype=float))
        if self.P.shape != self.Q.shape:
            raise ValueError("P and Q must have equal shapes")
        self.K, self.N = self.P.shape
        self.f = None if f is None else np.asarray(f, dtype=float)
        self.block_sizes = tuple(block_sizes) if block_sizes else (self.N,)
        if sum(self.block_sizes) != self.N:
            raise ValueError("block sizes must partition the columns")
        self.offsets = np.cumsum([0] + list(self.block_sizes))

    def eta_argmin(self, x1, x2):
        query = -(self.P.T @ x1) - (self.Q.T @ x2)
        if self.f is not None:
            query = query + self.f
        atoms, value, f_dot = [], 0.0, 0.0
        p_vec = np.zeros(self.K)
        q_vec = np.zeros(self.K)
        for b in range(len(self.block_sizes)):
            lo, hi = self.offsets[b], self.offsets[b + 1]
            j = int(np.argmin(query[lo:hi]))
            atoms.append((j,))
            value += float(query[lo + j])
            p_vec += self.P[:, lo + j]
            q_vec += self.Q[:, lo + j]
            if self.f is not None:
                f_dot += float(self.f[lo + j])
        return EtaHit(tuple(atoms), p_vec, q_vec, value, f_dot)

    def eta_dense(self, atoms_weights):
        """Weighted atoms -> dense vector in R^N (desk scale)."""
        eta = np.zeros(self.N)
        for atoms, weight in atoms_weights.items():
            for b, (j,) in enumerate(atoms):
                eta[self.offsets[b] + j] += weight
        return eta

    def apply_P_atoms(self, atoms):
        return sum(self.P[:, self.offsets[b] + j] for b, (j,) in enumerate(atoms))

    def f_dot_atoms(self, atoms):
        if self.f is None:
            return 0.0
        return float(sum(self.f[self.offsets[b] + j] for b, (j,) in enumerate(atoms)))

    def h_domain(self):
        return Product([Simplex(n) for n in self.block_sizes])

    def xi_radii(self):
        r1 = r2 = 0.0
        for b in range(len(self.block_sizes)):
            lo, hi = self.offsets[b], self.offsets[b + 1]
            r1 += float(np.linalg.norm(self.Q[:, lo:hi], axis=0).max())
            r2 += float(np.linalg.norm(self.P[:, lo:hi], axis=0).max())
        return r1, r2


@dataclass
class NashSpec:
    """L players with pairwise zero-sum couplings.

    D[l] encodes player l's pure strategies (m_l x N_l simple matrix);
    M[l][lp] are the m_l x m_lp loss matrices with M[l][l] = 0 and
    M[l][lp] = -M[lp][l]^T (checked entrywise); g[l] are optional linear
    loss terms (the part hitting player l's own strategy), one entry per
    column of a dense D[l], desk scale.

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
        self.block_rows = rows
        offsets = np.cumsum([0] + rows)
        self.row_slices = [slice(offsets[l], offsets[l + 1]) for l in range(L)]
        self.C = np.block(self.M)

    @property
    def L(self):
        return len(self.D)


class NashSkewSystem:
    """P, Q induced by a NashSpec, never materialized: Q = (1/2)
    blockdiag(D_l) and P = C blockdiag(D_l), C the spec's stacked
    coupling matrix.  For eta = (eta_l) the stacked encoding
    d = (D_l eta_l) gives P eta = C d and Q eta = d / 2, so the column
    search runs once per player through the encoding-matrix oracles on
    the rows of the query y = x2 / 2 + C^T x1."""

    def __init__(self, spec):
        self.spec = spec
        self.K = spec.C.shape[0]

    def eta_argmin(self, x1, x2):
        spec = self.spec
        # entries of the query on player l's block: g_lj - <D_l e_j, y_l>
        y = 0.5 * np.asarray(x2, dtype=float) + spec.C.T @ np.asarray(x1, dtype=float)
        d = np.empty(self.K)
        atoms, value, f_dot = [], 0.0, 0.0
        for l, sl in enumerate(spec.row_slices):
            if spec.g is None:
                hit = col_extreme(spec.D[l], y[sl], "max")
                value -= hit.value
                d[sl] = hit.column
                atoms.append(hit.action_sequence)
            else:
                vals = spec.g[l] - (y[sl] @ spec.D[l].matrix)
                j = int(np.argmin(vals))
                value += float(vals[j])
                d[sl] = spec.D[l].matrix[:, j]
                atoms.append((j,))
                f_dot += float(spec.g[l][j])
        return EtaHit(tuple(atoms), spec.C @ d, 0.5 * d, value, f_dot)

    def apply_P_atoms(self, atoms):
        spec = self.spec
        return spec.C @ np.concatenate([spec.D[l].column(atom) for l, atom in enumerate(atoms)])

    def f_dot_atoms(self, atoms):
        if self.spec.g is None:
            return 0.0
        return float(sum(self.spec.g[l][atom[0]] for l, atom in enumerate(atoms)))

    def xi_radii(self):
        spec = self.spec
        r1 = r2 = 0.0
        for l, sl in enumerate(spec.row_slices):
            coupling = spec.C[:, sl]  # P = coupling @ D_l on player l's columns
            if hasattr(spec.D[l], "matrix"):
                cols = spec.D[l].matrix
                r1 += 0.5 * float(np.linalg.norm(cols, axis=0).max())
                r2 += float(np.linalg.norm(coupling @ cols, axis=0).max())
            else:
                bound = spec.D[l].column_norm_bound()
                r1 += 0.5 * bound
                r2 += float(np.linalg.norm(coupling, 2)) * bound
        return r1, r2

    def dense_PQ(self):
        """Materialized P, Q and f (desk scale, dense encoders only)."""
        from scipy.linalg import block_diag

        spec = self.spec
        blocks = block_diag(*[d.matrix for d in spec.D])
        f = None if spec.g is None else np.concatenate(spec.g)
        return spec.C @ blocks, 0.5 * blocks, f

    def h_domain(self):
        return Product([Simplex(d.count_columns()) for d in self.spec.D])

    def eta_dense(self, atoms_weights):
        sizes = [d.count_columns() for d in self.spec.D]
        offsets = np.cumsum([0] + sizes)
        eta = np.zeros(offsets[-1])
        for atoms, weight in atoms_weights.items():
            for l, atom in enumerate(atoms):
                eta[offsets[l] + atom[0]] += weight
        return eta


@dataclass
class SkewViSpec:
    """VI with operator F(eta) = 2 Q^T P eta + f, Q^T P skew-symmetric."""

    system: object             # DenseSkewSystem | NashSkewSystem
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
class ViSolution:
    eta_atoms: dict | None     # weighted product-vertex atoms (skew path)
    eta_vector: np.ndarray | None  # dense recovered point (affine path)
    eps_bound: float
    eps_exact: float | None
    rounds: list = field(default_factory=list)
    protocol: object = None
    cert: object = None
    payloads: list = field(default_factory=list)
    steps: int = 0
    stop_reason: str | None = None


def build_affine_vi_primal(spec):
    """Primal field Psi(xi) = S^T (xi - eta_bar(xi)) with
    eta_bar(xi) = argmin_{eta in H} <S xi + s, eta>; one LMO call each."""

    def fn(xi):
        eta_bar, _ = lmo_argmin(spec.H, spec.apply_S(xi) + spec.s)
        return spec.apply_St(xi - eta_bar), {"eta": eta_bar}

    return FieldOracle(fn)


def build_skew_vi_primal(spec):
    """Primal field Psi(xi1, xi2) = [xi2 + P eta_bar; -xi1 + Q eta_bar]
    with eta_bar minimizing <f - P^T xi1 - Q^T xi2, eta> over H."""
    k = spec.K

    def fn(xi):
        xi1, xi2 = xi[:k], xi[k:]
        hit = spec.system.eta_argmin(xi1, xi2)
        return np.concatenate([xi2 + hit.p_vec, -xi1 + hit.q_vec]), hit

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


def _skew_eps_exact(spec, atoms_weights):
    system = spec.system
    agg_p = np.zeros(spec.K)
    f_dot = 0.0
    for atoms, weight in atoms_weights.items():
        agg_p += weight * system.apply_P_atoms(atoms)
        f_dot += weight * system.f_dot_atoms(atoms)
    return _skew_dual_gap(spec, agg_p, f_dot)


def solve_vi(spec, solver="ellipsoid", config=None):
    """Run the primal solver and transfer the certificate to H.

    Returns a ViSolution whose eps_bound is the certified primal residual
    and whose eps_exact (skew path, or enumerable H) is the exact dual
    gap of the recovered point, read off the closing round; every round
    checks its gap against its residual.
    """
    skew = isinstance(spec, SkewViSpec)
    if skew:
        primal, domain = build_skew_vi_primal(spec), spec.primal_domain()
        collect, exact = _collect_atoms, _skew_eps_exact
    else:
        primal, domain = build_affine_vi_primal(spec), Ball(np.zeros(spec.H.dim), spec.Xi_radius)
        collect, exact = _collect_eta, _affine_eps_exact

    def round_fields(protocol, cert, payloads):
        gap, scale = exact(spec, collect(cert, payloads))
        return {"gap": gap, "scale": scale}

    # looked up at call time, so that wrappers installed on this module apply
    runs = {"ellipsoid": ellipsoid_run, "md": md_run}
    if solver not in runs:
        raise ValueError(f"unknown solver {solver!r}")
    run = runs[solver](primal, domain, config, round_fields)
    eta = collect(run.cert, run.payloads)
    return ViSolution(eta_atoms=eta if skew else None, eta_vector=None if skew else eta,
                      eps_bound=run.residual, eps_exact=run.rounds[-1]["gap"], rounds=run.rounds,
                      protocol=run.protocol, cert=run.cert, payloads=run.payloads,
                      steps=run.steps, stop_reason=run.stop_reason)


def _collect_atoms(cert, payloads):
    out = {}
    for i in np.flatnonzero(cert.weights > 0.0):
        out[payloads[i].atoms] = out.get(payloads[i].atoms, 0.0) + cert.weights[i]
    return out


def _collect_eta(cert, payloads):
    return sum(w * p["eta"] for w, p in zip(cert.weights, payloads))


def _affine_eps_exact(spec, eta):
    """(gap, scale) as in _skew_dual_gap, by brute force over the vertices of
    H; the gap is exact whenever the quadratic form of S vanishes on H - H."""
    H = spec.H
    if isinstance(H, FiniteAtoms):
        vertices = H.atoms
    elif isinstance(H, Simplex) and H.n <= 10 ** 4:
        vertices = np.eye(H.n)
    else:
        return None, 0.0
    best, scale = -np.inf, 0.0
    for v in vertices:
        field_v = spec.apply_S(v) + spec.s
        best = max(best, float(field_v @ (eta - v)))
        scale = max(scale, abs(float(field_v @ eta)), abs(float(field_v @ v)))
    return best, scale


def eps_vi_exact(spec, eta):
    """Exact dual gap sup_{eta'} <F(eta'), eta - eta'>.

    Skew specs take weighted atoms (or a dense vector for dense systems)
    and need one oracle call; affine specs require an enumerable H.
    Returns None when the gap is not exactly computable.
    """
    if isinstance(spec, SkewViSpec):
        if isinstance(eta, dict):
            return _skew_eps_exact(spec, eta)[0]
        system = spec.system
        if isinstance(system, DenseSkewSystem):
            eta = np.asarray(eta, dtype=float)
            f_dot = 0.0 if system.f is None else float(system.f @ eta)
            return _skew_dual_gap(spec, system.P @ eta, f_dot)[0]
        raise ValueError("dense eta requires a dense skew system")
    return _affine_eps_exact(spec, np.asarray(eta, dtype=float))[0]


def eps_nash(spec, eta_blocks):
    """Sum over players of the incentive to deviate.

    eta_blocks: one entry per player, either a dense strategy vector or a
    dict {action_sequence: weight}.  Uses one column search per player.
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
            best = float((spec.g[l] + y @ spec.D[l].matrix).min())
        else:
            best = col_extreme(spec.D[l], y, "min").value
        total += own - best
    return total


def nash_spec_from_json(obj):
    """NashSpec from JSON: dense M matrices, D blocks dense or knapsack."""
    if isinstance(obj, str):
        with open(obj) as fp:
            obj = json.load(fp)
    elif hasattr(obj, "read"):
        obj = json.load(obj)
    encoders = []
    for d in obj["D"]:
        if isinstance(d, dict) and "budget" in d:
            encoders.append(KnapsackOracle(knapsack_from_json(d)))
        else:
            encoders.append(DenseMatrixOracle(np.asarray(d, dtype=float)))
    g = None
    if obj.get("g") is not None:
        g = [np.asarray(v, dtype=float) for v in obj["g"]]
    return NashSpec(D=encoders, M=obj["M"], g=g)


def skew_master_protocol(spec, protocol, payloads):
    """Lift a primal skew protocol to Theta = Xi1 x Xi2 x H (desk scale).

    Requires dense P, Q; used to check the residual-transfer chain
    Res(J | Theta) <= Res(I | Xi)."""
    system = spec.system
    if isinstance(system, DenseSkewSystem):
        P, Q, f = system.P, system.Q, system.f
    else:
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
