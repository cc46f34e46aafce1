"""Certificate-producing solvers for the small primal problems.

Two solvers are provided: a central-cut ellipsoid method that records an
execution protocol over its productive steps and periodically computes
the best accuracy certificate for it, and projected mirror descent whose
step sizes directly induce a certificate.  Both operate on origin-centered
Euclidean balls or products of two such balls, where the residual has a
closed form and needs no LMO calls.  They share one driver for the
protocol, the field payloads and the certificate rounds, and return one
SolveResult.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import (
    AccuracyCertificate,
    CertificateError,
    ExecutionProtocol,
    residual_ball_product,
)
from .domains import Ball, Product

__all__ = [
    "SolverConfig",
    "SolveResult",
    "FieldOracle",
    "central_cut_log_volume_ratio",
    "ellipsoid_cut",
    "ellipsoid_run",
    "md_run",
    "optimize_certificate",
]


@dataclass
class SolverConfig:
    eps_target: float = 1e-6
    max_steps: int = 20000
    cert_period: int | None = None  # default: 4 K^2, K the largest block dimension
    gap_threshold: float = 1e-4
    start: np.ndarray | None = None

    def __post_init__(self):
        if self.eps_target <= 0:
            raise ValueError("eps_target must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.cert_period is not None and self.cert_period < 1:
            raise ValueError("cert_period must be >= 1")


class FieldOracle:
    """Vector field xi -> F(xi), optionally returning a side payload
    (e.g. the matrix columns hit while evaluating the field)."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, xi):
        out = self.fn(np.asarray(xi, dtype=float))
        if isinstance(out, tuple):
            value, payload = out
        else:
            value, payload = out, None
        value = np.asarray(value, dtype=float)
        if not np.all(np.isfinite(value)):
            raise ValueError("field oracle returned non-finite values")
        return value, payload


_MAX_LP_SOLVES = 100  # per certificate round; a capped round only costs quality
# residuals are certified far below HiGHS's default 1e-7 tolerances
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _origin_ball_blocks(domain):
    """Decompose the domain into origin-centered ball blocks (one or two)."""
    if isinstance(domain, Ball):
        factors = [domain]
    elif isinstance(domain, Product) and all(isinstance(f, Ball) for f in domain.factors):
        factors = domain.factors
    else:
        raise ValueError("solver domains must be a ball or a product of balls")
    if len(factors) > 2:
        raise ValueError("at most two ball factors are supported")
    for f in factors:
        if np.any(f.center != 0.0):
            raise ValueError("ball factors must be centered at the origin")
    return [(f.dim, f.radius) for f in factors]


def central_cut_log_volume_ratio(n):
    """log of vol(E+)/vol(E) for one central cut in dimension n."""
    n = float(n)
    return n * np.log(n / np.sqrt(n * n - 1.0)) + 0.5 * np.log((n - 1.0) / (n + 1.0))


def ellipsoid_cut(center, shape, g):
    """One central-cut update keeping the half-space {x: <g, x - center> <= 0}."""
    n = center.shape[0]
    bg = shape.T @ g
    nbg = float(np.linalg.norm(bg))
    if nbg <= 1e-14 * float(np.linalg.norm(g)):
        raise RuntimeError(
            "ellipsoid shape matrix is numerically singular along the cut direction; "
            "the method cannot make further progress"
        )
    p = bg / nbg
    bp = shape @ p
    center_new = center - bp / (n + 1.0)
    beta = n / np.sqrt(n * n - 1.0)
    gamma = 1.0 - np.sqrt((n - 1.0) / (n + 1.0))
    shape_new = beta * (shape - gamma * np.outer(bp, p))
    return center_new, shape_new


class _ProtocolBuffer:
    """Protocol entries appended into preallocated arrays that double when
    full.  Each snapshot views the rows so far, so building a round's
    protocol copies nothing but the step ids."""

    def __init__(self, dim):
        self.dim = dim
        self.points = np.empty((64, dim))
        self.fields = np.empty((64, dim))
        self.ids = []

    def __len__(self):
        return len(self.ids)

    def append(self, point, field_value, step_id):
        t = len(self.ids)
        if t == self.points.shape[0]:
            self.points = np.concatenate([self.points, np.empty_like(self.points)])
            self.fields = np.concatenate([self.fields, np.empty_like(self.fields)])
        self.points[t] = point
        self.fields[t] = field_value
        self.ids.append(step_id)

    def protocol(self):
        t = len(self.ids)
        return ExecutionProtocol(self.points[:t], self.fields[:t], tuple(self.ids), self.dim)


@dataclass
class SolveResult:
    """Outcome of a certificate-producing run.

    `cert` is the last round's certificate, for the whole `protocol`, and
    `residual` its certified residual; `payloads[i]` is the field's side
    payload at protocol entry i.  Each round is {step, t, residual,
    cert_lower, gap, weights}, for the first t entries after `step` steps,
    with the certificate's weights (not a copy) and the fields that
    `on_certificate` returned (value for games, scale for VIs); the last
    round is on `cert`, so its gap is the solution's.
    `steps` counts every step, productive or not; `stop_reason` names what
    ended the step loop: "eps_target", "gap_threshold", "max_steps",
    "stationary" (a zero field value) or "ellipsoid_degenerate".
    """

    protocol: ExecutionProtocol
    cert: AccuracyCertificate
    residual: float
    payloads: list
    rounds: list
    steps: int
    stop_reason: str


class _Run:
    """State that both solvers share: the protocol, the field payloads
    and the certificate rounds.  Each solver passes its own
    `certify(protocol)` into every round rather than storing it here: its
    closure refers to the run, and the reference cycle would keep every
    solve's buffers alive until the cyclic garbage collector ran."""

    def __init__(self, field, domain, config, on_certificate):
        self.config = config or SolverConfig()
        self.blocks = _origin_ball_blocks(domain)
        (self.split, r0), *second = self.blocks  # a single ball: the second is empty
        self.radii = (r0, second[0][1] if second else 0.0)
        self.radius = float(np.sqrt(sum(r * r for _, r in self.blocks)))  # of the product
        k = max(d for d, _ in self.blocks)
        self.cert_period = self.config.cert_period or 4 * k * k
        self.field, self.on_certificate = field, on_certificate
        self.entries, self.payloads, self.rounds = _ProtocolBuffer(domain.dim), [], []
        self.cert, self.residual, self.certified_len = None, np.inf, 0

    def evaluate(self, point, step):
        """Field value at `point`, recorded as the protocol entry of `step`."""
        value, payload = self.field(point)
        self.entries.append(point, value, step)
        self.payloads.append(payload)
        return value

    def round(self, step, certify):
        """Certify the protocol so far; returns a stop reason or None."""
        protocol = self.entries.protocol()
        self.cert = certify(protocol)
        self.residual = residual_ball_product(protocol, self.cert, self.radii, self.split)
        self.certified_len = len(protocol)
        record = {"step": step, "t": len(protocol), "residual": self.residual,
                  "cert_lower": self.cert.lower, "gap": None, "weights": self.cert.weights}
        if self.on_certificate is not None:
            record.update(self.on_certificate(protocol, self.cert, self.payloads) or {})
        self.rounds.append(record)
        gap = record["gap"]
        tol = 1e-9 * max(1.0, abs(record.get("value", 0.0)), record.get("scale", 0.0))
        if gap is not None and not gap <= self.residual + tol:  # the residual bounds it
            raise CertificateError(f"exact gap {gap} exceeds certified residual {self.residual}")
        if self.residual <= self.config.eps_target:
            return "eps_target"
        if gap is not None and gap <= self.config.gap_threshold:
            return "gap_threshold"
        return None

    def result(self, steps, stop_reason, certify):
        """Close with a round on the entries recorded since the last one."""
        if not self.entries:
            raise RuntimeError("the run produced no productive steps")
        if len(self.entries) > self.certified_len:
            self.round(steps, certify)
        return SolveResult(self.entries.protocol(), self.cert, self.residual, self.payloads,
                           self.rounds, steps, stop_reason)


def ellipsoid_run(field, domain, config=None, on_certificate=None):
    """Central-cut ellipsoid with accuracy certificates.

    At productive steps (center inside the domain) the cut direction is the
    field value, which is recorded into the protocol; at non-productive
    steps a separating hyperplane of the violated ball factor is used.
    Every cert_period steps the best certificate for the protocol so far is
    computed, warm-started from the previous one.  `on_certificate(protocol,
    cert, payloads)` returns the round's fields ({"gap", "value"} for games,
    {"gap", "scale"} for VIs) or None; a round raises CertificateError where
    its gap exceeds the residual by over 1e-9 max(1, |value|, scale).  The run
    stops when that gap falls below gap_threshold, when the certified residual
    falls below eps_target, at a zero field value, when the ellipsoid
    collapses, or at max_steps.  Each round's cert_lower is a certified lower
    bound on the least residual of any certificate for its protocol.

    Returns a SolveResult.
    """
    run = _Run(field, domain, config, on_certificate)
    n = domain.dim
    if n < 2:
        raise ValueError("ellipsoid method requires dimension >= 2")
    tol = 0.1 * run.config.eps_target

    def certify(protocol):
        # never worse than the last certificate: the warm start is one of its candidates
        return optimize_certificate(protocol, run.radii, run.split, warm_start=run.cert, tol=tol)

    center = np.zeros(n)
    shape = run.radius * np.eye(n)
    step = 0
    for step in range(1, run.config.max_steps + 1):
        # the balls are origin-centered: the first one the center leaves
        # gives the separating cut along its outward normal
        g, off = None, 0
        for d, r in run.blocks:
            block = center[off:off + d]
            norm = np.linalg.norm(block)
            if norm > r:
                g = np.zeros(n)
                g[off:off + d] = block / norm
                break
            off += d
        if g is None:
            g = run.evaluate(center, step)
            if np.linalg.norm(g) <= 1e-15:
                stop = "stationary"  # nothing left to cut
                break
        try:
            center, shape = ellipsoid_cut(center, shape, g)
        except RuntimeError:
            stop = "ellipsoid_degenerate"  # certify what we have
            break
        if run.entries and step % run.cert_period == 0:
            stop = run.round(step, certify)
            if stop:
                break
    else:
        stop = "max_steps"
    return run.result(step, stop, certify)


def _balls(radii, split, dim):
    """(slice, radius) of each ball factor, split at index `split`."""
    return list(zip((slice(0, split), slice(split, dim)), radii))


def _project_blocks(x, radii, split):
    out = x.copy()
    for sl, r in _balls(radii, split, len(x)):
        norm = np.linalg.norm(out[sl])
        if norm > r:
            out[sl] *= r / norm
    return out


def md_run(field, domain, config=None, on_certificate=None):
    """Projected (Euclidean) mirror descent with step-size certificates.

    Steps xi_{i+1} = Proj(xi_i - gamma_i F(xi_i)) with gamma_i = R/(Lhat sqrt(i)),
    Lhat a running max of the field norms; the certificate weights are the
    normalized step sizes.  All steps are productive.  Certificate rounds,
    `on_certificate` and the stop rules are those of `ellipsoid_run`.

    Returns a SolveResult.
    """
    run = _Run(field, domain, config, on_certificate)
    radii, split = run.radii, run.split
    start = run.config.start
    xi = np.zeros(domain.dim) if start is None else np.asarray(start, dtype=float).copy()
    xi = _project_blocks(xi, radii, split)
    gammas = []

    def certify(protocol):
        w = np.array(gammas)
        return AccuracyCertificate(w / w.sum())

    lhat, i = 0.0, 0
    for i in range(1, run.config.max_steps + 1):
        value = run.evaluate(xi, i)
        lhat = max(lhat, float(np.linalg.norm(value)), 1e-30)
        gammas.append(run.radius / (lhat * np.sqrt(i)))
        xi = _project_blocks(xi - gammas[-1] * value, radii, split)
        if i % run.cert_period == 0:
            stop = run.round(i, certify)
            if stop:
                break
    else:
        stop = "max_steps"
    return run.result(i, stop, certify)


def optimize_certificate(protocol, radii, split, warm_start=None, tol=None):
    """Best accuracy certificate for a protocol over a product of
    origin-centered balls, from the dual linear program.

    With c_i = <F_i, w_i> and F_i = (G_i, H_i), minimax turns
    min_{lam in simplex} sum lam_i c_i + R_U ||sum lam_i G_i|| + R_V ||sum lam_i H_i||
    into max_{||a|| <= R_U, ||b|| <= R_V} min_i c_i + <F_i, (a, b)>: an LP
    in (s, a, b) once the balls become a box refined by tangent (Kelley)
    cuts, whose HiGHS duals on the protocol rows are the weights.  The LP
    holds a working set of rows, grown by the rows each solution violates.
    Any (a, b) in the balls bounds the optimum from below; the projected LP
    solution and the dual completion of the best weights are tried, and
    the loop stops when the best residual is within a relative 1e-6 of
    that bound, or below tol/4.  The bound is the certificate's `lower`.
    Never worse than uniform weights or the warm start, which may cover a
    prefix of the protocol.
    """
    from scipy.optimize import linprog

    t = len(protocol)
    if t == 0:
        raise ValueError("cannot optimize a certificate for an empty protocol")
    d = protocol.dim
    fv = protocol.field_values
    c = np.sum(fv * protocol.points, axis=1)
    scale = max(1.0, float(np.abs(fv).max()), float(np.abs(c).max()))
    candidates = [np.full(t, 1.0 / t)]
    in_set = np.zeros(t, dtype=bool)  # the LP's working set of protocol rows
    if warm_start is not None:
        if len(warm_start) > t:
            raise ValueError("warm start is longer than the protocol")
        warm = np.zeros(t)
        warm[:len(warm_start)] = warm_start.weights
        candidates.append(warm)
        in_set |= warm > 0.0

    def residual_of(lam):
        return residual_ball_product(protocol, AccuracyCertificate(lam), radii, split)

    def completion_values(lam, f):
        x = _project_blocks(_dual_completion(lam, f, c, fv, radii, split, scale), radii, split)
        return c + fv @ x

    best = min(candidates, key=residual_of)
    f_best = residual_of(best)
    start = completion_values(best, f_best)
    lower = float(start.min())
    in_set[np.argsort(start, kind="stable")[:8 * (d + 1)]] = True  # binding at the start
    gap_tol = 1e-13 * scale if tol is None else max(1e-13 * scale, 0.25 * tol)
    lp_rows = np.hstack([np.ones((t, 1)), -fv])  # s - <F_i, (a, b)> <= c_i
    cost = np.zeros(1 + d)
    cost[0] = -1.0
    bounds = [(None, None)] + [(-r, r) for sl, r in _balls(radii, split, d)
                               for _ in range(sl.start, sl.stop)]
    cuts, cut_rhs = [], []
    for _ in range(_MAX_LP_SOLVES):
        if f_best - lower <= max(gap_tol, 1e-6 * abs(lower)) or (
                tol is not None and f_best <= gap_tol):
            break
        rows = np.flatnonzero(in_set)
        res = linprog(cost, A_ub=np.vstack([lp_rows[rows]] + cuts),
                      b_ub=np.concatenate([c[rows], cut_rhs]), bounds=bounds,
                      method="highs", options=_HIGHS_OPTIONS)
        if res.status != 0:
            break  # numerical trouble: keep the best certificate found so far
        lam = np.zeros(t)
        lam[rows] = np.maximum(-res.ineqlin.marginals[:len(rows)], 0.0)
        if lam.sum() > 0.0:
            lam /= lam.sum()
            f = residual_of(lam)
            if f < f_best:
                best, f_best = lam, f
        s, ab = res.x[0], res.x[1:]
        proj = _project_blocks(ab, radii, split)
        n_cuts = len(cuts)
        for sl, r in _balls(radii, split, d):
            if np.any(proj[sl] != ab[sl]):  # outside this ball: cut at the projection
                cuts.append(np.zeros(1 + d))
                cuts[-1][1:][sl] = proj[sl] / r
                cut_rhs.append(r)
        lower = max(lower, float((c + fv @ proj).min()),
                    float(completion_values(best, f_best).min()))
        at_ab = c + fv @ ab
        violated = np.flatnonzero(~in_set & (at_ab < s - 1e-12 * scale))
        if len(violated) == 0 and len(cuts) == n_cuts:
            break  # the LP optimum is feasible for the balls and all rows
        in_set[violated[np.argsort(at_ab[violated], kind="stable")[:4 * (d + 1)]]] = True
    return AccuracyCertificate(best, lower=lower)


def _dual_completion(lam, f, c, fv, radii, split, scale):
    """The point (a, b) that pairs with lam if lam is optimal: R times the
    direction of a block's aggregate sum_i lam_i F_i where that is nonzero,
    elsewhere the least-norm (in radius units) solution of
    c_i + <F_i, (a, b)> = f on the support of lam, where optimal pairs are
    tight."""
    x = np.zeros(fv.shape[1])
    radius = np.zeros(fv.shape[1])
    free = np.zeros(fv.shape[1], dtype=bool)
    agg = np.einsum("i,ij->j", lam, fv)  # as in residual_ball_product
    for sl, r in _balls(radii, split, fv.shape[1]):
        radius[sl] = r
        norm = float(np.linalg.norm(agg[sl]))
        if norm > 1e-12 * scale:
            x[sl] = agg[sl] * (r / norm)
        else:
            free[sl] = True
    if free.any():
        supp = np.flatnonzero(lam > 0.0)
        rhs = f - c[supp] - fv[supp][:, ~free] @ x[~free]
        x[free] = np.linalg.lstsq(fv[supp][:, free] * radius[free], rhs, rcond=None)[0]
        x[free] *= radius[free]
    return x
