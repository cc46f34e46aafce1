"""Certificate-producing solvers for the small primal problems.

Two solvers are provided: an ellipsoid method that records an execution
protocol over its productive steps and re-applies the protocol's cuts as
deep cuts, and projected mirror descent, all of whose steps are
productive.  Both compute the best accuracy certificate for the
protocol so far in certificate rounds, scheduled as _Run says, on one
certificate LP per run; mirror descent offers its normalized step sizes
as one more candidate.  Both operate on origin-centered Euclidean balls
or products of two such balls, where the residual has a closed form and
needs no LMO calls.  They share one run state for the
protocol, the field payloads and the certificate rounds, and return one
SolveResult.
Every game and VI round (_Rounds) returns the atoms with the least
computable gap bound (_choose_atoms).  A game's or skew VI's round also
solves its restricted master, the game over the pure strategies hit so
far and the best replies that the run has found, by _restricted_lp (a
dense simplex tableau for small pools, the thread's HiGHS model for large
ones), and re-solves it with each new best reply while the run's own
oracle work allows.
"""

from __future__ import annotations

import collections
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .certificates import (
    AccuracyCertificate,
    CertificateError,
    ExecutionProtocol,
    _ball_residual,
)
# residual_ball_product is unused here: benchmark tracing wraps this module's name
from .certificates import residual_ball_product  # noqa: F401
from .domains import Ball, Product
from .oracles import integer

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
    # P, the base interval of the round schedule (see _Run); None means 4 K^2
    cert_period: int | None = None
    gap_threshold: float = 1e-4
    start: np.ndarray | None = None

    def __post_init__(self):
        if not self.eps_target > 0:  # NaN too: no residual would ever reach it
            raise ValueError("eps_target must be positive")
        if not self.gap_threshold >= 0:
            raise ValueError("gap_threshold must be nonnegative")
        counts = {"max_steps": self.max_steps}
        if self.cert_period is not None:
            counts["cert_period"] = self.cert_period
        for name, value in counts.items():
            # range() takes no float, and a float period would put rounds only
            # on the multiples that happen to be integers
            if integer(value, name) < 1:
                raise ValueError(f"{name} must be >= 1")


class FieldOracle:
    """Vector field xi -> F(xi), optionally returning a side payload
    (e.g. the matrix columns hit while evaluating the field).  A value
    must be finite and of the query's shape."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        out = self.fn(xi)
        if isinstance(out, tuple):
            value, payload = out
        else:
            value, payload = out, None
        value = np.asarray(value, dtype=float)
        if value.shape != xi.shape:
            raise ValueError(f"field value has shape {value.shape}, not the query's {xi.shape}")
        if not all(map(math.isfinite, value.ravel().tolist())):
            raise ValueError("field oracle returned non-finite values")
        return value, payload


_MAX_LP_SOLVES = 100  # per certificate round; a capped round only costs quality


def _origin_ball_blocks(domain):
    """The domain's origin-centered ball factors (one or two), as (slice,
    radius) pairs."""
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
    return _balls([f.radius for f in factors], factors[0].dim, domain.dim)


def central_cut_log_volume_ratio(n):
    """log of vol(E+)/vol(E) for one central cut in dimension n."""
    n = float(n)
    return n * np.log(n / np.sqrt(n * n - 1.0)) + 0.5 * np.log((n - 1.0) / (n + 1.0))


def _norm(v):
    """Euclidean norm of a 1-D float vector, as np.linalg.norm computes it:
    the square root of v.dot(v), the same BLAS dot as `v @ v` without the
    matmul dispatch."""
    return math.sqrt(v.dot(v))


@functools.cache
def _cut_factors(n):
    """(beta, gamma) of the central-cut update in dimension n; cached, one
    entry per dimension."""
    return n / math.sqrt(n * n - 1.0), 1.0 - math.sqrt((n - 1.0) / (n + 1.0))


def ellipsoid_cut(center, shape, g, depth=0.0):
    """One update of the ellipsoid {center + shape u: ||u|| <= 1} keeping the
    half-space {x: <g, x - center> <= -depth}, depth >= 0: a central cut at
    depth 0, else a deep cut (Bland, Goldfarb & Todd, Oper. Res. 29, 1981).
    With p = B^T g / ||B^T g|| and alpha = depth / ||B^T g|| the new center
    is c - (1 + n alpha) B p / (n + 1) and the new shape
    beta sqrt(1 - alpha^2) (B - gamma_alpha (B p) p^T), where
    gamma_alpha = 1 - sqrt((n - 1)(1 - alpha) / ((n + 1)(1 + alpha))); at
    depth 0 both are the central cut's to the bit.  Returns a new center and
    shape; the arguments are left as they are.  A cut with alpha >= 1 keeps
    at most one point of the ellipsoid and is skipped: the arguments are
    returned."""
    n = center.shape[0]
    bg = shape.T.dot(g)
    nbg = _norm(bg)
    if nbg <= 1e-14 * _norm(g):
        raise RuntimeError(
            "ellipsoid shape matrix is numerically singular along the cut direction; "
            "the method cannot make further progress"
        )
    beta, gamma = _cut_factors(n)
    if depth:
        alpha = depth / nbg
        if alpha >= 1.0:
            return center, shape
        beta *= math.sqrt((1.0 - alpha) * (1.0 + alpha))
        gamma = 1.0 - math.sqrt((n - 1.0) * (1.0 - alpha) / ((n + 1.0) * (1.0 + alpha)))
    p = bg / nbg
    bp = shape.dot(p)
    offset = bp / (n + 1.0)
    if depth:
        offset *= 1.0 + n * alpha
    center_new = center - offset
    # beta (shape - gamma bp p^T), updated in the one new array
    shape_new = np.multiply.outer(bp, p)
    shape_new *= gamma
    np.subtract(shape, shape_new, out=shape_new)
    shape_new *= beta
    return center_new, shape_new


def _doubled(array):
    """`array` with as many rows again appended, uninitialized: the growth
    of the run's preallocated tables."""
    return np.concatenate([array, np.empty_like(array)])


class _ProtocolBuffer:
    """Protocol entries appended into preallocated arrays that double when
    full.  Each snapshot views the rows so far, so building a round's
    protocol copies nothing but the step ids, which numpy turns into a
    tuple in one pass."""

    def __init__(self, dim):
        self.dim, self.t = dim, 0
        self.points = np.empty((64, dim))
        self.fields = np.empty((64, dim))
        self.ids = np.empty(64, dtype=np.int64)

    def __len__(self):
        return self.t

    def append(self, point, field_value, step_id):
        t = self.t
        if t == len(self.ids):
            self.points, self.fields, self.ids = map(_doubled, (self.points, self.fields,
                                                                self.ids))
        self.points[t] = point
        self.fields[t] = field_value
        self.ids[t] = step_id
        self.t = t + 1

    def protocol(self):
        t = self.t
        return ExecutionProtocol(self.points[:t], self.fields[:t], self.ids[:t], self.dim)


class _RecordedCuts:
    """The cuts <F_i, x - x_i> <= 0 of a protocol's entries (x_i, F_i), which
    hold at every weak solution of a monotone field, kept as unit normals
    u_i = F_i / ||F_i|| with offsets d_i = <u_i, x_i>: a point x violates
    cut i by the distance <u_i, x> - d_i."""

    def __init__(self, dim):
        self.t = 0
        self.normals, self.offsets = np.empty((64, dim)), np.empty(64)

    def append(self, point, value, norm):
        """Record the cut of the entry (point, value), ||value|| = norm > 0."""
        t = self.t
        if t == len(self.offsets):
            self.normals, self.offsets = _doubled(self.normals), _doubled(self.offsets)
        normal = self.normals[t]
        np.multiply(value, 1.0 / norm, out=normal)
        self.offsets[t] = normal.dot(point)
        self.t = t + 1

    def deepest(self, center):
        """(u_i, distance) of the cut that `center` violates by the largest
        distance, or None where it violates none; one (t x n) product."""
        if not self.t:
            return None
        distance = self.normals[:self.t].dot(center)
        distance -= self.offsets[:self.t]
        i = distance.argmax()
        if distance[i] > 0.0:
            return self.normals[i], float(distance[i])
        return None


@dataclass
class SolveResult:
    """Outcome of a certificate-producing run.

    `cert` is the last round's certificate, for the whole `protocol`; its
    certified residual `cert.residual` is the value that the round's
    optimize_certificate computed, not a recomputation; `payloads[i]` is
    the field's side payload at protocol entry i.  Each round is {step, t,
    residual, cert_lower, gap, weights, support, lp_solves, recycled, due},
    for the first t entries after `step` steps, with the certificate's
    weights (not a copy), their count of nonzeros (`support`), the
    certified lower bound on any certificate's residual for the same
    entries (`cert_lower`), the HiGHS solves the round made (`lp_solves`,
    read off the run's CertificateLP), the deep cuts that the ellipsoid
    re-applied from its protocol since the previous round (`recycled`, 0
    for mirror descent), the step of the next scheduled round (`due`, see
    _Run; None on a round that stops or closes the run) and the fields that
    `on_certificate` returned (value for games, scale for VIs, and
    checked for affine VIs).  Games and VIs also return `bound`,
    `cert_gap`, `atoms` (see _choose_atoms), `master_columns` and
    `master_solves` (see _Rounds): a round's gap and bound are those of the
    atoms it returned ("certificate" or "restricted"), `cert_gap` is the
    gap of the certificate's own atoms, which the round checks against its
    residual and paces the next round by, `master_columns` the size of the
    round's last restricted master, its distinct pure strategies per side
    of a game (minimizer's, maximizer's) or per block of a skew VI (None
    for an affine VI, which has none), and `master_solves` the
    restricted-master LPs that the round ran (0 for an affine VI), each
    one _restricted_lp call.  The last round is on `cert` and its atoms
    are the solution's.
    Residuals and gaps
    are as computed, never clamped at 0: a residual below 0, impossible in
    exact arithmetic for a monotone field, is rounding at the scale of the
    fields (-1.28e-8 for fields near 1e9), so it reads as 0.
    `steps` counts every step, productive or not; `stop_reason` names what
    ended the step loop: "eps_target", "gap_threshold", "max_steps",
    "stationary" (a zero field value) or "ellipsoid_degenerate".
    """

    protocol: ExecutionProtocol
    cert: AccuracyCertificate
    payloads: list
    rounds: list
    steps: int
    stop_reason: str


class _Run:
    """State that both solvers share: the protocol, the field payloads,
    the run's CertificateLP and the certificate rounds.  A round runs
    optimize_certificate on that LP, warm-started from the last round's
    certificate, with the solver's `candidates`, and records the residual
    that it computed (`AccuracyCertificate.residual`).  The LP is built at
    the first round that solves one (`lp` is None until then), so a run
    that stops at an early round builds no HiGHS model.

    The round schedule, stated here once: with K the largest block
    dimension and P = `cert_period` (default 4 K^2), early rounds fall at
    steps K + 1, 2(K + 1), 4(K + 1), ... below P and max_steps, then paced
    rounds on multiples of P, and the closing round (`result`) ends the
    run; a solver runs a round once its step reaches `due`.  K + 1 is the
    first step where the protocol can hold an equilibrium of a game whose
    columns live in R^K, which by Caratheodory needs at most K + 1 pure
    strategies per side.  An early round scores only the certificates
    known in closed form (uniform weights, the last round's and the
    solver's `candidates`) and solves no LP, so it costs little more than
    the gap evaluation of its atoms (and its restricted master), which may
    already stop the run; every other round solves the LP, and where the
    last round was early and did not stop the run, the closing round does
    so on the whole protocol.  An early certificate is scored but does not
    seed the LP's working set.  From P on, a round that does not stop the
    run schedules the next `_periods` P steps later, one period until the
    residual has fallen below the first paced round's (the one at P), then
    half the periods that the run's own rate of decrease predicts it still
    needs to reach a stop, at most twice the last interval.  Only rounds
    predicted not to stop the run are skipped, and the steps themselves do
    not depend on the rounds.  Where P <= K + 1 there are no early
    rounds."""

    def __init__(self, field, domain, config, on_certificate):
        self.config = config or SolverConfig()
        self.balls = _origin_ball_blocks(domain)
        (first, r0), *second = self.balls  # a single ball: the second is empty
        self.split, self.radii = first.stop, (r0, second[0][1] if second else 0.0)
        self.radius = float(np.sqrt(sum(r * r for _, r in self.balls)))  # of the product
        k = max(sl.stop - sl.start for sl, _ in self.balls)
        self.cert_period = self.config.cert_period or 4 * k * k
        self.field, self.on_certificate = field, on_certificate
        self.entries, self.payloads, self.rounds = _ProtocolBuffer(domain.dim), [], []
        self.cert = None
        self.lp = None  # built by the first round that solves an LP
        self.recycled = 0  # deep cuts applied since the last round
        # the step of the next round
        self.due = min(k + 1, self.cert_period)
        self.lp_owed = False  # the last round was early and did not stop the run

    def evaluate(self, point, step):
        """Field value at `point`, recorded as the protocol entry of `step`."""
        value, payload = self.field(point)
        self.entries.append(point, value, step)
        self.payloads.append(payload)
        return value

    def round(self, step, candidates=(), closing=False):
        """Certify the protocol so far; returns a stop reason or None.  A
        round that neither stops the run nor closes it (`closing`, the
        round after the step loop) schedules the next one in `due`."""
        protocol = self.entries.protocol()
        early = not closing and step < min(self.cert_period, self.config.max_steps)
        if self.lp is None and not early:
            self.lp = CertificateLP(self.radii, self.split, protocol.dim)
        solves = self.lp.solves if self.lp else 0
        # never worse than the last round's certificate, which is the warm start;
        # an early one (often uniform) is only scored, so that the first LP round
        # does not put its whole support into the working set
        warm = self.cert
        if self.lp_owed and not early:
            warm, candidates = None, [self.cert, *candidates]
        self.cert = optimize_certificate(protocol, self.radii, self.split, warm_start=warm,
                                         tol=0.1 * self.config.eps_target, lp=self.lp,
                                         candidates=candidates,
                                         max_solves=0 if early else _MAX_LP_SOLVES)
        self.lp_owed = False
        residual = self.cert.residual
        record = {"step": step, "t": len(protocol), "residual": residual,
                  "cert_lower": self.cert.lower, "gap": None, "weights": self.cert.weights,
                  "support": int(np.count_nonzero(self.cert.weights)),
                  "lp_solves": (self.lp.solves if self.lp else 0) - solves,
                  "recycled": self.recycled,
                  "due": None}
        self.recycled = 0
        if self.on_certificate is not None:
            record.update(self.on_certificate(protocol, self.cert, self.payloads) or {})
        self.rounds.append(record)
        gap = record["gap"]
        cert_gap = record.get("cert_gap", gap)  # the certificate's own atoms'
        tol = 1e-9 * max(1.0, abs(record.get("value", 0.0)), record.get("scale", 0.0))
        # the residual bounds a dual gap, not a gap function (checked False)
        if cert_gap is not None and record.get("checked", True) and not cert_gap <= residual + tol:
            raise CertificateError(f"exact gap {cert_gap} exceeds certified residual {residual}")
        if residual <= self.config.eps_target:
            return "eps_target"
        if gap is not None and gap <= self.config.gap_threshold:
            return "gap_threshold"
        if early:
            self.lp_owed = True
            self.due = record["due"] = min(2 * step, self.cert_period)
        elif not closing:  # paced by the certificate alone, whichever atoms the round returned
            self.due = record["due"] = (step + self._periods(step, residual, cert_gap)
                                        * self.cert_period)
        return None

    def _periods(self, step, residual, gap):
        """Base intervals from a round at `step` >= P that did not stop the
        run (so residual > eps_target > 0, and gap > gap_threshold where
        there is a gap) to the next round; only the rounds at P or later
        (the paced rounds) count.  With (s_1, r_1) the first paced round's
        step and residual, rate = ln(r_1 / residual) / (step - s_1) is the
        log-decrease per step over the paced run, and far = residual /
        eps_target, or gap / gap_threshold where that is less, the factor
        still to go: the run is predicted to stop ln(far) / rate steps on.
        The next round comes after half of them, at least one period and at
        most twice the last paced interval; after one period where there is
        no rate yet (the first paced round) or no decrease (residual >=
        r_1)."""
        period = self.cert_period
        paced = [r for r in self.rounds if r["step"] >= period]
        if len(paced) < 2:
            return 1
        first = paced[0]
        rate = math.log(first["residual"] / residual) / (step - first["step"])
        if not rate > 0.0:
            return 1
        far = residual / self.config.eps_target
        if gap is not None and self.config.gap_threshold > 0.0:
            far = min(far, gap / self.config.gap_threshold)
        cap = 2 * max(1, (step - paced[-2]["step"]) // period)
        return max(1, math.floor(min(math.log(far) / (rate * period) / 2, cap)))

    def result(self, steps, stop_reason, candidates=()):
        """Close with a round on the entries recorded since the last one,
        or on the LP where the last round was early and did not stop."""
        if not self.rounds or len(self.entries) > self.rounds[-1]["t"] or self.lp_owed:
            self.round(steps, candidates, closing=True)
        return SolveResult(self.entries.protocol(), self.cert, self.payloads, self.rounds,
                           steps, stop_reason)


def ellipsoid_run(field, domain, config=None, on_certificate=None):
    """Ellipsoid method with accuracy certificates, whose central cuts are
    followed up by deep cuts recycled from its own protocol.

    At productive steps (center inside the domain) the cut direction is the
    field value, which is recorded into the protocol; at non-productive
    steps a separating hyperplane of the violated ball factor is used.
    Every protocol entry (x_i, F_i) gives a cut <F_i, x - x_i> <= 0 that
    holds at every weak solution of a monotone field.  Before its ball test
    and field call, each step measures by how far the center c violates
    each such cut, (<F_i, c> - <F_i, x_i>) / ||F_i||, with one product over
    the cuts' unit normals; where some cut is violated it re-applies the
    one violated the most as a deep cut (`ellipsoid_cut` at that distance
    along F_i / ||F_i||), at most one per step.  A recycled cut calls no
    oracle and adds no protocol entry; it shrinks the ellipsoid at least as
    much as a central cut, so the volume argument behind the certificate
    still holds.  `steps` and `max_steps` count loop iterations, and each
    round records how many cuts were recycled.
    The run starts at the origin, so `SolverConfig.start` must be None.
    Certificate rounds fall on the schedule that _Run states.
    `on_certificate(protocol, cert, payloads)` returns the round's fields
    ({"gap", "value"} for games, {"gap", "scale"} for VIs, with
    "checked": False where the gap is not a dual gap, and "cert_gap" where
    "gap" belongs to other atoms than the certificate's) or None; a round
    raises CertificateError where a checked cert_gap (the gap where there
    is none) exceeds the residual by over 1e-9 max(1, |value|, scale).  The
    run stops when the gap falls below gap_threshold, when the certified
    residual falls below eps_target, at a zero field value, when the
    ellipsoid collapses, or at max_steps.

    Returns a SolveResult.
    """
    n = domain.dim
    if n < 2:
        raise ValueError("ellipsoid method requires dimension >= 2")
    if config is not None and config.start is not None:
        raise ValueError("ellipsoid_run starts at the origin; SolverConfig.start is for md_run")
    run = _Run(field, domain, config, on_certificate)
    cuts = _RecordedCuts(n)
    center = np.zeros(n)
    shape = run.radius * np.eye(n)
    step = 0
    for step in range(1, run.config.max_steps + 1):
        deepest = cuts.deepest(center)
        if deepest is not None:  # one recycled cut per step
            try:
                cut_center, shape = ellipsoid_cut(center, shape, *deepest)
            except RuntimeError:
                stop = "ellipsoid_degenerate"
                break
            run.recycled += cut_center is not center  # not a skipped cut
            center = cut_center
        # the balls are origin-centered: the first one the center leaves
        # gives the separating cut along its outward normal
        g = None
        for sl, r in run.balls:
            block = center[sl]
            norm = _norm(block)
            if norm > r:
                g = np.zeros(n)
                g[sl] = block / norm
                break
        if g is None:
            g = run.evaluate(center, step)
            norm = _norm(g)
            if norm <= 1e-15:
                stop = "stationary"  # nothing left to cut
                break
            cuts.append(center, g, norm)
        try:
            center, shape = ellipsoid_cut(center, shape, g)
        except RuntimeError:
            stop = "ellipsoid_degenerate"  # certify what we have
            break
        if step >= run.due:  # step 1 is productive: the origin is in the balls
            stop = run.round(step)
            if stop:
                break
    else:
        stop = "max_steps"
    return run.result(step, stop)


def _balls(radii, split, dim):
    """(slice, radius) of each ball factor, split at index `split`."""
    return list(zip((slice(0, split), slice(split, dim)), radii))


def _project_blocks(x, balls):
    """x projected onto the product of the `balls`, (slice, radius) pairs."""
    out = x.copy()
    for sl, r in balls:
        norm = _norm(out[sl])
        if norm > r:
            out[sl] *= r / norm
    return out


def md_run(field, domain, config=None, on_certificate=None):
    """Projected (Euclidean) mirror descent with accuracy certificates.

    Steps xi_{i+1} = Proj(xi_i - gamma_i F(xi_i)) from `SolverConfig.start`
    (the origin when None) with gamma_i = R/(Lhat_i sqrt(i)), Lhat_i the
    running max of the field norms.  All steps are productive.  Rounds
    (see _Run), `on_certificate` and the stop rules are those of
    `ellipsoid_run`; each round also tries the normalized step sizes, the
    classical certificate with its O(1/sqrt(t)) residual, so no round's
    residual is above theirs.

    Returns a SolveResult.
    """
    run = _Run(field, domain, config, on_certificate)
    start = run.config.start
    xi = np.zeros(domain.dim) if start is None else np.array(start, dtype=float)
    if xi.shape != (domain.dim,) or not np.isfinite(xi).all():
        raise ValueError(f"start must be finite of shape ({domain.dim},), not {xi.shape}")
    xi = _project_blocks(xi, run.balls)
    gammas = []
    lhat, i = 0.0, 0
    for i in range(1, run.config.max_steps + 1):
        value = run.evaluate(xi, i)
        lhat = max(lhat, _norm(value), 1e-30)
        gammas.append(run.radius / (lhat * math.sqrt(i)))
        xi = _project_blocks(xi - gammas[-1] * value, run.balls)
        if i >= run.due:
            stop = run.round(i, [AccuracyCertificate(np.divide(gammas, math.fsum(gammas)))])
            if stop:
                break
    else:
        stop = "max_steps"
    return run.result(i, stop, [AccuracyCertificate(np.divide(gammas, math.fsum(gammas)))])


_HIGHS_CORE = "scipy.optimize._highspy._core"


@functools.cache
def _highs_core():
    """scipy's compiled HiGHS binding, the extension that linprog runs.
    It is loaded from its file next to the installed scipy, so the
    scipy.optimize package (which imports scipy.linalg, sparse, spatial
    and special) is not imported.  The module is registered under its
    dotted name before it runs, so a later `import scipy.optimize` reuses
    it rather than loading the extension a second time."""
    core = sys.modules.get(_HIGHS_CORE)
    if core is not None:
        return core
    scipy = importlib.util.find_spec("scipy")
    folder = os.path.join(os.path.dirname(scipy.origin), "optimize", "_highspy") if scipy else ""
    paths = [os.path.join(folder, "_core" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy's HiGHS extension {_HIGHS_CORE} was not found "
                          f"(no {os.path.join(folder, '_core*.so')}); "
                          "lmodecomp needs scipy>=1.17,<1.18")
    spec = importlib.util.spec_from_file_location(_HIGHS_CORE, path)
    core = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_CORE] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[_HIGHS_CORE]
        raise
    return core


class _Rejected(RuntimeError):
    """An LP was rejected: HiGHS rejected a change to its model or found no
    optimum, or a restricted LP's tableau found none."""


def _optimum(highs):
    """Run HiGHS on its model and return the solution.  Where the run
    reports no optimum, clear the solver, so that the next run starts
    afresh, and raise _Rejected."""
    core = _highs_core()
    if (highs.run() == core.HighsStatus.kError
            or highs.getModelStatus() != core.HighsModelStatus.kOptimal):
        highs.clearSolver()
        raise _Rejected("HiGHS reported no optimum")
    return highs.getSolution()


def _new_highs():
    """An empty HiGHS model with the options of every LP here: no output, no
    presolve, and feasibility tolerances of 1e-10, since residuals are
    certified far below the default 1e-7."""
    highs = _highs_core()._Highs()
    for name, value in (("output_flag", False), ("presolve", "off"),
                        ("primal_feasibility_tolerance", 1e-10),
                        ("dual_feasibility_tolerance", 1e-10)):
        highs.setOptionValue(name, value)
    return highs


_thread = threading.local()  # .highs: the thread's model for restricted-master LPs


class CertificateLP:
    """The best-certificate LP of one run, as one persistent HiGHS model:
    maximize s over columns (s, a, b), (a, b) in the box of the balls,
    subject to protocol rows s - <F_i, (a, b)> <= c_i and tangent cuts of
    the balls.  A protocol row is added when it enters a working set and
    deleted when a round starts without it; cuts stay valid and are kept.
    Every solve is a dual simplex hot start from the last basis.  `rows`
    maps each model row to its protocol index (-1 for a cut), `solves`
    counts the solves, and `point` is the (a, b) of the last optimal solve
    (zeros for a fresh model).  `radii`, `split` and `dim` are the values
    the model was built for.  Rows are keyed by protocol index, so one
    model serves the growing prefixes of one protocol; on any other
    protocol, rows that it kept from the first one only cost certificate
    quality.  HiGHS rejects a row block whole (for instance one with a
    coefficient of 1e15 or more) and leaves the model as it was; `rows`
    follows the model, and `hold` and `add_cut` raise _Rejected, as
    `solve` does where HiGHS reports no optimum.
    """

    def __init__(self, radii, split, dim):
        self.highs, self._error = _new_highs(), _highs_core().HighsStatus.kError
        upper = np.array([np.inf] + [r for sl, r in _balls(radii, split, dim)
                                     for _ in range(sl.start, sl.stop)])
        cost = np.zeros(1 + dim)
        cost[0] = -1.0  # maximize s
        empty = np.zeros(0, dtype=np.int32)
        self.highs.addCols(1 + dim, cost, -upper, upper, 0, empty, empty, np.zeros(0))
        self.radii, self.split, self.dim = tuple(radii), split, dim
        self.rows = np.zeros(0, dtype=np.int64)
        self.solves = 0
        self.point = np.zeros(dim)

    def _add_rows(self, coef, rhs, ids):
        r, j = np.nonzero(coef)
        starts = np.searchsorted(r, np.arange(len(coef))).astype(np.int32)
        status = self.highs.addRows(len(coef), np.full(len(coef), -np.inf), rhs, len(r),
                                    starts, j.astype(np.int32), coef[r, j])
        if status == self._error:
            raise _Rejected(f"HiGHS rejected {len(coef)} rows")
        self.rows = np.concatenate([self.rows, ids])

    def hold(self, in_set, fv, c):
        """Hold exactly the protocol rows i with in_set[i], and every cut;
        rows past the end of in_set (kept from a longer protocol) go."""
        t, rows = len(in_set), self.rows
        dropped = (rows >= t) | ((rows >= 0) & ~in_set[np.minimum(rows, t - 1)])
        drop = dropped.nonzero()[0]
        if len(drop):
            if self.highs.deleteRows(len(drop), drop.astype(np.int32)) == self._error:
                raise _Rejected(f"HiGHS rejected deleting {len(drop)} rows")
            rows = self.rows = rows[~dropped]
        held = np.zeros(t, dtype=bool)
        held[rows[rows >= 0]] = True
        new = (in_set & ~held).nonzero()[0]
        if len(new):
            coef = np.empty((len(new), 1 + fv.shape[1]))
            coef[:, 0] = 1.0
            np.negative(fv[new], out=coef[:, 1:])
            self._add_rows(coef, c[new], new)

    def add_cut(self, coef, rhs):
        """Append the row <coef, (s, a, b)> <= rhs."""
        self._add_rows(coef[None, :], np.array([rhs]), np.array([-1]))

    def solve(self, t):
        """(s, a, b) and the weights max(-row dual, 0) on a protocol of
        length t; _Rejected where HiGHS does not report an optimum (see
        _optimum)."""
        self.solves += 1
        sol = _optimum(self.highs)
        duals = np.array(sol.row_dual)
        lam = np.zeros(t)
        is_row = self.rows >= 0
        lam[self.rows[is_row]] = np.maximum(-duals[is_row], 0.0)
        x = np.array(sol.col_value)
        self.point = x[1:]
        return x, lam


def optimize_certificate(protocol, radii, split, warm_start=None, tol=None, lp=None,
                         candidates=(), max_solves=_MAX_LP_SOLVES):
    """Best accuracy certificate for a protocol over a product of
    origin-centered balls, from the dual linear program.

    With c_i = <F_i, w_i> and F_i = (G_i, H_i), minimax turns
    min_{lam in simplex} sum lam_i c_i + R_U ||sum lam_i G_i|| + R_V ||sum lam_i H_i||
    into max_{||a|| <= R_U, ||b|| <= R_V} min_i c_i + <F_i, (a, b)>: an LP
    in (s, a, b) once the balls become a box refined by tangent (Kelley)
    cuts, whose HiGHS duals on the protocol rows are the weights.  The LP
    holds a working set of rows, grown by the rows each solution violates.
    It lives in `lp`, a CertificateLP built for the same radii, split and
    dimension (ValueError otherwise) that a run carries across its rounds
    (a fresh one when None, built only where the call solves an LP): each
    call first deletes the model's protocol rows outside its starting
    working set, keeps the cuts, and re-solves from the last basis.  One
    model serves the growing prefixes of one protocol; on any other, the
    rows it kept only cost certificate quality: every residual and bound
    is computed from the protocol given.  Any (a, b) in the balls bounds
    the optimum from below by min_i c_i + <F_i, (a, b)>.  A call starts
    from the LP's last optimal (a, b), `lp.point` (the origin without an
    LP), projected onto the balls: the least rows there seed the working
    set, and their value is the first bound.  Each solve's
    projected (a, b) is tried, and the loop stops when the best residual is
    within a relative 1e-6 of the bound, or below tol/4.  The bound is the
    certificate's `lower`.
    A row block or cut that HiGHS rejects, a solve without an optimum, or
    `max_solves` solves end the loop; with max_solves 0 the call scores the
    candidates alone and leaves `lp` as it was, and so does a protocol of
    one entry, whose only certificate is the weight 1, its residual also
    the bound.  Never worse than uniform weights, the warm start or the
    `candidates`, tried in that order.  The warm start and each candidate
    may cover a prefix of the protocol and are scored as their weights
    padded with zeros; one longer than the protocol raises ValueError.
    Only the warm start's support seeds the working set: a candidate with
    full support does not put every protocol row into the LP.

    A round computes c and scale = max(1, max|F|, max|c|) from the
    protocol, with the row sums of residual_ball_product, and evaluates
    each candidate's residual once, by that function's closed form.
    The certificate's `residual` is the best one found, equal to
    residual_ball_product on the protocol.
    """
    t = len(protocol)
    if t == 0:
        raise ValueError("cannot optimize a certificate for an empty protocol")
    d = protocol.dim
    fv = protocol.field_values
    balls = _balls(radii, split, d)
    if lp is not None and (lp.radii, lp.split, lp.dim) != (tuple(radii), split, d):
        raise ValueError(f"the LP was built for radii {lp.radii}, split {lp.split} and "
                         f"dimension {lp.dim}, not {tuple(radii)}, {split} and {d}")
    c = (fv * protocol.points).sum(axis=1)
    scale = max(1.0, float(np.abs(fv).max()), float(np.abs(c).max()))
    tried = [np.full(t, 1.0 / t)]
    for cert in list(candidates) if warm_start is None else [warm_start, *candidates]:
        if len(cert) > t:
            raise ValueError("a warm start or candidate is longer than the protocol")
        tried.append(np.zeros(t))  # zero-padded where it covers a prefix
        tried[-1][:len(cert)] = cert.weights
    # the LP's working set of protocol rows, seeded by the warm start's support
    in_set = tried[1] > 0.0 if warm_start is not None else np.zeros(t, dtype=bool)

    best = None
    for lam in tried:  # the first of equal residuals wins
        f = _ball_residual(lam, c, fv, radii, split)
        if best is None or f < f_best:
            best, f_best = lam, f
    if t == 1:  # the weight 1 is the only certificate, so its residual is the least
        return AccuracyCertificate(best, lower=f_best, residual=f_best)
    start = c + fv.dot(_project_blocks(np.zeros(d) if lp is None else lp.point, balls))
    lower = float(start.min())
    if not max_solves:
        return AccuracyCertificate(best, lower=min(lower, f_best), residual=f_best)
    if lp is None:
        lp = CertificateLP(radii, split, d)
    in_set[np.argsort(start, kind="stable")[:8 * (d + 1)]] = True  # binding at the start
    gap_tol = 1e-13 * scale if tol is None else max(1e-13 * scale, 0.25 * tol)
    try:
        lp.hold(in_set, fv, c)  # drops the earlier rounds' rows outside this working set
        for _ in range(max_solves):
            if f_best - lower <= max(gap_tol, 1e-6 * abs(lower)) or (
                    tol is not None and f_best <= gap_tol):
                break
            x, lam = lp.solve(t)
            s, ab = x[0], x[1:]
            proj = _project_blocks(ab, balls)
            lower = max(lower, float((c + fv.dot(proj)).min()))
            total = lam.sum()
            if total > 0.0:
                lam /= total
                f = _ball_residual(lam, c, fv, radii, split)
                if f < f_best:
                    best, f_best = lam, f
            cut = False
            for sl, r in balls:
                if (proj[sl] != ab[sl]).any():  # outside this ball: cut at the projection
                    coef = np.zeros(1 + d)
                    coef[1:][sl] = proj[sl] / r
                    lp.add_cut(coef, r)
                    cut = True
            at_ab = c + fv.dot(ab)
            violated = (~in_set & (at_ab < s - 1e-12 * scale)).nonzero()[0]
            if len(violated) == 0 and not cut:
                break  # the LP optimum is feasible for the balls and all rows
            in_set[violated[np.argsort(at_ab[violated], kind="stable")[:4 * (d + 1)]]] = True
            lp.hold(in_set, fv, c)
    except _Rejected:
        pass  # numerical trouble: keep the best certificate found so far
    # lower can round above an optimal certificate's residual by an ulp
    return AccuracyCertificate(best, lower=min(lower, f_best), residual=f_best)


def _restricted_lp(images, blocks, normals, row_blocks, rhs, cost):
    """Solve the restricted master LP of a certificate round:

        minimize  <cost, eta> + sum_b v_b
        over      eta >= 0, sum of eta_j over block b = 1 for each block b,
                  and free v,
        s.t.      <normals[r], images eta> - v[row_blocks[r]] <= rhs[r] for each row r.

    Column j of `images` (K x n) is the K-dimensional image of atom j, in
    block blocks[j]; `normals` is R x K.  Where _tabled says so, a choice
    by the sizes alone, the rows read the R x n pairing table normals @
    images, and _tableau solves the LP on one dense simplex tableau.
    Otherwise _image_lp writes it for HiGHS through K free image columns
    x = images eta, so that the rows read <normals[r], x> and the table is
    never built.
    Returns (eta, y): eta clipped at 0 and normalized per block, and y the
    rows' duals max(-dual, 0), which sum to 1 over each row block at an
    optimum, normalized per row block (for a game, the maximizer's mixed
    strategy).  Raises _Rejected where the LP is rejected: a block without
    atoms or rows, no optimum found, or a block left without weight."""
    k, n = images.shape
    r, n_blocks = len(normals), int(blocks.max()) + 1
    if _tabled(n, r, k):
        eta, y = _tableau(normals.dot(images), blocks, row_blocks, rhs, cost, n_blocks)
    else:
        eta, y = _image_lp(images, blocks, normals, row_blocks, rhs, cost, n_blocks)
    eta, y = np.maximum(eta, 0.0), np.maximum(y, 0.0)
    eta_mass = np.bincount(blocks, eta, minlength=n_blocks)
    y_mass = np.bincount(row_blocks, y, minlength=n_blocks)
    if not (eta_mass.min() > 0.0 and y_mass.min() > 0.0):
        raise _Rejected("the restricted LP left a block without weight")
    return eta / eta_mass[blocks], y / y_mass[row_blocks]


def _tabled(n, r, k):
    """Whether a restricted LP of n atoms with K-dimensional images and R rows
    is solved on the tableau of its R x n pairing table, not by HiGHS
    through the images: where the table has at most 1024 entries, or its
    nR + R + n nonzeros are at most the (n + R)(K + 1) + K of the image
    rows.  The tableau's cost grows with the table, HiGHS's with the image
    rows: on recorded and random LPs with K up to 32 the two crossed at
    about 2000-3600 table entries."""
    return n * r <= max(1024, (n + r + 1) * k)


def _pivot(tab, basis, row, col):
    """Pivot the tableau `tab` on (row, col): the variable of column col
    enters the basis in that row."""
    prow = tab[row] / tab[row, col]
    tab -= tab[:, col, None] * prow
    tab[row] = prow
    basis[row] = col


def _tableau(table, blocks, row_blocks, rhs, cost, n_blocks):
    """(eta, row duals) of the restricted LP (see _restricted_lp) with the
    R x n pairing table `table`, by the primal simplex method on one dense
    tableau.  Its columns are eta, v and one slack per row, its rows the R
    rows and the simplex rows, then the reduced costs.  The crash start
    makes the first atom of each block basic in its simplex row, then v_b
    basic in its block's most violated row, so every slack is feasible.
    Each pivot enters the least reduced cost, or after a degenerate pivot
    the first negative one (Bland, Math. Oper. Res. 2, 1977, so the method
    cannot cycle), and leaves the least ratio, ties to the least basic
    index; a free v_b never leaves.  Reduced costs within 1e-13 of the
    largest input entry (at least 1) count as 0, and column entries up to
    1e-9 of it bound no ratio.  Raises _Rejected for a block without atoms
    or rows, a non-finite entry, an unbounded column or more pivots than
    10 per tableau row and column."""
    r, n = table.shape
    rows, width = r + n_blocks, n + n_blocks + r
    tab = np.zeros((rows + 1, width + 1))
    tab[:r, :n] = table
    tab[:r, -1] = rhs
    tab[r:rows, -1] = 1.0
    tab[-1, :n] = cost
    tab[-1, n:n + n_blocks] = 1.0
    tab.reshape(-1)[n + n_blocks:r * (width + 2):width + 2] = 1.0  # the slacks
    tab[np.arange(r), n + row_blocks] = -1.0
    tab[r + blocks, np.arange(n)] = 1.0
    scale = np.abs(tab).max()
    if not scale < np.inf:
        raise _Rejected("the restricted LP has a non-finite entry")
    basis = list(range(n + n_blocks, width)) + [-1] * n_blocks
    atoms, row_list = blocks.tolist(), row_blocks.tolist()
    for b in range(n_blocks):
        if b not in atoms or b not in row_list:
            raise _Rejected("the restricted LP has a block without atoms or rows")
        _pivot(tab, basis, r + b, atoms.index(b))
    slack = tab[:r, -1].tolist()  # v_b's pivot leaves the other blocks' rows as they are
    free = [min((s, i) for i, s in enumerate(slack) if row_list[i] == b)[1]
            for b in range(n_blocks)]  # the rows of v, which stay basic
    for b, row in enumerate(free):
        _pivot(tab, basis, row, n + b)
    bounded = [i for i in range(rows) if i not in free]
    tol, least_pivot, reduced, bland = 1e-13 * scale, 1e-9 * scale, tab[-1, :-1], False
    for _ in range(10 * (rows + width)):
        q = (reduced < -tol).argmax() if bland else reduced.argmin()
        if not reduced[q] < -tol:
            x = np.zeros(width)
            x[basis] = tab[:rows, -1]
            return x[:n], tab[-1, n + n_blocks:width]
        col, now = tab[:rows, q].tolist(), tab[:rows, -1].tolist()
        least = min(((now[i] / col[i], basis[i], i) for i in bounded if col[i] > least_pivot),
                    default=None)
        if least is None:
            raise _Rejected("the restricted LP is unbounded")
        bland = least[0] <= 0.0
        _pivot(tab, basis, least[2], q)
    raise _Rejected("the restricted LP took more than its pivot cap")


def _image_lp(images, blocks, normals, row_blocks, rhs, cost, n_blocks):
    """(eta, row duals) of the restricted LP (see _restricted_lp) written
    through K free image columns x = images eta, solved on the thread's
    HiGHS model.  The columns are (eta, x, v) and the rows (x = images
    eta, the R rows, the simplex rows block by block), each written at its
    fixed length in one pass into arrays allocated once: (n + R)(K + 1) +
    K entries.  HiGHS drops the stored entries of magnitude up to 1e-9,
    exact zeros among them, itself (with a warning status, not an error).
    The model is the thread's own, built once by _new_highs and cleared
    before each LP, so a solve costs about one HiGHS run and no two
    threads share a model.  The row duals are -row_dual.  Raises _Rejected
    where HiGHS rejects the model or reports no optimum (see _optimum)."""
    k, n = images.shape
    r = len(normals)
    cols, rows = n + k + n_blocks, k + r + n_blocks
    # each row's nonzero slots, row by row: an image row's -images[i] on eta and
    # 1 on x_i, an R row's normal on x and -1 on v, and a simplex row's 1 on
    # each eta of its block
    head, tail = k * (n + 1), k * (n + 1) + r * (k + 1)
    values, indices = np.empty(tail + n), np.empty(tail + n, dtype=np.int32)
    val, idx = values[:head].reshape(k, n + 1), indices[:head].reshape(k, n + 1)
    np.negative(images, out=val[:, :n])
    val[:, n] = 1.0
    idx[:, :n] = np.arange(n)
    idx[:, n] = np.arange(n, n + k)
    val, idx = values[head:tail].reshape(r, k + 1), indices[head:tail].reshape(r, k + 1)
    val[:, :k] = normals
    val[:, k] = -1.0
    idx[:, :k] = np.arange(n, n + k)
    idx[:, k] = row_blocks + (n + k)
    values[tail:] = 1.0
    indices[tail:] = blocks.argsort(kind="stable")
    # each row's first slot: image rows of n + 1 slots, R rows of K + 1 and
    # simplex rows of their blocks' sizes
    starts = np.empty(rows, dtype=np.int32)
    starts[:k] = np.arange(0, head, n + 1)
    starts[k:k + r] = np.arange(head, tail, k + 1)
    starts[k + r:] = tail
    starts[k + r + 1:] += np.bincount(blocks)[:-1].cumsum()
    # costs, lower and upper bounds of the columns; lower and upper bounds of the rows
    col_bounds, row_bounds = np.empty((3, cols)), np.empty((2, rows))
    col_bounds[0, :n] = cost
    col_bounds[0, n:n + k] = 0.0
    col_bounds[0, n + k:] = 1.0
    col_bounds[1, :n] = 0.0
    col_bounds[1, n:] = -np.inf
    col_bounds[2] = np.inf
    row_bounds[:, :k] = 0.0
    row_bounds[0, k:k + r] = -np.inf
    row_bounds[1, k:k + r] = rhs
    row_bounds[:, k + r:] = 1.0
    error = _highs_core().HighsStatus.kError
    highs = getattr(_thread, "highs", None)
    if highs is None:
        highs = _thread.highs = _new_highs()
    highs.clearModel()  # keeps the options
    empty = np.zeros(0, dtype=np.int32)
    if (highs.addCols(cols, *col_bounds, 0, empty, empty, np.zeros(0)) == error
            or highs.addRows(rows, *row_bounds, len(values), starts, indices, values) == error):
        raise _Rejected("HiGHS rejected the restricted LP")
    sol = _optimum(highs)
    return sol.col_value[:n], np.negative(sol.row_dual[k:k + r])


class _Rounds:
    """The `on_certificate` of every game and VI run, which keeps the latest
    round's atoms in `atoms`.  `atoms_of(cert, payloads)` is the atoms that
    the certificate transfers, and `evaluate(atoms)` is ((atoms, gap, rho,
    fields), reply) of any atoms, the certificate's and each restricted
    equilibrium's alike, reply the payload of the best replies to them that
    the gap evaluation found (None for an affine VI, whose gap function
    finds none).  Where `solve` is given, a round also solves the
    restricted master, closed by a double-oracle loop (McMahan, Gordon &
    Blum, ICML 2003) whose oracle work the run's own steps bound, over the
    pool that the rounds own: per side of a game or block of a skew VI,
    one {key: column} table of the payloads' pure strategies, `held`, and
    one of every reply's, `found`, the certificates' and the equilibria's
    in the order found.  `strategies(payload)` is a payload's (key,
    column) pairs, one per side or block, read once per payload and reply:
    a round adds the payloads that are new since the previous round, and
    each reply joins when found.  `solve(pool)` is the equilibrium of the
    problem restricted to `pool`, one {**held, **found} table per side, so
    the payloads' strategies come first and the replies' after, each in
    first-occurrence order; it raises _Rejected where the LP is rejected,
    and the round takes that as no equilibrium.  An affine VI's rounds
    keep no pool."""

    def __init__(self, threshold, atoms_of, evaluate, solve=None, strategies=None):
        self.threshold, self.atoms_of, self.evaluate = threshold, atoms_of, evaluate
        self.solve, self.strategies = solve, strategies
        self.held, self.found = collections.defaultdict(dict), collections.defaultdict(dict)
        self.atoms, self.t = None, 0  # the protocol length at the previous round

    def _join(self, tables, payload):
        """Add the payload's strategies to `tables`; return their keys."""
        keys = []
        for side, (key, column) in enumerate(self.strategies(payload)):
            tables[side][key] = column
            keys.append(key)
        return keys

    def __call__(self, protocol, cert, payloads):
        """The round's fields.  The round solves the restricted master over
        the pool, the certificate's reply already in it, so its first LP
        holds the best replies to the certificate's atoms at no further
        oracle call.  It evaluates the master's equilibrium, then solves
        again with the new reply for as long as the gap is above
        max(threshold, rho), the reply holds a pure strategy that the
        master lacks and the round has re-solved fewer times than the
        protocol grew since the previous round.  A rejected LP ends the
        loop and counts as a solve.  A re-solve makes the oracle calls of
        one field evaluation, so the loop at most doubles the run's oracle
        work.  The round returns what _choose_atoms picks from the
        certificate's atoms and every equilibrium it evaluated, with
        `master_columns` (each side's pool at the last solve) and
        `master_solves` as SolveResult says."""
        (certified, reply), equilibria = self.evaluate(self.atoms_of(cert, payloads)), []
        master = {"master_columns": None, "master_solves": 0}
        if self.solve is not None:
            for payload in payloads[self.t:]:
                self._join(self.held, payload)
            budget, self.t = len(payloads) - self.t, len(payloads)
            self._join(self.found, reply)
            solves = 0
            while True:
                pool = [{**self.held[side], **found} for side, found in self.found.items()]
                solves += 1
                try:
                    atoms = self.solve(pool)
                except _Rejected:
                    break
                restricted, reply = self.evaluate(atoms)
                equilibria.append(restricted)
                keys = self._join(self.found, reply)
                _, gap, rho, _ = restricted
                if not (gap > max(self.threshold, rho) and solves <= budget
                        and any(key not in table for key, table in zip(keys, pool))):
                    break
            master = {"master_columns": tuple(map(len, pool)), "master_solves": solves}
        self.atoms, fields = _choose_atoms(cert.residual, self.threshold, certified, *equilibria)
        return {**fields, **master}


def _choose_atoms(residual, threshold, certified, *restricted):
    """(atoms, fields) that a certificate round returns.  `certified` and
    each of `restricted` are (atoms, gap, rho, fields) of the certificate's
    atoms and of a restricted master's equilibrium, in the order evaluated:
    their computed gap, its floating-point allowance rho and the fields to
    record.  The certificate's atoms are bounded by min(residual, gap +
    rho), but never below their own computed gap (the residual may round
    below it), the restricted ones by gap + rho.  The round returns the
    first set with the least key (gap > threshold, bound): a gap that
    meets `threshold` first, then the least bound, and on a tie the
    certificate's, then the earliest equilibrium.  Its fields gain that
    set's gap and bound, `cert_gap` (the certificate's gap, which the
    round checks and paces by) and `atoms`, "certificate" or
    "restricted"."""
    atoms, gap, rho, fields = certified
    out = {**fields, "gap": gap, "bound": max(min(residual, gap + rho), gap),
           "cert_gap": gap, "atoms": "certificate"}
    sets = [(atoms, out)] + [
        (r_atoms, {**out, **r_fields, "gap": r_gap, "bound": r_gap + r_rho,
                   "atoms": "restricted"})
        for r_atoms, r_gap, r_rho, r_fields in restricted]
    return min(sets, key=lambda s: (s[1]["gap"] > threshold, s[1]["bound"]))
