"""Execution protocols, accuracy certificates and residuals.

A protocol records the search points visited by a first-order method
together with the vector-field values at those points.  A certificate is
a probability vector over the protocol entries.  Together they yield a
weighted approximate solution and a computable residual that upper
bounds the saddle-point gap (or the VI dual gap) of that solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracles import integers

__all__ = [
    "CertificateError",
    "ExecutionProtocol",
    "AccuracyCertificate",
    "ResidualReport",
    "residual",
    "residual_ball_product",
]


class CertificateError(RuntimeError):
    """A certified bound failed its own check, e.g. an exact gap above the
    residual that is supposed to bound it."""


@dataclass(frozen=True)
class ExecutionProtocol:
    """Search points w_i with field values F_i = M(w_i) and step ids."""

    points: np.ndarray        # (t, d)
    field_values: np.ndarray  # (t, d)
    step_ids: tuple           # length t, global solver step indices
    dim: int

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        fv = np.atleast_2d(np.asarray(self.field_values, dtype=float))
        ids = integers(self.step_ids, "step_ids")  # free for the run's int64 ids
        if pts.shape != fv.shape or ids.shape != pts.shape[:1]:
            raise ValueError("points, field_values and step_ids must have equal length")
        if pts.shape[0] > 0 and pts.shape[1] != self.dim:
            raise ValueError(f"point dimension {pts.shape[1]} != declared dim {self.dim}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "field_values", fv)
        object.__setattr__(self, "step_ids", tuple(ids.tolist()))

    def __len__(self):
        return self.points.shape[0]

    @classmethod
    def from_lists(cls, points, field_values, step_ids):
        """The protocol of per-entry points and field values, of the points' dimension."""
        pts = np.asarray(points, dtype=float).reshape(len(points), -1)
        return cls(pts, np.asarray(field_values, dtype=float).reshape(pts.shape),
                   tuple(step_ids), pts.shape[1] if pts.size else 0)

    def prefix(self, t):
        """Sub-protocol of the first t entries."""
        return ExecutionProtocol(self.points[:t], self.field_values[:t],
                                 self.step_ids[:t], self.dim)


@dataclass(frozen=True)
class AccuracyCertificate:
    """Nonnegative weights summing to one, one per protocol entry.

    `lower`, when known, is a certified lower bound on the smallest
    residual that any certificate for the same protocol attains, and
    `residual`, when known, is this certificate's own residual on that
    protocol, as the search that found it computed it.
    """

    weights: np.ndarray
    lower: float | None = None
    residual: float | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("certificate weights must be a vector")
        # both checks are written so that NaN weights fail them
        if not (w >= 0).all():
            raise ValueError("certificate weights must be nonnegative")
        total = w.sum()
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"certificate weights sum to {total}, expected 1")
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return self.weights.shape[0]

    @classmethod
    def uniform(cls, t):
        return cls(np.full(t, 1.0 / t))


@dataclass(frozen=True)
class ResidualReport:
    residual: float
    witness: np.ndarray  # the point of W realizing the max in the residual
    lmo_value: float


def _check_pair(protocol, cert):
    if len(protocol) != len(cert):
        raise ValueError(
            f"certificate length {len(cert)} does not match protocol length {len(protocol)}"
        )


def residual(protocol, cert, domain):
    """Res = sum_i lambda_i <F_i, w_i> - min_{w in W} <sum_i lambda_i F_i, w>.

    Makes exactly one LMO call, on the aggregated field.
    """
    _check_pair(protocol, cert)
    if protocol.dim != domain.dim:
        raise ValueError(
            f"protocol dim {protocol.dim} does not match domain dim {domain.dim}"
        )
    lam = cert.weights
    # pairwise summation via np.sum keeps accumulation error small on long protocols
    diag = float(np.sum(lam * np.sum(protocol.field_values * protocol.points, axis=1)))
    agg = lam @ protocol.field_values
    witness, lmo_value = domain.lmo(agg)
    return ResidualReport(residual=diag - lmo_value, witness=witness, lmo_value=lmo_value)


def residual_ball_product(protocol, cert, radii, split):
    """Closed-form residual when W is a product of origin-centered balls.

    The field values split at `split` into blocks (G_i, H_i); the residual
    equals sum_i lambda_i <F_i, w_i> + R_U ||sum lambda G|| + R_V ||sum lambda H||.
    No LMO call is needed.
    """
    _check_pair(protocol, cert)
    if not 0 <= split <= protocol.dim:
        raise ValueError(f"split index {split} out of range for dim {protocol.dim}")
    fv = protocol.field_values
    return _ball_residual(cert.weights, np.sum(fv * protocol.points, axis=1), fv, radii, split)


def _ball_residual(lam, c, fv, radii, split):
    """Residual of weights lam with c_i = <F_i, w_i>: the closed form of
    residual_ball_product, which a certificate search calls on each weight
    vector it tries.  The one place this formula is written."""
    r_u, r_v = radii
    # pairwise summation (the ufunc reduce of ndarray.sum) keeps accumulation
    # error small on long protocols
    diag = float((lam * c).sum())
    # einsum, not a BLAS product: threaded BLAS splits this sum by thread count
    agg = np.einsum("i,ij->j", lam, fv)
    # sqrt(u.dot(u)) is what np.linalg.norm(u) computes, without matmul's dispatch
    u, v = agg[:split], agg[split:]
    return diag + r_u * math.sqrt(u.dot(u)) + r_v * math.sqrt(v.dot(v))
