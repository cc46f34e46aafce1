import numpy as np
import pytest

from lmodecomp.certificates import (
    AccuracyCertificate,
    ExecutionProtocol,
    residual,
    residual_ball_product,
)
from lmodecomp.domains import Ball, Product, Simplex


def _protocol(rng, t, d):
    return ExecutionProtocol.from_lists(
        rng.normal(size=(t, d)), rng.normal(size=(t, d)), range(1, t + 1))


def test_certificate_validation():
    with pytest.raises(ValueError):
        AccuracyCertificate(np.array([0.5, -0.1, 0.6]))
    with pytest.raises(ValueError):
        AccuracyCertificate(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):  # NaN compares False with everything
        AccuracyCertificate(np.array([np.nan, 1.0]))
    c = AccuracyCertificate.uniform(4)
    assert np.allclose(c.weights, 0.25)


def test_residual_hand_value_on_simplex():
    # one point w=e1 with field F=(1,-1): Res = <F,w> - min_j F_j = 1 - (-1)
    prot = ExecutionProtocol.from_lists([[1.0, 0.0]], [[1.0, -1.0]], [1])
    cert = AccuracyCertificate(np.array([1.0]))
    rep = residual(prot, cert, Simplex(2))
    assert abs(rep.residual - 2.0) < 1e-12
    assert np.array_equal(rep.witness, [0.0, 1.0])


def test_ball_product_closed_form_matches_lmo_residual():
    rng = np.random.default_rng(1)
    dom = Product([Ball(np.zeros(3), 1.5), Ball(np.zeros(2), 0.5)])
    prot = _protocol(rng, 12, 5)
    w = rng.uniform(size=12)
    cert = AccuracyCertificate(w / w.sum())
    closed = residual_ball_product(prot, cert, (1.5, 0.5), 3)
    generic = residual(prot, cert, dom).residual
    assert abs(closed - generic) < 1e-10


def test_single_ball_split_conventions():
    rng = np.random.default_rng(2)
    prot = _protocol(rng, 5, 4)
    cert = AccuracyCertificate.uniform(5)
    a = residual_ball_product(prot, cert, (2.0, 0.0), 4)
    b = residual(prot, cert, Ball(np.zeros(4), 2.0)).residual
    assert abs(a - b) < 1e-12


def test_length_mismatch_raises():
    rng = np.random.default_rng(3)
    prot = _protocol(rng, 4, 2)
    with pytest.raises(ValueError):
        residual(prot, AccuracyCertificate.uniform(3), Simplex(2))
    # step ids: one integer per entry, whether a tuple or an int64 array
    for ids in (prot.step_ids[:3], ("a",) * 4, np.arange(8).reshape(4, 2), (1, 2, 1.7, 4)):
        with pytest.raises(ValueError):
            ExecutionProtocol(prot.points, prot.field_values, ids, 2)
    from_array = ExecutionProtocol(prot.points, prot.field_values, np.arange(1, 5), 2)
    assert from_array.step_ids == prot.step_ids == (1, 2, 3, 4)
    assert all(type(i) is int for i in from_array.step_ids)


def test_prefix():
    rng = np.random.default_rng(4)
    prot = _protocol(rng, 6, 3)
    sub = prot.prefix(2)
    assert len(sub) == 2
    assert sub.step_ids == prot.step_ids[:2]
    assert np.array_equal(sub.points, prot.points[:2])
