import numpy as np
import pytest

from lmodecomp.domains import Ball, FiniteAtoms, Product, Simplex


def test_simplex_lmo_min_entry():
    point, value = Simplex(3).lmo(np.array([3.0, 1.0, 2.0]))
    assert np.array_equal(point, [0.0, 1.0, 0.0])
    assert value == 1.0


def test_simplex_lmo_tie_break_lowest_index():
    point, value = Simplex(3).lmo(np.zeros(3))
    assert np.array_equal(point, [1.0, 0.0, 0.0])
    assert value == 0.0


def test_ball_lmo():
    point, value = Ball(np.zeros(2), 2.0).lmo(np.array([3.0, 4.0]))
    assert np.allclose(point, [-1.2, -1.6])
    assert abs(value + 10.0) < 1e-12


def test_product_lmo_blockwise():
    dom = Product([Simplex(2), Ball(np.zeros(2), 1.0)])
    c = np.array([2.0, 1.0, 0.0, 1.0])
    point, value = dom.lmo(c)
    assert np.array_equal(point[:2], [0.0, 1.0])
    assert np.allclose(point[2:], [0.0, -1.0])
    assert abs(value - (1.0 - 1.0)) < 1e-12


def test_finite_atoms_lmo():
    atoms = FiniteAtoms(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
    point, value = atoms.lmo(np.array([1.0, 3.0]))
    assert np.array_equal(point, [1.0, 0.0])
    assert value == 1.0


def test_finite_atoms_answer_from_their_own_read_only_copy():
    # a caller's later write to its array changes no answer, and the point
    # is a read-only view of the stored atom, not a fresh copy per call
    data = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    atoms = FiniteAtoms(data)
    data[0] = [9.0, 9.0]
    point, value = atoms.lmo(np.array([1.0, 3.0]))
    assert np.array_equal(point, [1.0, 0.0]) and value == 1.0
    assert np.shares_memory(point, atoms.atoms)
    with pytest.raises(ValueError, match="read-only"):
        point[0] = 2.0


@pytest.mark.parametrize("dom", [
    Simplex(4),
    Ball(np.zeros(3), 2.5),
    FiniteAtoms(np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0], [2.0, 2.0, 2.0]])),
    Product([Simplex(2), Ball(np.zeros(2), 1.5)]),
])
def test_lmo_value_lower_bounds_feasible_points(dom):
    rng = np.random.default_rng(0)
    for _ in range(100):
        c = rng.normal(size=dom.dim)
        _, value = dom.lmo(c)
        w = _sample_point(dom, rng)
        assert value <= c @ w + 1e-10


def _sample_point(dom, rng):
    if isinstance(dom, Simplex):
        w = rng.uniform(size=dom.n)
        return w / w.sum()
    if isinstance(dom, Ball):
        d = rng.normal(size=dom.dim)
        return dom.center + dom.radius * rng.uniform() * d / np.linalg.norm(d)
    if isinstance(dom, FiniteAtoms):  # a vertex of the hull
        return dom.atoms[rng.integers(len(dom.atoms))]
    if isinstance(dom, Product):
        return np.concatenate([_sample_point(f, rng) for f in dom.factors])
    raise AssertionError


def test_enclosing_radius():
    s = Simplex(3)
    assert s.enclosing_radius() == 1.0
    b = Ball(np.array([1.0, 0.0]), 2.0)
    assert b.enclosing_radius() == 3.0
    p = Product([Simplex(2), Ball(np.zeros(2), 2.0)])
    assert abs(p.enclosing_radius() - np.sqrt(5.0)) < 1e-12


@pytest.mark.parametrize("make, named", [
    (lambda: Ball(np.zeros(2), np.nan), "nan"),
    (lambda: Ball(np.zeros(2), np.inf), "inf"),
    (lambda: Ball(np.zeros(2), 0.0), "0.0"),
    (lambda: FiniteAtoms([[0.0, 1.0], [np.nan, 0.0]]), "nan"),
    (lambda: FiniteAtoms([[0.0, -np.inf]]), "-inf"),
    (lambda: Simplex(2.7), "2.7"),  # int() used to truncate it to 2
    (lambda: Simplex(True), "True"),
    (lambda: Simplex(0), "0"),
], ids=["ball-nan", "ball-inf", "ball-zero", "atoms-nan", "atoms-inf", "simplex-float",
        "simplex-bool", "simplex-zero"])
def test_non_finite_domain_data_rejected(make, named):
    with pytest.raises(ValueError, match=f"not {named}$"):
        make()


def test_query_dim_mismatch():
    with pytest.raises(ValueError):
        Simplex(3).lmo(np.zeros(2))
    with pytest.raises(ValueError):
        Ball(np.zeros(2), 1.0).lmo(np.array([np.inf, 0.0]))
