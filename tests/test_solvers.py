import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import lmodecomp
from conftest import md_step_sizes, rebuilt_gap, round_atoms
from lmodecomp import saddle, solvers, vi
from lmodecomp.certificates import (
    AccuracyCertificate,
    CertificateError,
    ExecutionProtocol,
    residual_ball_product,
)
from lmodecomp.blotto import (
    BlottoReport,
    BlottoSpec,
    build_blotto,
    random_rank1_omegas,
    solve_blotto,
)
from lmodecomp.domains import Ball, Product, Simplex
from lmodecomp.oracles import DenseMatrixOracle, KnapsackOracle, KnapsackSpec
from lmodecomp.saddle import (
    BilinearSpSpec,
    build_master_example1,
    build_master_example2,
    exact_gap,
    solve_sp,
)
from lmodecomp.solvers import (
    CertificateLP,
    FieldOracle,
    SolveResult,
    SolverConfig,
    central_cut_log_volume_ratio,
    ellipsoid_cut,
    ellipsoid_run,
    md_run,
    optimize_certificate,
)
from lmodecomp.vi import (
    AffineViSpec,
    NashSpec,
    nash_to_skew,
    solve_vi,
)

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_central_cut_volume_decrement(n):
    rng = np.random.default_rng(n)
    shape = rng.normal(size=(n, n)) + 3 * np.eye(n)
    center = rng.normal(size=n)
    g = rng.normal(size=n)
    _, shape_new = ellipsoid_cut(center, shape, g)
    _, logdet_old = np.linalg.slogdet(shape)
    _, logdet_new = np.linalg.slogdet(shape_new)
    assert abs((logdet_new - logdet_old) - central_cut_log_volume_ratio(n)) < 1e-9


def test_cut_halves_correct_side():
    # the kept half-space {x : <g, x - c> <= 0} must contain the new ellipsoid center
    center = np.zeros(3)
    shape = np.eye(3)
    g = np.array([1.0, 0.0, 0.0])
    c_new, _ = ellipsoid_cut(center, shape, g)
    assert g @ (c_new - center) < 0


def _textbook_cut(center, shape, g):
    """The central cut as it is usually written, with matmul, np.linalg.norm
    and np.outer: p = B^T g / ||B^T g||, c - B p / (n + 1) and
    beta (B - gamma (B p) p^T)."""
    n = len(center)
    bg = shape.T @ g
    p = bg / np.linalg.norm(bg)
    bp = shape @ p
    beta, gamma = n / math.sqrt(n * n - 1.0), 1.0 - math.sqrt((n - 1.0) / (n + 1.0))
    return center - bp / (n + 1.0), beta * (shape - gamma * np.outer(bp, p))


@pytest.mark.parametrize("n", [2, 6, 12, 16, 24])
def test_ellipsoid_cut_is_the_textbook_formula_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        scale = 10.0 ** rng.integers(-3, 4)
        center, g = rng.normal(size=n), rng.normal(size=n) * scale
        shape = (rng.normal(size=(n, n)) + 3 * np.eye(n)) * scale
        before = [a.copy() for a in (center, shape, g)]
        expected = _textbook_cut(center, shape, g)
        got = ellipsoid_cut(center, shape, g)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
        at_depth_zero = ellipsoid_cut(center, shape, g, depth=0.0)
        assert [a.tobytes() for a in at_depth_zero] == [a.tobytes() for a in expected]
        assert got[0] is not center and got[1] is not shape
        # the arguments are left as they are
        assert [a.tobytes() for a in (center, shape, g)] == [a.tobytes() for a in before]


def _deep_cut_log_volume_ratio(n, alpha):
    """log vol(E+)/vol(E) of a deep cut at alpha = depth / ||B^T g||."""
    beta = n / math.sqrt(n * n - 1.0) * math.sqrt(1.0 - alpha * alpha)
    return n * math.log(beta) + 0.5 * math.log(
        (n - 1.0) * (1.0 - alpha) / ((n + 1.0) * (1.0 + alpha)))


@pytest.mark.parametrize("n", [2, 6, 12, 16, 24])
def test_deep_cut_volume_and_containment(n):
    assert abs(_deep_cut_log_volume_ratio(n, 0.0) - central_cut_log_volume_ratio(n)) < 1e-12
    rng = np.random.default_rng(300 + n)
    for alpha in (0.1, 0.5, 0.9):
        center, g = rng.normal(size=n), rng.normal(size=n)
        shape = rng.normal(size=(n, n)) + 3 * np.eye(n)
        bg = shape.T @ g
        depth = alpha * np.linalg.norm(bg)
        center_new, shape_new = ellipsoid_cut(center, shape, g, depth)
        _, logdet_old = np.linalg.slogdet(shape)
        _, logdet_new = np.linalg.slogdet(shape_new)
        assert abs((logdet_new - logdet_old) - _deep_cut_log_volume_ratio(n, alpha)) < 1e-9
        # points c + B u of the old ellipsoid kept by the cut: u = -s p + w with
        # s in [alpha, 1] and w orthogonal to p, many of them on the boundary
        p = bg / np.linalg.norm(bg)
        s = alpha + (1.0 - alpha) * rng.random(2000)
        s[:500] = alpha
        basis = np.linalg.qr(np.column_stack([p, rng.normal(size=(n, n - 1))]))[0][:, 1:]
        w = rng.normal(size=(2000, n - 1)) @ basis.T
        w *= (np.sqrt(1.0 - s * s) / np.linalg.norm(w, axis=1))[:, None]
        w[1000:] *= rng.random((1000, 1))
        x = center + (w - np.outer(s, p)) @ shape.T
        assert ((x - center) @ g <= -depth + 1e-12 * np.linalg.norm(bg)).all()
        u_new = np.linalg.solve(shape_new, (x - center_new).T)
        assert np.linalg.norm(u_new, axis=0).max() <= 1.0 + 1e-9


def test_deep_cut_keeping_at_most_a_point_is_skipped():
    center, shape, g = np.zeros(3), np.eye(3), np.array([0.0, 2.0, 0.0])
    for depth in (2.0, 5.0):  # alpha = 1 and 2.5: the arguments come back
        got_center, got_shape = ellipsoid_cut(center, shape, g, depth)
        assert got_center is center and got_shape is shape
    with pytest.raises(RuntimeError, match="singular"):
        ellipsoid_cut(center, np.diag([1.0, 0.0, 1.0]), g, 1.0)


def test_norm_is_numpys_bit_for_bit():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 6, 12, 16, 24, 100):
        for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
            v = rng.normal(size=n) * scale
            assert solvers._norm(v) == np.linalg.norm(v)
            assert solvers._norm(v[: n // 2 + 1]) == np.linalg.norm(v[: n // 2 + 1])


@pytest.mark.parametrize("method", [ellipsoid_run, md_run])
@pytest.mark.parametrize("fn, shape", [
    (lambda x: float(x.sum()) + 1.0, r"\(\)"),  # a scalar would broadcast into every entry
    (lambda x: x[:3] + 1.0, r"\(3,\)"),
    (lambda x: np.outer(x, x).ravel() + 1.0, r"\(16,\)"),
])
def test_field_value_of_another_shape_is_rejected(method, fn, shape):
    dom = Product([Ball(np.zeros(2), 1.0), Ball(np.zeros(2), 1.0)])
    with pytest.raises(ValueError, match=rf"field value has shape {shape}, not the query's \(4,\)"):
        method(FieldOracle(fn), dom, SolverConfig(max_steps=50))


def test_ellipsoid_linear_field_certificate():
    # F(x) = x on a ball: unique stationary point 0, residual -> 0
    field = FieldOracle(lambda x: x)
    run = ellipsoid_run(
        field, Ball(np.zeros(3), 1.0),
        SolverConfig(eps_target=1e-8, max_steps=2000, cert_period=36))
    res = residual_ball_product(run.protocol, run.cert, (1.0, 0.0), 3)
    assert res <= 1e-8
    assert np.linalg.norm(run.cert.weights @ run.protocol.points) < 1e-4


def test_ellipsoid_history_residuals_non_increasing():
    field = FieldOracle(lambda x: x + np.array([0.3, -0.2]))
    run = ellipsoid_run(
        field, Ball(np.zeros(2), 1.0),
        SolverConfig(eps_target=1e-12, max_steps=400, cert_period=16))
    res = [r["residual"] for r in run.rounds]
    assert all(res[i + 1] <= res[i] + 1e-12 for i in range(len(res) - 1))


def test_ellipsoid_two_block_domain():
    dom = Product([Ball(np.zeros(2), 1.0), Ball(np.zeros(2), 2.0)])
    field = FieldOracle(lambda x: np.concatenate([x[2:], -x[:2]]))  # skew field
    run = ellipsoid_run(field, dom, SolverConfig(eps_target=1e-7, max_steps=2000))
    assert residual_ball_product(run.protocol, run.cert, (1.0, 2.0), 2) <= 1e-7


def test_md_certificate_weights_are_normalized_steps():
    # the normalized step sizes, rebuilt from the protocol, are the candidate
    # that md_run offers its certificate search
    field = FieldOracle(lambda x: x)
    run = md_run(field, Ball(np.zeros(2), 1.0),
                 SolverConfig(max_steps=50, cert_period=10 ** 9, start=np.array([0.5, 0.5])))
    protocol, cert = run.protocol, run.cert
    assert len(protocol) == 50
    gammas = md_step_sizes(protocol, 1.0)
    steps = AccuracyCertificate(gammas / gammas.sum())
    # gamma_i proportional to 1/sqrt(i) once the running max norm settles
    assert steps.weights[0] >= steps.weights[-1]
    assert cert.residual <= residual_ball_product(protocol, steps, (1.0, 0.0), 2)


def test_md_rate_on_linear_field():
    field = FieldOracle(lambda x: x)
    cfg = SolverConfig(max_steps=4000, start=np.array([0.8, 0.2]),
                       eps_target=1e-30, gap_threshold=0.0, cert_period=10 ** 9)
    run = md_run(field, Ball(np.zeros(2), 1.0), cfg)
    res = residual_ball_product(run.protocol, run.cert, (1.0, 0.0), 2)
    # non-asymptotic rate: residual = O(1/sqrt(t)) with a moderate constant
    assert res <= 5.0 / np.sqrt(4000)


def _random_protocol(rng, t, d):
    return ExecutionProtocol.from_lists(
        rng.normal(size=(t, d)), rng.normal(size=(t, d)), range(1, t + 1))


def test_optimizer_beats_uniform():
    rng = np.random.default_rng(0)
    for _ in range(5):
        prot = _random_protocol(rng, 50, 6)
        radii, split = (1.5, 2.0), 3
        cert = optimize_certificate(prot, radii, split)
        uni = AccuracyCertificate.uniform(50)
        assert (residual_ball_product(prot, cert, radii, split)
                <= residual_ball_product(prot, uni, radii, split) + 1e-12)


def test_optimizer_warm_start_never_worse():
    rng = np.random.default_rng(1)
    prot = _random_protocol(rng, 40, 4)
    radii, split = (1.0, 1.0), 2
    w = rng.uniform(size=40)
    warm = AccuracyCertificate(w / w.sum())
    cert = optimize_certificate(prot, radii, split, warm_start=warm)
    assert (residual_ball_product(prot, cert, radii, split)
            <= residual_ball_product(prot, warm, radii, split) + 1e-12)


def test_optimizer_near_optimal_on_analytic_case():
    # two points with opposite fields: lam = (1/2, 1/2) zeroes the aggregate
    pts = np.array([[1.0, 0.0], [1.0, 0.0]])
    fv = np.array([[1.0, 1.0], [-1.0, -1.0]])
    prot = ExecutionProtocol.from_lists(pts, fv, [1, 2])
    cert = optimize_certificate(prot, (1.0, 0.0), 2)
    # diag terms are +1 and -1, so the optimum is 0 at equal weights
    assert residual_ball_product(prot, cert, (1.0, 0.0), 2) <= 1e-10


def test_one_entry_protocol_is_certified_without_the_lp():
    # the weight 1 is the only certificate of a one-entry protocol, so its
    # residual is also the least; a round on it solves no LP, where a capped
    # run in a large primal dimension spent all its solves raising the bound
    rng = np.random.default_rng(5)
    prot = _random_protocol(rng, 1, 6)
    lp = CertificateLP((1.5, 2.0), 3, 6)
    cert = optimize_certificate(prot, (1.5, 2.0), 3, lp=lp)
    assert cert.weights.tolist() == [1.0] and lp.solves == 0 and len(lp.rows) == 0
    assert cert.lower == cert.residual == residual_ball_product(prot, cert, (1.5, 2.0), 3)
    sol = solve_sp(build_master_example1(rng.normal(size=(300, 300))),
                   config=SolverConfig(max_steps=1))
    (record,) = sol.rounds
    assert record["t"] == 1 and record["lp_solves"] == 0
    assert record["cert_lower"] == record["residual"]


def _polygon_lp_value(prot, radii, split, n_sides, inscribed):
    """max over (a, b) in regular n-gons of radii R_U, R_V of
    min_i <F_i, w_i> + <F_i, (a, b)>, for 2-D blocks.  The inscribed
    n-gons give a lower and the circumscribed ones an upper bound on the
    best certificate's residual."""
    t, d = prot.points.shape
    c = np.sum(prot.field_values * prot.points, axis=1)
    angles = 2.0 * np.pi * np.arange(n_sides) / n_sides
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    shrink = np.cos(np.pi / n_sides) if inscribed else 1.0
    rows, rhs = [np.hstack([np.ones((t, 1)), -prot.field_values])], [c]
    for off, r in ((0, radii[0]), (split, radii[1])):
        facets = np.zeros((n_sides, 1 + d))
        facets[:, 1 + off:3 + off] = normals
        rows.append(facets)
        rhs.append(np.full(n_sides, r * shrink))
    cost = np.zeros(1 + d)
    cost[0] = -1.0
    res = linprog(cost, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
                  bounds=[(None, None)] * (1 + d), method="highs")
    assert res.status == 0, res.message
    return -res.fun


def test_optimizer_optimal_within_polygon_bracket():
    rng = np.random.default_rng(4)
    radii, split = (1.5, 2.0), 2
    for _ in range(5):
        prot = _random_protocol(rng, 60, 4)
        cert = optimize_certificate(prot, radii, split)
        res = residual_ball_product(prot, cert, radii, split)
        inner = _polygon_lp_value(prot, radii, split, 720, inscribed=True)
        outer = _polygon_lp_value(prot, radii, split, 720, inscribed=False)
        assert inner - 1e-9 <= res <= outer + 1e-9
        assert inner - 1e-9 <= cert.lower <= res
        # rounds on growing prefixes, warm-started on one LP, each start from
        # the LP's last point: every lower bound stays certified
        lp, warm = CertificateLP(radii, split, 4), None
        for t in (15, 30, 45, 60):
            sub = prot.prefix(t)
            warm = optimize_certificate(sub, radii, split, warm_start=warm, lp=lp)
            res = residual_ball_product(sub, warm, radii, split)
            inner = _polygon_lp_value(sub, radii, split, 720, inscribed=True)
            outer = _polygon_lp_value(sub, radii, split, 720, inscribed=False)
            assert inner - 1e-9 <= warm.lower <= res <= outer + 1e-9


def test_certificate_lp_hand_solved():
    # max s  s.t.  s <= 1 + a1 + a2,  s <= -a1,  s <= -a2  on the box [-1, 1]^2:
    # equal weights 1/3 sum the rows to 3s <= 1, attained at a = (-1/3, -1/3)
    fv = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    c = np.array([1.0, 0.0, 0.0])
    lp = CertificateLP((1.0, 0.0), 2, 2)
    lp.hold(np.array([False, True, True]), fv, c)
    lp.hold(np.ones(3, dtype=bool), fv, c)  # row 0 is added after rows 1 and 2
    assert list(lp.rows) == [1, 2, 0]
    x, lam = lp.solve(3)
    assert np.allclose(x, [1 / 3, -1 / 3, -1 / 3], rtol=0.0, atol=1e-12)
    assert np.allclose(lam, [1 / 3, 1 / 3, 1 / 3], rtol=0.0, atol=1e-12)
    assert np.array_equal(lp.highs.getSolution().row_dual, -lam[lp.rows])
    # a cut a1 <= -1/2 moves the optimum to s = 1/4 at a = (-1/2, -1/4)
    lp.add_cut(np.array([0.0, 1.0, 0.0]), -0.5)
    x, lam = lp.solve(3)
    assert np.allclose(x, [0.25, -0.5, -0.25], rtol=0.0, atol=1e-12)
    assert np.allclose(lam, [0.5, 0.0, 0.5], rtol=0.0, atol=1e-12)
    assert lp.solves == 2


def test_certificate_lp_rejected_rows_leave_the_model_as_it_was():
    # HiGHS rejects a row block with a coefficient of 1e15 or more, whole
    fv = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1e16]])
    c = np.array([1.0, 0.0, 0.0])
    lp = CertificateLP((1.0, 0.0), 2, 2)
    lp.hold(np.array([True, True, False]), fv, c)
    with pytest.raises(solvers._Rejected):
        lp.hold(np.array([False, True, True]), fv, c)  # drops row 0, then adds row 2
    assert list(lp.rows) == [1] and lp.highs.getNumRow() == 1
    x, lam = lp.solve(3)  # max s  s.t.  s <= -a1  on the box [-1, 1]^2
    assert np.allclose(x[:2], [1.0, -1.0], rtol=0.0, atol=1e-12)
    assert np.array_equal(lam, [0.0, 1.0, 0.0])
    # a round whose first row block is rejected ends with the uniform certificate
    prot = ExecutionProtocol.from_lists(np.zeros((3, 2)), fv, [1, 2, 3])
    lp = CertificateLP((1.0, 0.0), 2, 2)
    cert = optimize_certificate(prot, (1.0, 0.0), 2, lp=lp)
    assert np.array_equal(cert.weights, np.full(3, 1 / 3))
    assert lp.solves == 0 and len(lp.rows) == 0 and lp.highs.getNumRow() == 0


_COLD_START_SCRIPT = """
import sys
import numpy as np
from lmodecomp import solvers
from lmodecomp.saddle import build_master_example1, solve_sp

def solve_game():
    # a mixed equilibrium off the uniform one: the round that stops the run
    # returns the restricted LP's atoms, solved on the same HiGHS extension
    sol = solve_sp(build_master_example1(np.array([[2.0, -1.0], [-1.0, 1.0]])))
    assert sol.gap_bound <= 1e-4, sol.gap_bound
    assert sol.rounds[-1]["atoms"] == "restricted"

if sys.argv[1] == "lmodecomp-first":
    solve_game()
    assert "scipy.optimize" not in sys.modules
from scipy.optimize import linprog
assert linprog([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0]).fun == 1.0
if sys.argv[1] == "scipy-first":
    solve_game()
lp = solvers.CertificateLP((1.0, 0.0), 2, 2)  # max s  s.t.  s <= 1 + a1  on the box
lp.hold(np.array([True]), np.array([[1.0, 0.0]]), np.array([1.0]))
assert lp.solve(1)[0][0] == 2.0
from scipy.optimize._highspy import _core
assert sys.modules["scipy.optimize._highspy._core"] is solvers._highs_core() is _core
"""


@pytest.mark.parametrize("order", ["lmodecomp-first", "scipy-first"])
def test_highs_extension_shared_with_scipy_optimize(order):
    # a fresh interpreter: the tests' own process has imported scipy.optimize
    env = dict(os.environ)
    src_root = str(Path(lmodecomp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _COLD_START_SCRIPT, order], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_missing_highs_extension_names_the_scipy_pin(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
    monkeypatch.setattr(solvers.importlib.machinery, "EXTENSION_SUFFIXES", [])
    with pytest.raises(ImportError, match=r"scipy>=1\.17,<1\.18"):
        solvers._highs_core.__wrapped__()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_carried_lp_certifies_as_a_fresh_one(seed):
    # radii large enough that the optimum lies inside the balls, where the
    # LP on the working set is exact and both models reach it
    rng = np.random.default_rng(seed)
    prot = _random_protocol(rng, 120, 4)
    radii, split = (50.0, 50.0), 2
    lp = CertificateLP(radii, split, 4)
    first = optimize_certificate(prot.prefix(60), radii, split, lp=lp)
    carried = optimize_certificate(prot, radii, split, warm_start=first, lp=lp)
    fresh = optimize_certificate(prot, radii, split, warm_start=first)
    res_carried, res_fresh = (residual_ball_product(prot, cert, radii, split)
                              for cert in (carried, fresh))
    assert abs(res_carried - res_fresh) <= 1e-12 * abs(res_fresh)


@pytest.mark.parametrize("t_other", [60, 40])
def test_lp_carried_to_another_protocol_certifies_that_protocol(t_other):
    # the model keeps rows of the first protocol under index keys that the
    # second one reuses; that may cost quality, but the residual is the
    # second protocol's own (a shorter one drops the rows past its end)
    rng = np.random.default_rng(0)
    first, other = _random_protocol(rng, 50, 4), _random_protocol(rng, t_other, 4)
    radii, split = (1.0, 1.0), 2
    lp = CertificateLP(radii, split, 4)
    optimize_certificate(first, radii, split, lp=lp)
    cert = optimize_certificate(other, radii, split, lp=lp)
    assert cert.residual == residual_ball_product(other, cert, radii, split)
    fresh = optimize_certificate(other, radii, split)
    assert cert.lower <= fresh.residual + 1e-12  # still a lower bound for this protocol


@pytest.mark.parametrize("radii, split, dim", [
    ((1.0, 1.0), 2, 3), ((1.0, 1.0), 2, 6), ((5.0, 0.1), 2, 4), ((1.0, 1.0), 1, 4)])
def test_optimizer_rejects_an_lp_built_for_other_balls(radii, split, dim):
    prot = _random_protocol(np.random.default_rng(4), 80, 4)
    with pytest.raises(ValueError, match="LP was built for"):
        optimize_certificate(prot, (1.0, 1.0), 2, lp=CertificateLP(radii, split, dim))


def test_carried_lp_holds_only_the_working_set():
    rng = np.random.default_rng(7)
    prot = _random_protocol(rng, 200, 4)
    radii, split = (1.5, 2.0), 2
    lp = CertificateLP(radii, split, 4)
    holds = []  # (working set, the model's protocol rows) after each hold

    def protocol_rows():
        rows = lp.rows[lp.rows >= 0]
        assert len(rows) == len(set(rows))
        return set(rows)

    def hold(in_set, fv, c, hold=lp.hold):
        hold(in_set, fv, c)
        holds.append((set(np.flatnonzero(in_set)), protocol_rows()))

    lp.hold = hold
    cert, n_pruned = None, 0
    for t in (50, 100, 150, 200):
        before = protocol_rows()
        holds.clear()
        cert = optimize_certificate(prot.prefix(t), radii, split, warm_start=cert, lp=lp)
        assert all(rows == in_set for in_set, rows in holds)
        assert protocol_rows() == holds[-1][0]  # the round's final working set
        n_pruned += len(before - holds[0][1])
    assert n_pruned > 0
    assert lp.solves > 4  # some rounds re-solved after growing the working set


def test_ellipsoid_rounds_record_certificate_lower_bound():
    rng = np.random.default_rng(5)
    skew = rng.normal(size=(4, 4))
    mat = skew - skew.T + 0.05 * np.eye(4)
    shift = rng.normal(size=4)
    dom = Product([Ball(np.zeros(2), 1.0), Ball(np.zeros(2), 2.0)])
    run = ellipsoid_run(FieldOracle(lambda x: mat @ x + shift), dom,
                        SolverConfig(eps_target=1e-9, max_steps=1500, cert_period=16))
    assert len(run.rounds) > 3
    for r in run.rounds:
        assert np.isfinite(r["cert_lower"])
        assert r["cert_lower"] <= r["residual"]



@pytest.mark.parametrize("method", ["ellipsoid", "md"])
def test_rounds_record_support_and_lp_solves(method):
    rng = np.random.default_rng(5)
    skew = rng.normal(size=(4, 4))
    mat = skew - skew.T + 0.05 * np.eye(4)
    shift = rng.normal(size=4)
    dom = Product([Ball(np.zeros(2), 1.0), Ball(np.zeros(2), 2.0)])
    run = (ellipsoid_run if method == "ellipsoid" else md_run)(
        FieldOracle(lambda x: mat @ x + shift), dom,
        SolverConfig(eps_target=1e-9, max_steps=1500, cert_period=16))
    assert len(run.rounds) > 3
    for r in run.rounds:
        assert r["support"] == np.count_nonzero(r["weights"]) > 0
    solves = [r["lp_solves"] for r in run.rounds]
    assert min(solves) >= 0 and max(solves) > 0


def test_md_rounds_never_above_the_step_size_certificate():
    # md_run offers its normalized step sizes to every round's certificate
    # search, so no round certifies less than they do on its prefix
    rng = np.random.default_rng(5)
    skew = rng.normal(size=(4, 4))
    mat = skew - skew.T + 0.05 * np.eye(4)
    shift = rng.normal(size=4)
    dom = Product([Ball(np.zeros(2), 1.0), Ball(np.zeros(2), 2.0)])
    run = md_run(FieldOracle(lambda x: mat @ x + shift), dom,
                 SolverConfig(eps_target=1e-9, max_steps=1500, cert_period=64))
    gammas = md_step_sizes(run.protocol, np.sqrt(5.0))  # R of the product
    assert len(run.rounds) > 3
    for r in run.rounds:
        t = r["t"]
        steps = AccuracyCertificate(gammas[:t] / gammas[:t].sum())
        bound = residual_ball_product(run.protocol.prefix(t), steps, (1.0, 2.0), 2)
        assert r["residual"] <= bound
    assert run.rounds[-1]["residual"] < bound


@pytest.mark.parametrize("method", [ellipsoid_run, md_run])
def test_round_residual_is_the_closed_form_on_its_prefix(method):
    # a round records the residual that its certificate search computed
    # rather than recomputing it; it must equal the closed form exactly
    rng = np.random.default_rng(5)
    skew = rng.normal(size=(4, 4))
    mat = skew - skew.T + 0.05 * np.eye(4)
    shift = rng.normal(size=4)
    dom = Product([Ball(np.zeros(2), 1.0), Ball(np.zeros(2), 2.0)])
    run = method(FieldOracle(lambda x: mat @ x + shift), dom,
                 SolverConfig(eps_target=1e-9, max_steps=1500, cert_period=16))
    assert len(run.rounds) > 3 and run.rounds[-1]["t"] > 64  # past a buffer reallocation
    for r in run.rounds:
        cert = AccuracyCertificate(r["weights"])
        assert r["residual"] == residual_ball_product(run.protocol.prefix(r["t"]), cert,
                                                      (1.0, 2.0), 2)
        assert r["cert_lower"] <= r["residual"]
    assert run.cert.residual == run.rounds[-1]["residual"]


def test_ellipsoid_rounds_record_recycled_cuts():
    # a recycled deep cut calls no oracle and adds no protocol entry
    rng = np.random.default_rng(5)
    skew = rng.normal(size=(4, 4))
    mat = skew - skew.T + 0.05 * np.eye(4)
    shift = rng.normal(size=4)
    dom = Product([Ball(np.zeros(2), 1.0), Ball(np.zeros(2), 2.0)])
    calls = []

    def fn(x):
        calls.append(None)
        return mat @ x + shift

    run = ellipsoid_run(FieldOracle(fn), dom,
                        SolverConfig(eps_target=1e-9, max_steps=1500, cert_period=16))
    assert all(r["recycled"] >= 0 for r in run.rounds)
    assert sum(r["recycled"] for r in run.rounds) > 0
    assert len(run.protocol) == len(calls) == len(run.payloads)
    md = md_run(FieldOracle(fn), dom, SolverConfig(max_steps=64, cert_period=16))
    assert md.rounds and all(r["recycled"] == 0 for r in md.rounds)


@pytest.mark.usefixtures("certificate_rounds_only")
def test_recycled_cuts_certify_criterion_05_blotto_within_600_steps():
    # the central-cut method took 1024 steps on this game
    m, cap, seed = 8, 64, 2024
    spec = BlottoSpec(caps_a=(cap,) * m, caps_d=(cap,) * m, costs_a=(1,) * m,
                      costs_d=(1,) * m, budget_a=cap, budget_d=cap,
                      omegas=random_rank1_omegas(m, (cap,) * m, (cap,) * m, seed), seed=seed)
    result = solve_blotto(spec, SolverConfig(eps_target=1e-4, gap_threshold=1e-12,
                                             max_steps=5000))
    assert result.stop_reason == "eps_target"
    assert result.gap <= 1e-4 and result.cert.residual <= 1e-4
    assert result.steps <= 600


@pytest.mark.parametrize("method", [ellipsoid_run, md_run])
def test_rounds_fall_where_the_previous_round_scheduled_them(method):
    # after the early rounds at K + 1 = 3, 6 and 12, rounds fall on multiples
    # of the base interval, each at the step the previous one recorded as
    # due, at most twice the previous interval apart
    rng = np.random.default_rng(5)
    skew = rng.normal(size=(4, 4))
    mat = skew - skew.T + 0.05 * np.eye(4)
    shift = rng.normal(size=4)
    dom = Product([Ball(np.zeros(2), 1.0), Ball(np.zeros(2), 2.0)])
    run = method(FieldOracle(lambda x: mat @ x + shift), dom,
                 SolverConfig(eps_target=1e-9, max_steps=1500, cert_period=16))
    assert [(r["step"], r["due"]) for r in run.rounds[:3]] == [(3, 6), (6, 12), (12, 16)]
    paced = run.rounds[3:]
    steps = [r["step"] for r in paced]
    assert steps[0] == 16 and len(steps) > 3
    for prev, r in zip(paced, paced[1:-1]):
        assert r["step"] == prev["due"] and r["step"] % 16 == 0
    last = paced[-1]
    assert last["due"] is None
    assert last["step"] == run.steps
    assert last["step"] == paced[-2]["due"] or run.stop_reason == "max_steps"
    intervals = np.diff(steps[:-1] if run.stop_reason == "max_steps" else steps)
    assert all(b <= 2 * a for a, b in zip(intervals, intervals[1:])), intervals
    if method is ellipsoid_run:
        assert run.stop_reason == "eps_target"
        assert intervals.max() > 16


def _recorded_solves(monkeypatch):
    """The max_solves of every optimize_certificate call, in call order."""
    calls, real = [], solvers.optimize_certificate

    def recorded(*args, **kwargs):
        calls.append(kwargs["max_solves"])
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "optimize_certificate", recorded)
    return calls


def _first_round_at_base_interval(monkeypatch):
    """Runs whose first round falls at the base interval, as before early
    rounds: the reference that early rounds must leave the later ones as."""
    init = solvers._Run.__init__

    def late(self, *args):
        init(self, *args)
        self.due = self.cert_period

    monkeypatch.setattr(solvers._Run, "__init__", late)


def _monotone_field():
    """An affine monotone field on a product of two balls, n = 4."""
    rng = np.random.default_rng(5)
    skew = rng.normal(size=(4, 4))
    mat = skew - skew.T + 0.05 * np.eye(4)
    shift = rng.normal(size=4)
    dom = Product([Ball(np.zeros(2), 1.0), Ball(np.zeros(2), 2.0)])
    return FieldOracle(lambda x: mat @ x + shift), dom


@pytest.mark.parametrize("method", [ellipsoid_run, md_run])
def test_early_rounds_fall_at_doublings_of_the_dimension_without_the_lp(monkeypatch, method):
    # on two balls of dimension K = 2 with base interval 16, rounds fall at
    # K + 1 = 3, 6 and 12 and solve no LP: their certificate is the best of
    # uniform weights, the last round's and mirror descent's step sizes; the
    # round at 16 and every later one solve it
    calls = _recorded_solves(monkeypatch)
    field, dom = _monotone_field()
    config = SolverConfig(eps_target=1e-9, max_steps=1500, cert_period=16)
    run = method(field, dom, config)
    early = [r for r in run.rounds if r["step"] < 16]
    assert [(r["step"], r["due"], r["lp_solves"]) for r in early] == [(3, 6, 0), (6, 12, 0),
                                                                     (12, 16, 0)]
    assert calls == [0, 0, 0] + [solvers._MAX_LP_SOLVES] * (len(run.rounds) - 3)
    assert run.rounds[3]["step"] == 16 and run.rounds[3]["lp_solves"] > 0
    # the steps do not depend on the rounds, and from 16 on neither do the rounds
    with monkeypatch.context() as patch:
        _first_round_at_base_interval(patch)
        late = method(field, dom, config)
    assert late.rounds[0]["step"] == 16 and late.protocol.step_ids == run.protocol.step_ids
    assert [r["step"] for r in late.rounds] == [r["step"] for r in run.rounds[3:]]
    gammas = md_step_sizes(run.protocol, np.sqrt(5.0))
    previous = None
    for r in early:
        t = r["t"]
        tried = [np.full(t, 1.0 / t)]
        if previous is not None:
            tried.append(np.concatenate([previous, np.zeros(t - len(previous))]))
        if method is md_run:
            tried.append(gammas[:t] / gammas[:t].sum())
        residuals = [residual_ball_product(run.protocol.prefix(t), AccuracyCertificate(w),
                                           (1.0, 2.0), 2) for w in tried]
        assert r["residual"] == min(residuals)
        previous = r["weights"]


@pytest.mark.parametrize("method", [ellipsoid_run, md_run])
def test_first_early_round_falls_at_the_largest_block_dimension_plus_one(method):
    # balls of dimensions 2 and 4: K = 4, so the first early round is at
    # K + 1 = 5, the first step where K + 1 pure strategies per side, as
    # many as an equilibrium in R^K needs, can be in the protocol; then
    # 10, 20 and 40 below the base interval 4 K^2 = 64
    rng = np.random.default_rng(8)
    skew = rng.normal(size=(6, 6))
    mat, shift = skew - skew.T + 0.05 * np.eye(6), rng.normal(size=6)
    dom = Product([Ball(np.zeros(2), 1.0), Ball(np.zeros(4), 2.0)])
    run = method(FieldOracle(lambda x: mat @ x + shift), dom,
                 SolverConfig(eps_target=1e-15, max_steps=64))
    assert [(r["step"], r["due"]) for r in run.rounds] == [(5, 10), (10, 20), (20, 40),
                                                          (40, 64), (64, 128)]
    assert [r["lp_solves"] > 0 for r in run.rounds] == [False] * 4 + [True]


@pytest.mark.parametrize("max_steps, rounds", [
    # one ball of dimension K = 2: early rounds from K + 1 = 3
    (10, [(3, 6), (6, 12), (10, None)]),  # closes on the entries since the round at 6
    (6, [(3, 6), (6, 106)]),              # the round at max_steps, a doubling, is not early
])
@pytest.mark.parametrize("method", [ellipsoid_run, md_run])
def test_last_round_before_the_base_interval_solves_the_lp(monkeypatch, method, max_steps,
                                                           rounds):
    calls = _recorded_solves(monkeypatch)
    run = method(FieldOracle(lambda x: x + np.array([0.3, -0.2])), Ball(np.zeros(2), 1.0),
                 SolverConfig(eps_target=1e-15, max_steps=max_steps, cert_period=100))
    assert run.stop_reason == "max_steps"
    assert [(r["step"], r["due"]) for r in run.rounds] == rounds
    assert calls == [0, solvers._MAX_LP_SOLVES] if max_steps == 6 else [0, 0, solvers._MAX_LP_SOLVES]
    assert run.rounds[-1]["lp_solves"] > 0 and run.rounds[-1]["t"] == len(run.protocol)


def test_early_round_before_non_productive_steps_is_closed_on_the_lp(monkeypatch):
    # step 25 leaves the balls, so the protocol has not grown since the early
    # round at 24 (of those at 3, 6, 12 and 24) when the run ends: the
    # closing round solves the LP on it
    calls = _recorded_solves(monkeypatch)
    field, dom = _monotone_field()
    run = ellipsoid_run(field, dom, SolverConfig(eps_target=1e-15, max_steps=25, cert_period=64))
    assert run.stop_reason == "max_steps" and run.protocol.step_ids[-1] == 24
    assert [(r["step"], r["t"]) for r in run.rounds] == [(3, 3), (6, 5), (12, 10), (24, 17),
                                                        (25, 17)]
    assert calls == [0, 0, 0, 0, solvers._MAX_LP_SOLVES] and run.rounds[-1]["lp_solves"] > 0
    assert run.cert.residual <= run.rounds[-2]["residual"]


@pytest.mark.parametrize("solver", ["ellipsoid", "md"])
def test_a_run_that_stops_at_an_early_round_builds_no_certificate_lp(monkeypatch, solver):
    # the run's CertificateLP is built by its first round that solves an LP:
    # a game that stops at an early round builds no HiGHS model, and a run
    # that reaches the base interval builds one, which its later rounds reuse
    built, real = [], solvers.CertificateLP

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(solvers, "CertificateLP", counted)
    rng = np.random.default_rng(12)
    master = build_master_example2(BilinearSpSpec(A=DenseMatrixOracle(rng.normal(size=(3, 40))),
                                                  D=DenseMatrixOracle(rng.normal(size=(3, 40)))))
    sol = solve_sp(master, solver, SolverConfig(eps_target=2e-7, gap_threshold=4e-7))
    assert sol.stop_reason == "gap_threshold" and sol.steps < 4 * 3 ** 2
    assert built == [] and all(r["lp_solves"] == 0 for r in sol.rounds)
    field, dom = _monotone_field()
    run = {"ellipsoid": ellipsoid_run, "md": md_run}[solver](
        field, dom, SolverConfig(eps_target=1e-9, max_steps=1500, cert_period=16))
    assert [r["lp_solves"] > 0 for r in run.rounds[:4]] == [False, False, False, True]
    assert built == [((1.0, 2.0), 2, 4)]


@pytest.mark.parametrize("method", [ellipsoid_run, md_run])
def test_first_lp_round_starts_from_the_rows_it_holds_without_early_rounds(monkeypatch, method):
    # the early rounds' certificates, spread over up to 96 entries, are
    # scored at step 128 but do not seed the working set: the LP starts from
    # the 8 (d + 1) = 40 rows binding at its start, as without early rounds
    started, real = [], solvers.CertificateLP.hold

    def hold(self, in_set, fv, c):
        if self.solves == 0:
            started.append(np.flatnonzero(in_set))
        return real(self, in_set, fv, c)

    monkeypatch.setattr(solvers.CertificateLP, "hold", hold)
    field, dom = _monotone_field()
    config = SolverConfig(eps_target=1e-15, max_steps=128, cert_period=128)
    early = method(field, dom, config)
    _first_round_at_base_interval(monkeypatch)
    late = method(field, dom, config)
    assert [r["step"] for r in early.rounds] == [3, 6, 12, 24, 48, 96, 128]
    assert len(started) == 2 and len(started[0]) == 40
    assert np.array_equal(started[0], started[1])
    assert early.cert.residual <= min(late.cert.residual, early.rounds[-2]["residual"])


@pytest.mark.parametrize("period", [3, 4])
@pytest.mark.parametrize("method", [ellipsoid_run, md_run])
def test_base_interval_at_most_the_dimension_leaves_no_early_round(monkeypatch, method, period):
    # with cert_period <= K + 1 = 4 (two balls of dimension K = 3) every
    # round falls on a multiple of it, from the first at cert_period, and
    # solves the LP
    calls = _recorded_solves(monkeypatch)
    dom = Product([Ball(np.zeros(3), 1.0), Ball(np.zeros(3), 2.0)])
    run = method(FieldOracle(lambda x: x + np.array([0.3, -0.2, 0.1, 0.4, -0.1, 0.2])), dom,
                 SolverConfig(eps_target=1e-15, max_steps=40, cert_period=period))
    steps = [r["step"] for r in run.rounds]
    assert steps[0] == period and all(s % period == 0 for s in steps[:-1])
    assert steps[-1] == run.steps == 40
    assert calls == [solvers._MAX_LP_SOLVES] * len(steps)


@pytest.mark.parametrize("history, gap, expected", [
    ([(10, 1.0)], None, 1),                         # no rate before the second round
    ([(10, 1.0), (20, 1.0)], None, 1),              # no decrease
    ([(10, 1.0), (20, 2.0)], None, 1),
    # rate ln(100)/30 over the whole run: ln(1e5)/(10 rate)/2 = 3.75; the
    # last interval's ln(10)/20 would give 5, capped at 4
    ([(10, 1.0), (20, 0.1), (40, 1e-2)], None, 3),
    ([(10, 1.0), (20, 0.1), (40, 1e-2)], 1e-3, 2),  # gap 1e3 thresholds away: 2.25
    # 11.1 and 33.4 uncapped: at most twice the last interval
    ([(10, 1.0), (20, 0.5)], None, 2),
    ([(10, 1.0), (20, 0.9), (40, 0.5)], None, 4),
    # early rounds, below the base interval, neither anchor the rate nor
    # bound the last interval: as without them (1 if (2, 1e3) were first)
    ([(2, 1e3), (4, 10.0), (8, 2.0), (10, 1.0), (20, 0.1), (40, 1e-2)], None, 3),
    ([(4, 9.0), (8, 2.0), (10, 1.0)], None, 1),    # the first paced round
])
def test_round_schedule_halves_the_predicted_distance(history, gap, expected):
    run = solvers._Run(FieldOracle(lambda x: x), Ball(np.zeros(2), 1.0),
                       SolverConfig(eps_target=1e-7, gap_threshold=1e-6, cert_period=10), None)
    run.rounds = [{"step": step, "residual": residual} for step, residual in history]
    step, residual = history[-1]
    assert run._periods(step, residual, gap) == expected


@pytest.mark.usefixtures("certificate_rounds_only")
def test_round_schedule_skips_only_rounds_that_cannot_stop_the_run(monkeypatch):
    # dense K = 3 games as in the benchmark: a round every base interval
    # stops at the same step, with the same residual, as the paced rounds
    rng = np.random.default_rng(12)
    config = SolverConfig(eps_target=2e-7, gap_threshold=4e-7)
    masters = []
    for _ in range(4):
        m, n = int(rng.integers(5, 101)), int(rng.integers(5, 101))
        a, d = rng.normal(size=(3, n)), rng.normal(size=(3, m))
        masters.append(build_master_example2(BilinearSpSpec(A=DenseMatrixOracle(a),
                                                            D=DenseMatrixOracle(d))))
    paced = [solve_sp(master, config=config) for master in masters]
    monkeypatch.setattr(solvers._Run, "_periods", lambda self, step, residual, gap: 1)
    every = [solve_sp(master, config=config) for master in masters]

    def from_36(sol):  # the rounds that solve the certificate LP
        return [r["step"] for r in sol.rounds if r["step"] >= 36]

    for p, e in zip(paced, every):
        assert (p.steps, p.stop_reason) == (e.steps, e.stop_reason)
        assert p.cert.residual == pytest.approx(e.cert.residual, rel=1e-7)
        assert [r["step"] for r in e.rounds if r["step"] < 36] == [4, 8, 16, 32]
        assert from_36(e) == list(range(36, e.steps + 1, 36))
    assert 2 * sum(len(from_36(p)) for p in paced) <= sum(len(from_36(e)) for e in every)


def test_round_gap_check_tolerates_rounding_at_its_scale():
    # an exact gap may exceed the residual by 1e-9 max(1, |value|, scale),
    # the rounding of a gap computed at that scale, and by no more
    def gap_above_residual(excess):
        return lambda protocol, cert, payloads: {"gap": cert.residual + excess, "scale": 1e8}

    field, dom = FieldOracle(lambda x: x + 0.3), Ball(np.zeros(2), 1.0)
    cfg = SolverConfig(eps_target=1e-12, max_steps=64, cert_period=16)
    # early rounds at 3, 6 and 12, then 16, 32, 48 and 64
    assert len(ellipsoid_run(field, dom, cfg, gap_above_residual(0.09)).rounds) == 7
    with pytest.raises(CertificateError, match="exceeds certified residual"):
        ellipsoid_run(field, dom, cfg, gap_above_residual(0.11))


def test_repeated_round_makes_no_solve():
    # a round repeated on the same protocol, warm-started from its own
    # certificate, starts at the LP's last optimum, which already closes it
    rng = np.random.default_rng(3)
    skew = rng.normal(size=(4, 4))
    mat = skew - skew.T + 0.05 * np.eye(4)
    shift = rng.normal(size=4)
    pts = 0.5 * rng.normal(size=(80, 4))
    prot = ExecutionProtocol.from_lists(pts, pts @ mat.T + shift, range(80))
    lp = CertificateLP((1.0, 2.0), 2, 4)
    cert = optimize_certificate(prot, (1.0, 2.0), 2, lp=lp)
    solves = lp.solves
    again = optimize_certificate(prot, (1.0, 2.0), 2, warm_start=cert, lp=lp)
    assert solves > 0 and lp.solves == solves
    assert again.residual == cert.residual and again.lower <= again.residual


def test_failed_solve_ends_the_round_and_spares_the_lp():
    # a solve that HiGHS stops without an optimum ends the round with the
    # best certificate found so far; the next round on the same LP solves
    rng = np.random.default_rng(3)
    prot = ExecutionProtocol.from_lists(rng.normal(size=(40, 4)), rng.normal(size=(40, 4)),
                                        range(40))
    lp = CertificateLP((1.0, 2.0), 2, 4)
    lp.highs.setOptionValue("simplex_iteration_limit", 0)
    cert = optimize_certificate(prot, (1.0, 2.0), 2, lp=lp)
    assert np.array_equal(cert.weights, np.full(40, 1 / 40)) and lp.solves == 1
    lp.highs.setOptionValue("simplex_iteration_limit", 2 ** 31 - 1)  # HiGHS's default
    again = optimize_certificate(prot, (1.0, 2.0), 2, lp=lp)
    fresh = optimize_certificate(prot, (1.0, 2.0), 2)
    assert again.residual == pytest.approx(fresh.residual, rel=1e-9, abs=1e-12)
    assert again.residual < 0.0 < cert.residual
    assert again.lower <= again.residual


def _restricted_args(rng, n, r, k, n_blocks=1):
    """Random arguments of solvers._restricted_lp: n atoms with
    k-dimensional images and r rows, each of n_blocks blocks holding at
    least one atom and one row."""
    blocks = np.sort(np.r_[np.arange(n_blocks), rng.integers(0, n_blocks, n - n_blocks)])
    row_blocks = np.sort(np.r_[np.arange(n_blocks), rng.integers(0, n_blocks, r - n_blocks)])
    return (rng.normal(size=(k, n)), blocks, rng.normal(size=(r, k)), row_blocks,
            rng.normal(size=r), rng.normal(size=n))


def _restricted_value(images, blocks, normals, row_blocks, rhs, cost, eta):
    """The restricted LP's objective at eta with each v_b at its least
    feasible value, the largest <normals[r], images eta> - rhs[r] of block b."""
    rows = normals.dot(images.dot(eta)) - rhs
    return cost.dot(eta) + sum(rows[row_blocks == b].max() for b in np.unique(row_blocks))


def test_thread_model_solves_as_a_fresh_model(monkeypatch):
    # the thread's one HiGHS model, cleared before each restricted LP, gives
    # bit for bit what a fresh model with the same options gives, also right
    # after an LP that HiGHS rejects at addRows (a coefficient of 1e20) or
    # solves without an optimum (block 1 has no row, so v_1 is unbounded)
    rng = np.random.default_rng(21)
    huge = _restricted_args(rng, 4, 5, 3)
    huge[0][1, 2] = 1e20
    unbounded = list(_restricted_args(rng, 6, 5, 3, n_blocks=2))
    unbounded[3] = np.zeros(5, dtype=np.intp)
    sequence = [_restricted_args(rng, 5, 4, 3), huge, _restricted_args(rng, 3, 6, 3),
                _restricted_args(rng, 40, 30, 3), unbounded, _restricted_args(rng, 8, 8, 8, 2),
                _restricted_args(rng, 5, 4, 3)]
    assert [solvers._tabled(len(a[1]), len(a[2]), a[0].shape[0]) for a in sequence] == [
        True, True, True, False, True, True, True]

    def outcome(args):
        try:
            return solvers._restricted_lp(*args)
        except solvers._Rejected as error:
            return str(error)

    outcome(sequence[0])  # the thread's model exists from here on
    model = solvers._thread.highs
    reused = [outcome(args) for args in sequence]
    assert solvers._thread.highs is model
    fresh = []
    for args in sequence:
        monkeypatch.setattr(solvers, "_thread", threading.local())
        fresh.append(outcome(args))
        assert solvers._thread.highs is not model
    assert [type(x) for x in reused] == [tuple, str, tuple, tuple, str, tuple, tuple]
    for got, want in zip(reused, fresh):
        if isinstance(want, str):
            assert got == want
        else:
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("n, r, k, n_blocks, rule", [
    (3, 4, 3, 1, True), (6, 5, 3, 1, True), (6, 6, 4, 2, True), (12, 12, 6, 3, True),
    (40, 30, 3, 1, False), (13, 13, 6, 3, False), (30, 60, 8, 2, False),
])
def test_both_writings_of_the_restricted_lp_agree(monkeypatch, n, r, k, n_blocks, rule):
    # each writing reaches the same optimal value, to a scaled 1e-12, and
    # the rule (True: the pairing table) picks the one that holds fewer
    # nonzeros; (12, 12, 6) and (13, 13, 6) straddle it
    rng = np.random.default_rng([n, r, k])
    assert solvers._tabled(n, r, k) == rule
    for _ in range(5):
        args = _restricted_args(rng, n, r, k, n_blocks)
        values, nonzeros = {}, {}
        for tabled in (True, False):
            monkeypatch.setattr(solvers, "_tabled", lambda n, r, k: tabled)
            eta, y = solvers._restricted_lp(*args)
            values[tabled] = _restricted_value(*args, eta)
            nonzeros[tabled] = solvers._thread.highs.getNumNz()
            assert all(abs(np.bincount(args[1], eta) - 1.0) <= 1e-15)
            assert all(abs(np.bincount(args[3], y) - 1.0) <= 1e-15)
        assert nonzeros == {True: n * r + n + r, False: (n + r) * (k + 1) + k}
        assert nonzeros[rule] == min(nonzeros.values())
        images, _, normals, _, rhs, cost = args
        scale = max(1.0, np.abs(normals.dot(images)).max(), np.abs(rhs).max(), np.abs(cost).max())
        assert abs(values[True] - values[False]) <= 1e-12 * scale


def _model_of(highs):
    """(costs, column bounds, row bounds, dense matrix, stored values) of a
    HiGHS model, read back from it."""
    lp = highs.getLp()
    a, dense = lp.a_matrix_, np.zeros((lp.num_row_, lp.num_col_))
    major = np.repeat(np.arange(len(a.start_) - 1), np.diff(a.start_))
    if a.format_ == solvers._highs_core().MatrixFormat.kRowwise:
        dense[major, a.index_] = a.value_
    else:
        dense[a.index_, major] = a.value_
    return (np.array(lp.col_cost_), np.array([lp.col_lower_, lp.col_upper_]),
            np.array([lp.row_lower_, lp.row_upper_]), dense, np.array(a.value_))


@pytest.mark.parametrize("n, r, k, n_blocks, tabled", [
    (5, 4, 3, 1, True), (6, 6, 4, 2, True), (12, 12, 6, 3, True),
    (40, 30, 3, 1, False), (13, 13, 6, 3, False),
])
def test_restricted_lp_hands_highs_the_model_its_docstring_states(n, r, k, n_blocks, tabled):
    # the model read back from HiGHS after the LP is the one that the
    # docstring writes: columns (eta, x, v), rows (x = images eta, the R
    # rows, the simplex rows block by block), costs and bounds, and no
    # stored zero; a third of the images' entries are exact zeros and the
    # first rows' normals are unit vectors, so that the pairing table, the
    # image rows and the normals hold exact zeros, which are dropped
    rng = np.random.default_rng([n, r, k])
    images, blocks, normals, row_blocks, rhs, cost = _restricted_args(rng, n, r, k, n_blocks)
    images.flat[::3] = 0.0
    normals[:k] = np.eye(k)[:min(k, r)]
    assert solvers._tabled(n, r, k) == tabled
    solvers._restricted_lp(images, blocks, normals, row_blocks, rhs, cost)
    m = 0 if tabled else k
    matrix = np.zeros((m + r + n_blocks, n + m + n_blocks))
    matrix[:m, :n] = -images[:m]
    matrix[np.arange(m), n + np.arange(m)] = 1.0
    pattern, first = (normals.dot(images), 0) if tabled else (normals, n)
    matrix[m:m + r, first:first + pattern.shape[1]] = pattern
    matrix[m + np.arange(r), n + m + row_blocks] = -1.0
    matrix[m + r + blocks, np.arange(n)] = 1.0
    assert (pattern == 0.0).any()
    costs, col_bounds, row_bounds, dense, stored = _model_of(solvers._thread.highs)
    assert np.array_equal(costs, np.r_[cost, np.zeros(m), np.ones(n_blocks)])
    assert np.array_equal(col_bounds, [np.r_[np.zeros(n), np.full(m + n_blocks, -np.inf)],
                                       np.full(n + m + n_blocks, np.inf)])
    assert np.array_equal(row_bounds, [np.r_[np.zeros(m), np.full(r, -np.inf), np.ones(n_blocks)],
                                       np.r_[np.zeros(m), rhs, np.ones(n_blocks)]])
    assert np.array_equal(dense, matrix)
    assert len(stored) == np.count_nonzero(matrix) and (stored != 0.0).all()


def test_threads_solve_games_as_sequential_runs():
    # two threads solve different games at the same time, each on its own
    # HiGHS models (the restricted masters' and its certificate LPs), and
    # return exactly what the same solves return one after another
    def games(seed, k):
        rng = np.random.default_rng(seed)
        return [build_master_example2(BilinearSpSpec(
            A=DenseMatrixOracle(rng.normal(size=(k, int(rng.integers(5, 60))))),
            D=DenseMatrixOracle(rng.normal(size=(k, int(rng.integers(5, 60)))))))
            for _ in range(8)]

    # no gap meets the threshold 0, so rounds from 4 K^2 on solve the certificate LP
    config = SolverConfig(eps_target=1e-9, gap_threshold=0.0, max_steps=120)
    work = [games(1, 3), games(2, 4)]

    def solved(masters):
        return [(s.steps, s.stop_reason, s.w_atoms, s.z_atoms, s.gap_bound, s.value_estimate,
                 s.cert.weights.tolist(), [r["master_solves"] for r in s.rounds])
                for s in (solve_sp(m, config=config) for m in masters)]

    sequential = [solved(masters) for masters in work]
    results, start = [None, None], threading.Barrier(2)

    def worker(i):
        start.wait()
        results[i] = solved(work[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == sequential


@pytest.mark.parametrize("method", ["ellipsoid", "md"])
def test_round_protocols_are_stable_prefixes(method):
    # each round's protocol views storage that later steps keep appending
    # to (and reallocate past 64 entries); it must never change afterwards
    rng = np.random.default_rng(6)
    skew = rng.normal(size=(4, 4))
    mat = skew - skew.T + 0.05 * np.eye(4)
    calls = []

    def fn(x):
        calls.append((x.copy(), mat @ x + 1.0))
        return calls[-1][1]

    snapshots = []

    def on_certificate(protocol, cert, payloads):
        snapshots.append((protocol, protocol.points.copy(), protocol.field_values.copy()))

    dom = Product([Ball(np.zeros(2), 1.0), Ball(np.zeros(2), 2.0)])
    cfg = SolverConfig(eps_target=1e-12, gap_threshold=0.0, max_steps=400, cert_period=50)
    run = ellipsoid_run if method == "ellipsoid" else md_run
    protocol = run(FieldOracle(fn), dom, cfg, on_certificate).protocol
    assert len(protocol) == len(calls) > 64
    assert np.array_equal(protocol.points, np.array([p for p, _ in calls]))
    assert np.array_equal(protocol.field_values, np.array([f for _, f in calls]))
    assert list(protocol.step_ids) == sorted(set(protocol.step_ids))
    assert len(snapshots) >= 3
    for snap, points, fields in snapshots:
        t = len(snap)
        assert np.array_equal(snap.points, points) and np.array_equal(snap.field_values, fields)
        assert np.array_equal(protocol.points[:t], points)
        assert protocol.step_ids[:t] == snap.step_ids

_DETERMINISM_SCRIPT = """
import hashlib
import numpy as np
from lmodecomp import (BilinearSpSpec, BlottoSpec, DenseMatrixOracle, KnapsackOracle,
                       KnapsackSpec, NashSpec, SolverConfig, build_master_example2,
                       nash_to_skew, solve_blotto, solve_sp, solve_vi)
from lmodecomp.blotto import random_rank1_omegas

def print_rounds(run):
    # every round, not only the last: its residual, gap, bound and a digest of
    # its weights' bytes; then why the run stopped and whose atoms it returned
    for r in run.rounds:
        print(r["step"], r["t"], float(r["residual"]).hex(), float(r["gap"]).hex(),
              float(r["cert_gap"]).hex(), float(r["bound"]).hex(), r["lp_solves"],
              hashlib.sha256(r["weights"].tobytes()).hexdigest())
    print("stop", run.stop_reason, run.rounds[-1]["atoms"])

rng = np.random.default_rng(5)
A, D = rng.normal(size=(3, 90)), rng.normal(size=(3, 80))
spec = BilinearSpSpec(A=DenseMatrixOracle(A), D=DenseMatrixOracle(D))
sol = solve_sp(build_master_example2(spec),
               config=SolverConfig(eps_target=2e-7, gap_threshold=2e-7))
print(repr(sol.gap_bound))
print(sol.cert.weights.tobytes().hex())
print_rounds(sol)
# rank-2 losses: two output rows per field in the knapsack searches
omegas = [rng.uniform(size=(5, 2)) @ rng.uniform(size=(2, 5)) for _ in range(3)]
rep = solve_blotto(BlottoSpec(caps_a=(4,) * 3, caps_d=(4,) * 3, costs_a=(1,) * 3,
                              costs_d=(1,) * 3, budget_a=4, budget_d=4, omegas=omegas),
                   SolverConfig(eps_target=1e-6, gap_threshold=1e-9))
print(repr(rep.gap), repr(rep.gap_exact), rep.steps)
print([(k, w.hex()) for k, w in sorted(rep.attacker_atoms.items())])
print([(k, w.hex()) for k, w in sorted(rep.defender_atoms.items())])
print_rounds(rep)
# rank-1 losses on 4 fields, mixed optimum: the middle stages search their record actions
rep = solve_blotto(BlottoSpec(caps_a=(6,) * 4, caps_d=(6,) * 4, costs_a=(1,) * 4,
                              costs_d=(1,) * 4, budget_a=6, budget_d=6,
                              omegas=random_rank1_omegas(4, (6,) * 4, (6,) * 4, 4)),
                   SolverConfig(eps_target=1e-6, gap_threshold=1e-9))
print(repr(rep.gap), repr(rep.gap_exact), rep.steps)
print([(k, w.hex()) for k, w in sorted(rep.attacker_atoms.items())])
print([(k, w.hex()) for k, w in sorted(rep.defender_atoms.items())])
print_rounds(rep)
# 3-player Nash on 2-stage knapsacks: each round's gap reads P eta off the payloads
D = [KnapsackOracle(KnapsackSpec(bounds=(cap, cap), costs=(1, 1), budget=cap,
                                 outputs=(rng.normal(size=(cap + 1, 1)),
                                          rng.normal(size=(cap + 1, 1)))))
     for cap in (3, 4, 4)]
C = [rng.normal(size=(2, 2)) for _ in range(3)]
Z = np.zeros((2, 2))
M = [[Z, C[0], C[1]], [-C[0].T, Z, C[2]], [-C[1].T, -C[2].T, Z]]
sol = solve_vi(nash_to_skew(NashSpec(D=D, M=M)),
               config=SolverConfig(eps_target=1e-6, gap_threshold=1e-6))
print(float(sol.eps_bound).hex(), float(sol.eps_exact).hex(), sol.steps)
print([(k, w.hex()) for k, w in sorted(sol.eta_atoms.items())])
print_rounds(sol)
"""


def test_results_identical_across_blas_thread_counts():
    # OpenBLAS splits long products differently per thread count, which
    # must not reach the certified bound or the certificate weights
    src_root = str(Path(lmodecomp.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _DETERMINISM_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    # the game and the Nash run stop on a restricted round, so the restricted
    # LP's solution is among the bits compared
    stops = [line for line in outputs[0].splitlines() if line.startswith("stop ")]
    assert stops == ["stop gap_threshold restricted"] * 4


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps_target=0.0)
    with pytest.raises(ValueError):
        SolverConfig(cert_period=0)
    with pytest.raises(ValueError, match="max_steps"):
        SolverConfig(max_steps=0)
    assert SolverConfig(max_steps=np.int64(10), cert_period=np.int64(4)).cert_period == 4


@pytest.mark.parametrize("name, value", [
    ("cert_period", 2.5), ("cert_period", 10.0), ("cert_period", True),
    ("max_steps", 2.5), ("max_steps", 10.0), ("max_steps", True)])
def test_solver_config_rejects_non_integer_step_counts(name, value):
    # a float period would put rounds only on its integer multiples, and a
    # float budget would fail in range() inside the run
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        SolverConfig(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("eps_target", np.nan), ("gap_threshold", np.nan), ("gap_threshold", -1e-6)])
def test_solver_config_rejects_unreachable_stops(name, value):
    # a NaN target is never reached, so such a run would silently go to max_steps
    with pytest.raises(ValueError, match=name):
        SolverConfig(**{name: value})


def test_ellipsoid_rejects_a_start():
    # the ellipsoid starts at the origin; a start it would ignore is an error
    with pytest.raises(ValueError, match="start"):
        ellipsoid_run(FieldOracle(lambda x: x), Ball(np.zeros(2), 1.0),
                      SolverConfig(max_steps=5, start=np.array([0.5, 0.5])))


def test_md_rejects_a_start_of_another_shape():
    with pytest.raises(ValueError, match=r"start must be finite of shape \(2,\), not \(3,\)"):
        md_run(FieldOracle(lambda x: x), Ball(np.zeros(2), 1.0),
               SolverConfig(max_steps=5, start=np.zeros(3)))


def test_domain_rejection():
    from lmodecomp.domains import Simplex

    with pytest.raises(ValueError):
        ellipsoid_run(FieldOracle(lambda x: x), Simplex(3), SolverConfig(max_steps=5))
    with pytest.raises(ValueError):
        ellipsoid_run(FieldOracle(lambda x: x),
                      Ball(np.ones(2), 1.0), SolverConfig(max_steps=5))


def test_zero_field_stops_stationary():
    run = ellipsoid_run(FieldOracle(lambda x: np.zeros(2)), Ball(np.zeros(2), 1.0))
    assert run.stop_reason == "stationary"
    assert len(run.protocol) == 1 and run.steps == 1
    assert run.cert.residual == 0.0
    assert [r["t"] for r in run.rounds] == [1]


def test_collapsed_ellipsoid_stops_degenerate_and_certifies(monkeypatch):
    # a collapse in the (k+1)-th central cut, or in the first recycled deep
    # cut, stops the run with a closing round on the whole protocol
    real_cut, k = solvers.ellipsoid_cut, 40
    dom = Product([Ball(np.zeros(2), 1.0), Ball(np.zeros(2), 2.0)])
    for recycled_collapses in (False, True):
        cuts, calls = [], []

        def cut(center, shape, g, depth=0.0):
            if depth:  # a recycled deep cut: the steps count the central ones
                if recycled_collapses:
                    raise RuntimeError("collapsed")
                return real_cut(center, shape, g, depth)
            cuts.append(None)
            if len(cuts) > k:
                raise RuntimeError("collapsed")
            return real_cut(center, shape, g)

        def fn(x):
            calls.append(x.copy())
            return x + 0.1  # strongly monotone: no certificate reaches residual 0

        monkeypatch.setattr(solvers, "ellipsoid_cut", cut)
        run = ellipsoid_run(FieldOracle(fn), dom,
                            SolverConfig(eps_target=1e-12, max_steps=1000, cert_period=16))
        assert run.stop_reason == "ellipsoid_degenerate"
        if recycled_collapses:  # before the step's central cut
            assert 1 < run.steps <= k and len(cuts) == run.steps - 1
        else:
            assert run.steps == k + 1
        assert len(run.protocol) == len(calls) == len(run.payloads)
        assert run.rounds[-1]["t"] == len(run.protocol)
        assert run.rounds[-1]["step"] == run.steps
        assert run.cert.residual == residual_ball_product(run.protocol, run.cert, (1.0, 2.0), 2)
        assert run.cert.lower <= run.cert.residual


@pytest.mark.parametrize("method", [ellipsoid_run, md_run])
def test_capped_run_stops_on_max_steps(method):
    cfg = SolverConfig(eps_target=1e-15, max_steps=50, cert_period=16)
    run = method(FieldOracle(lambda x: x + np.array([0.3, -0.2])), Ball(np.zeros(2), 1.0), cfg)
    assert run.stop_reason == "max_steps"
    assert run.steps == 50
    assert [r["step"] for r in run.rounds] == [3, 6, 12, 16, 32, 48, 50]


def test_certificate_atoms_are_never_bounded_below_their_gap():
    # a residual may round below the gap that the round checks against it
    # (as 7.38e-16 under 1.11e-15 on a dense Nash game): the atoms' bound is
    # then their computed gap, not the residual
    certified = ("certificate atoms", 1.11e-15, 2e-14, {"scale": 1.0})
    atoms, fields = solvers._choose_atoms(7.38e-16, 1e-4, certified)
    assert atoms == "certificate atoms" and fields["atoms"] == "certificate"
    assert fields["bound"] == fields["gap"] == fields["cert_gap"] == 1.11e-15
    # above the gap, the residual bounds them where it is below gap + rho
    assert solvers._choose_atoms(5e-15, 1e-4, certified)[1]["bound"] == 5e-15
    assert solvers._choose_atoms(1.0, 1e-4, certified)[1]["bound"] == 1.11e-15 + 2e-14
    # and that bound is what the restricted master's atoms compete with
    restricted = ("restricted atoms", 1e-15, 2e-14, {})
    assert solvers._choose_atoms(7.38e-16, 1e-4, certified, restricted)[0] == "certificate atoms"


def test_dense_game_stops_on_gap_threshold():
    rng = np.random.default_rng(8)
    sol = solve_sp(build_master_example1(rng.normal(size=(4, 5))),
                   config=SolverConfig(eps_target=1e-12, gap_threshold=1e-4))
    assert sol.stop_reason == "gap_threshold"
    assert sol.rounds[-1]["gap"] <= 1e-4 and sol.rounds[-1]["residual"] > 1e-12


@pytest.mark.usefixtures("certificate_rounds_only")
@pytest.mark.parametrize("max_steps", [400, 420])
@pytest.mark.parametrize("problem", ["sp", "vi"])
def test_md_rounds_end_once_on_the_whole_protocol(problem, max_steps):
    # one closing round, and only when the protocol grew since the last one
    cfg = SolverConfig(max_steps=max_steps, cert_period=50, gap_threshold=1e-9)
    if problem == "sp":
        sol = solve_sp(build_master_example1(PENNIES), solver="md", config=cfg)
    else:
        eye, zero = lmodecomp.DenseMatrixOracle(np.eye(2)), np.zeros((2, 2))
        spec = NashSpec(D=[eye, eye], M=[[zero, PENNIES], [-PENNIES.T, zero]])
        sol = solve_vi(nash_to_skew(spec), solver="md", config=cfg)
    ts = [r["t"] for r in sol.rounds]
    assert all(a < b for a, b in zip(ts, ts[1:])), ts
    assert ts[-1] == len(sol.protocol) == max_steps
    assert sol.steps == max_steps and sol.stop_reason == "max_steps"


DESK_BLOTTO = BlottoSpec(caps_a=(2, 2), caps_d=(2, 2), costs_a=(1, 1), costs_d=(1, 1),
                         budget_a=2, budget_d=2,
                         omegas=random_rank1_omegas(2, (2, 2), (2, 2), seed=7), seed=7)


def _desk_solve(problem, solver, config):
    """(solution, its bound, its exact gap, its master or VI spec) of one
    desk-size problem."""
    rng = np.random.default_rng(15)
    if problem.startswith("sp-"):
        if problem == "sp-square":
            master = build_master_example1(rng.normal(size=(4, 5)))
        elif problem == "sp-square-offsets":
            master = build_master_example1(rng.normal(size=(4, 5)), p=rng.normal(size=5),
                                           q=rng.normal(size=4))
        else:
            knapsack = KnapsackOracle(KnapsackSpec(
                bounds=(2, 2), costs=(1, 1), budget=3,
                outputs=tuple(rng.normal(size=(3, 1)) for _ in range(2))))
            master = build_master_example2(BilinearSpSpec(
                A=knapsack, D=DenseMatrixOracle(rng.normal(size=(2, 5)))))
        sol = solve_sp(master, solver, config)
        return sol, sol.gap_bound, sol.gap_exact, master
    if problem == "blotto":
        sol = solve_blotto(DESK_BLOTTO, config, solver)
        return (sol, sol.gap_bound, sol.gap_exact,
                build_master_example2(build_blotto(DESK_BLOTTO), shared_radius=True))
    if problem == "vi-nash":
        eye, zero = DenseMatrixOracle(np.eye(2)), np.zeros((2, 2))
        spec = nash_to_skew(NashSpec(D=[eye, eye], M=[[zero, PENNIES], [-PENNIES.T, zero]]))
    else:
        S = np.array([[0.0, 1.0], [-1.0, 0.0]])
        spec = AffineViSpec(S=S, s=np.array([0.1, -0.2]), H=Simplex(2), Xi_radius=1.0)
    sol = solve_vi(spec, solver, config)
    return sol, sol.eps_bound, sol.eps_exact, spec


@pytest.mark.parametrize("solver", ["ellipsoid", "md"])
@pytest.mark.parametrize("problem", ["sp-square", "sp-square-offsets", "sp-factored", "vi-nash",
                                     "vi-affine", "blotto"])
def test_rebuilt_gap_is_within_the_bound(monkeypatch, problem, solver):
    # the gap of the returned atoms, their columns rebuilt through the
    # oracles, is at most the bound up to the round check's tolerance; the
    # bound is also at most that gap plus its rounding allowance, and so are
    # the bounds of the earlier rounds, whose restricted masters (a game's or
    # skew VI's) hold the earlier rounds' best replies
    returned, choose = [], solvers._choose_atoms
    monkeypatch.setattr(solvers, "_choose_atoms",
                        lambda *args: returned.append(choose(*args)) or returned[-1])
    sol, bound, _, spec = _desk_solve(problem, solver, SolverConfig(gap_threshold=1e-5,
                                                                    max_steps=1500))
    rebuilt, rho = rebuilt_gap(spec, sol)
    value = getattr(sol, "value_estimate", 0.0)
    assert rebuilt <= bound + 1e-9 * max(1.0, abs(value))
    assert bound <= rebuilt + rho
    assert len(returned) == len(sol.rounds)
    for (atoms, _), record in zip(returned, sol.rounds):
        gap, rho = rebuilt_gap(spec, round_atoms(atoms))
        assert gap == record["gap"] <= record["bound"] <= gap + rho


@pytest.mark.parametrize("solver", ["ellipsoid", "md"])
@pytest.mark.parametrize("problem", ["sp-square", "sp-square-offsets", "sp-factored", "vi-nash",
                                     "vi-affine", "blotto"])
def test_every_solution_is_its_run(problem, solver):
    # the solution types extend SolveResult: the bound and the exact gap are
    # the closing round's, for the atoms it returned.  The certificate's atoms
    # are bounded by max(min(residual, gap + rho), gap) and the restricted
    # master's by gap + rho, an affine VI's point as a certificate's atoms
    sol, bound, exact, spec = _desk_solve(problem, solver, SolverConfig(gap_threshold=1e-5,
                                                                        max_steps=1500))
    assert isinstance(sol, SolveResult)
    last = sol.rounds[-1]
    assert exact is not None and exact == last["gap"] and bound == last["bound"]
    rebuilt, rho = rebuilt_gap(spec, sol)
    assert rebuilt == exact
    if last["atoms"] == "certificate":
        assert bound == max(min(sol.cert.residual, exact + rho), exact)
    else:
        assert last["atoms"] == "restricted" and bound == exact + rho > 0.0
    assert len(sol.payloads) == len(sol.protocol)
    if problem == "blotto":
        assert isinstance(sol, BlottoReport)
        assert exact_gap(build_blotto(DESK_BLOTTO), sol) == sol.gap_exact
        assert sol.attacker_atoms is sol.z_atoms and sol.defender_atoms is sol.w_atoms
        assert sol.value == sol.value_estimate and sol.gap == sol.gap_bound
