import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import lmodecomp
from conftest import md_step_sizes
from lmodecomp import solvers
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
from lmodecomp.vi import AffineViSpec, NashSpec, nash_to_skew, solve_vi

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

def solve_pennies():
    sol = solve_sp(build_master_example1(np.array([[1.0, -1.0], [-1.0, 1.0]])))
    assert sol.gap_bound <= 1e-4, sol.gap_bound

if sys.argv[1] == "lmodecomp-first":
    solve_pennies()
    assert "scipy.optimize" not in sys.modules
from scipy.optimize import linprog
assert linprog([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0]).fun == 1.0
if sys.argv[1] == "scipy-first":
    solve_pennies()
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


def _prefix(prot, t):
    return ExecutionProtocol(prot.points[:t], prot.field_values[:t], prot.step_ids[:t], prot.dim)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_carried_lp_certifies_as_a_fresh_one(seed):
    # radii large enough that the optimum lies inside the balls, where the
    # LP on the working set is exact and both models reach it
    rng = np.random.default_rng(seed)
    prot = _random_protocol(rng, 120, 4)
    radii, split = (50.0, 50.0), 2
    lp = CertificateLP(radii, split, 4)
    first = optimize_certificate(_prefix(prot, 60), radii, split, lp=lp)
    carried = optimize_certificate(prot, radii, split, warm_start=first, lp=lp)
    fresh = optimize_certificate(prot, radii, split, warm_start=first)
    res_carried, res_fresh = (residual_ball_product(prot, cert, radii, split)
                              for cert in (carried, fresh))
    assert abs(res_carried - res_fresh) <= 1e-12 * abs(res_fresh)


def test_lp_terms_equal_the_full_row_sums():
    # a run's LP computes c_i = <F_i, w_i> once per entry, in batches of new
    # entries; c and the scale must be the full computation's, bit for bit
    rng = np.random.default_rng(8)
    scales = 10.0 ** rng.integers(-3, 4, size=(300, 1))
    prot = ExecutionProtocol.from_lists(rng.normal(size=(300, 6)),
                                        rng.normal(size=(300, 6)) * scales, range(300))
    lp = CertificateLP((1.0, 1.0), 3, 6)
    for t in (1, 37, 38, 150, 300, 120):  # the last is a shorter prefix
        c, scale = lp.terms(_prefix(prot, t))
        full = np.sum(prot.field_values[:t] * prot.points[:t], axis=1)
        assert np.array_equal(c, full)
        assert scale == max(1.0, float(np.abs(prot.field_values[:t]).max()),
                            float(np.abs(full).max()))


def test_smallest_holds_the_stable_argsort_prefix():
    rng = np.random.default_rng(9)
    for v in (rng.normal(size=500), rng.integers(-3, 4, size=500).astype(float),
              np.array([0.0, -0.0, 1.0, -0.0, 0.0])):
        for k in (1, 2, 3, 5, 48, 499, 500, 600):
            assert np.array_equal(np.sort(solvers._smallest(v, k)),
                                  np.sort(np.argsort(v, kind="stable")[:k]))


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
        cert = optimize_certificate(_prefix(prot, t), radii, split, warm_start=cert, lp=lp)
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
                        SolverConfig(eps_target=1e-9, max_steps=1500, cert_period=64))
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
        SolverConfig(eps_target=1e-9, max_steps=1500, cert_period=64))
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
                 SolverConfig(eps_target=1e-9, max_steps=1500, cert_period=64))
    assert len(run.rounds) > 3 and run.rounds[-1]["t"] > 64  # past a buffer reallocation
    for r in run.rounds:
        cert = AccuracyCertificate(r["weights"])
        assert r["residual"] == residual_ball_product(run.protocol.prefix(r["t"]), cert,
                                                      (1.0, 2.0), 2)
        assert r["cert_lower"] <= r["residual"]
    assert run.cert.residual == run.rounds[-1]["residual"]


def test_round_gap_check_tolerates_rounding_at_its_scale():
    # an exact gap may exceed the residual by 1e-9 max(1, |value|, scale),
    # the rounding of a gap computed at that scale, and by no more
    def gap_above_residual(excess):
        return lambda protocol, cert, payloads: {"gap": cert.residual + excess, "scale": 1e8}

    field, dom = FieldOracle(lambda x: x + 0.3), Ball(np.zeros(2), 1.0)
    cfg = SolverConfig(eps_target=1e-12, max_steps=64, cert_period=16)
    assert len(ellipsoid_run(field, dom, cfg, gap_above_residual(0.09)).rounds) == 4
    with pytest.raises(CertificateError, match="exceeds certified residual"):
        ellipsoid_run(field, dom, cfg, gap_above_residual(0.11))


def test_reused_dual_completion_changes_no_round(monkeypatch):
    # a round reuses the run's last dual completion where its inputs are
    # equal bit for bit; forgetting it before every round changes nothing
    rng = np.random.default_rng(5)
    skew = rng.normal(size=(4, 4))
    mat = skew - skew.T + 0.05 * np.eye(4)
    shift = rng.normal(size=4)
    dom = Product([Ball(np.zeros(2), 1.0), Ball(np.zeros(2), 2.0)])
    cfg = SolverConfig(eps_target=1e-9, max_steps=1500, cert_period=64)
    completions, completion = [], solvers._dual_completion
    monkeypatch.setattr(solvers, "_dual_completion",
                        lambda *args: completions.append(None) or completion(*args))
    kept = ellipsoid_run(FieldOracle(lambda x: mat @ x + shift), dom, cfg).rounds
    n_kept, optimize = len(completions), solvers.optimize_certificate

    def forgetting(*args, lp, **kwargs):
        lp.completion = None
        return optimize(*args, lp=lp, **kwargs)

    monkeypatch.setattr(solvers, "optimize_certificate", forgetting)
    forgot = ellipsoid_run(FieldOracle(lambda x: mat @ x + shift), dom, cfg).rounds
    assert len(completions) - n_kept > n_kept  # the kept run reused some
    assert len(kept) == len(forgot) > 3
    for a, b in zip(kept, forgot):
        assert (a["t"], a["residual"], a["cert_lower"], a["lp_solves"]) == (
            b["t"], b["residual"], b["cert_lower"], b["lp_solves"])
        assert np.array_equal(a["weights"], b["weights"])


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
import numpy as np
from lmodecomp import (BilinearSpSpec, BlottoSpec, DenseMatrixOracle, KnapsackOracle,
                       KnapsackSpec, NashSpec, SolverConfig, build_master_example2,
                       nash_to_skew, solve_blotto, solve_sp, solve_vi)
from lmodecomp.blotto import random_rank1_omegas
rng = np.random.default_rng(5)
A, D = rng.normal(size=(3, 90)), rng.normal(size=(3, 80))
spec = BilinearSpSpec(A=DenseMatrixOracle(A), D=DenseMatrixOracle(D))
sol = solve_sp(build_master_example2(spec),
               config=SolverConfig(eps_target=2e-7, gap_threshold=2e-7))
print(repr(sol.gap_bound))
print(sol.cert.weights.tobytes().hex())
# rank-2 losses: two output rows per field in the knapsack searches
omegas = [rng.uniform(size=(5, 2)) @ rng.uniform(size=(2, 5)) for _ in range(3)]
rep = solve_blotto(BlottoSpec(caps_a=(4,) * 3, caps_d=(4,) * 3, costs_a=(1,) * 3,
                              costs_d=(1,) * 3, budget_a=4, budget_d=4, omegas=omegas),
                   SolverConfig(eps_target=1e-6, gap_threshold=1e-9))
print(repr(rep.gap), repr(rep.gap_exact), rep.steps)
print([(k, w.hex()) for k, w in sorted(rep.attacker_atoms.items())])
print([(k, w.hex()) for k, w in sorted(rep.defender_atoms.items())])
# rank-1 losses on 4 fields, mixed optimum: the middle stages search their record actions
rep = solve_blotto(BlottoSpec(caps_a=(6,) * 4, caps_d=(6,) * 4, costs_a=(1,) * 4,
                              costs_d=(1,) * 4, budget_a=6, budget_d=6,
                              omegas=random_rank1_omegas(4, (6,) * 4, (6,) * 4, 4)),
                   SolverConfig(eps_target=1e-6, gap_threshold=1e-9))
print(repr(rep.gap), repr(rep.gap_exact), rep.steps)
print([(k, w.hex()) for k, w in sorted(rep.attacker_atoms.items())])
print([(k, w.hex()) for k, w in sorted(rep.defender_atoms.items())])
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
"""


def test_results_identical_across_blas_thread_counts():
    # OpenBLAS splits long products differently per thread count, which
    # must not reach the certified bound or the certificate weights
    src_root = str(Path(lmodecomp.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _DETERMINISM_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps_target=0.0)
    with pytest.raises(ValueError):
        SolverConfig(cert_period=0)
    with pytest.raises(ValueError, match="max_steps"):
        SolverConfig(max_steps=0)


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
    real_cut, k = solvers.ellipsoid_cut, 40
    cuts = []

    def cut(center, shape, g):
        cuts.append(None)
        if len(cuts) > k:
            raise RuntimeError("collapsed")
        return real_cut(center, shape, g)

    monkeypatch.setattr(solvers, "ellipsoid_cut", cut)
    dom = Product([Ball(np.zeros(2), 1.0), Ball(np.zeros(2), 2.0)])
    calls = []

    def fn(x):
        calls.append(x.copy())
        return x + 0.1  # strongly monotone: no certificate reaches residual 0

    run = ellipsoid_run(FieldOracle(fn), dom,
                        SolverConfig(eps_target=1e-12, max_steps=1000, cert_period=16))
    assert run.stop_reason == "ellipsoid_degenerate"
    assert run.steps == k + 1
    assert len(run.protocol) == len(calls) == len(run.payloads)
    assert run.rounds[-1]["t"] == len(run.protocol)
    assert run.rounds[-1]["step"] == k + 1
    assert run.cert.residual == residual_ball_product(run.protocol, run.cert, (1.0, 2.0), 2)
    assert run.cert.lower <= run.cert.residual


@pytest.mark.parametrize("method", [ellipsoid_run, md_run])
def test_capped_run_stops_on_max_steps(method):
    cfg = SolverConfig(eps_target=1e-15, max_steps=50, cert_period=16)
    run = method(FieldOracle(lambda x: x + np.array([0.3, -0.2])), Ball(np.zeros(2), 1.0), cfg)
    assert run.stop_reason == "max_steps"
    assert run.steps == 50
    assert [r["step"] for r in run.rounds] == [16, 32, 48, 50]


def test_dense_game_stops_on_gap_threshold():
    rng = np.random.default_rng(8)
    sol = solve_sp(build_master_example1(rng.normal(size=(4, 5))),
                   config=SolverConfig(eps_target=1e-12, gap_threshold=1e-4))
    assert sol.stop_reason == "gap_threshold"
    assert sol.rounds[-1]["gap"] <= 1e-4 and sol.rounds[-1]["residual"] > 1e-12


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
    """(solution, its bound, its exact gap) of one desk-size problem."""
    rng = np.random.default_rng(15)
    if problem in ("sp-square", "sp-factored"):
        if problem == "sp-square":
            master = build_master_example1(rng.normal(size=(4, 5)))
        else:
            knapsack = KnapsackOracle(KnapsackSpec(
                bounds=(2, 2), costs=(1, 1), budget=3,
                outputs=tuple(rng.normal(size=(3, 1)) for _ in range(2))))
            master = build_master_example2(BilinearSpSpec(
                A=knapsack, D=DenseMatrixOracle(rng.normal(size=(2, 5)))))
        sol = solve_sp(master, solver, config)
        return sol, sol.gap_bound, sol.gap_exact
    if problem == "blotto":
        sol = solve_blotto(DESK_BLOTTO, config, solver)
        return sol, sol.gap_bound, sol.gap_exact
    if problem == "vi-nash":
        eye, zero = DenseMatrixOracle(np.eye(2)), np.zeros((2, 2))
        spec = nash_to_skew(NashSpec(D=[eye, eye], M=[[zero, PENNIES], [-PENNIES.T, zero]]))
    else:
        S = np.array([[0.0, 1.0], [-1.0, 0.0]])
        spec = AffineViSpec(apply_S=lambda x: S @ x, apply_St=lambda x: S.T @ x,
                            s=np.array([0.1, -0.2]), H=Simplex(2), Xi_radius=1.0)
    sol = solve_vi(spec, solver, config)
    return sol, sol.eps_bound, sol.eps_exact


@pytest.mark.parametrize("solver", ["ellipsoid", "md"])
@pytest.mark.parametrize("problem", ["sp-square", "sp-factored", "vi-nash", "vi-affine",
                                     "blotto"])
def test_every_solution_is_its_run(problem, solver):
    # the solution types extend SolveResult: the bound is the certificate's
    # residual and the exact gap the closing round's, not copies of either
    sol, bound, exact = _desk_solve(problem, solver, SolverConfig(gap_threshold=1e-5,
                                                                  max_steps=1500))
    assert isinstance(sol, SolveResult)
    assert bound == sol.cert.residual
    assert exact is not None and exact == sol.rounds[-1]["gap"]
    assert len(sol.payloads) == len(sol.protocol)
    if problem == "blotto":
        assert isinstance(sol, BlottoReport)
        assert exact_gap(build_blotto(DESK_BLOTTO), sol) == sol.gap_exact
        assert sol.attacker_atoms is sol.z_atoms and sol.defender_atoms is sol.w_atoms
        assert sol.value == sol.value_estimate and sol.gap == sol.gap_bound
