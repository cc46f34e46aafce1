import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import lmodecomp
from lmodecomp import solvers
from lmodecomp.certificates import (
    AccuracyCertificate,
    ExecutionProtocol,
    residual_ball_product,
)
from lmodecomp.domains import Ball, Product
from lmodecomp.saddle import build_master_example1, solve_sp
from lmodecomp.solvers import (
    FieldOracle,
    SolverConfig,
    central_cut_log_volume_ratio,
    ellipsoid_cut,
    ellipsoid_run,
    md_run,
    optimize_certificate,
)
from lmodecomp.vi import NashSpec, nash_to_skew, solve_vi

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
    field = FieldOracle(lambda x: x)
    run = md_run(field, Ball(np.zeros(2), 1.0),
                 SolverConfig(max_steps=50, start=np.array([0.5, 0.5])))
    protocol, cert = run.protocol, run.cert
    assert len(protocol) == 50
    assert abs(cert.weights.sum() - 1.0) < 1e-12
    # gamma_i proportional to 1/sqrt(i) once the running max norm settles
    assert cert.weights[0] >= cert.weights[-1]


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
from lmodecomp import (BilinearSpSpec, DenseMatrixOracle, SolverConfig,
                       build_master_example2, solve_sp)
rng = np.random.default_rng(5)
A, D = rng.normal(size=(3, 90)), rng.normal(size=(3, 80))
spec = BilinearSpSpec(A=DenseMatrixOracle(A), D=DenseMatrixOracle(D))
sol = solve_sp(build_master_example2(spec),
               config=SolverConfig(eps_target=2e-7, gap_threshold=2e-7))
print(repr(sol.gap_bound))
print(sol.cert.weights.tobytes().hex())
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
    assert run.residual == 0.0
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
    assert run.residual == residual_ball_product(run.protocol, run.cert, (1.0, 2.0), 2)
    assert run.cert.lower <= run.residual


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
