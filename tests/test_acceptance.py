"""End-to-end acceptance checks, one per advertised guarantee.

Each test prints a single PASS/FAIL line (visible in the pytest -v log
even under capture) and then asserts, so the suite both reports and
gates.  Expected values come from independent oracles: brute-force
column enumeration, scipy's LP solver, and hand-derived closed forms.
"""

import math
import time

import numpy as np

from conftest import eps_sad_enum, lp_game_value, md_step_sizes
from lmodecomp.blotto import BlottoSpec, random_rank1_omegas, solve_blotto
from lmodecomp.certificates import (
    AccuracyCertificate,
    ExecutionProtocol,
    residual,
    residual_ball_product,
)
from lmodecomp.domains import Ball
from lmodecomp.oracles import (
    DenseMatrixOracle,
    DpOracle,
    KnapsackOracle,
    KnapsackSpec,
    col_extreme,
    dp_from_knapsack,
    enumerate_columns,
)
from lmodecomp.saddle import (
    BilinearSpSpec,
    build_master_example1,
    build_master_example2,
    master_transfer_protocol,
    primal_value_grad,
    solve_sp,
)
from lmodecomp.solvers import (
    FieldOracle,
    SolverConfig,
    central_cut_log_volume_ratio,
    ellipsoid_cut,
    md_run,
    optimize_certificate,
)
from lmodecomp.vi import (
    NashSpec,
    eps_nash,
    eps_vi_exact,
    nash_to_skew,
    skew_master_protocol,
    solve_vi,
)

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])


def report(num, name, ok):
    # shows up under `pytest -s` and in the captured output of failures;
    # the -v test lines give the same one-line-per-criterion summary
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}", flush=True)


def random_knapsack(rng, max_cols=10 ** 4):
    while True:
        m = int(rng.integers(2, 5))
        bounds = tuple(int(b) for b in rng.integers(1, 5, size=m))
        costs = tuple(int(c) for c in rng.integers(1, 3, size=m))
        budget = int(rng.integers(1, 8))
        dims = tuple(int(d) for d in rng.integers(1, 3, size=m))
        outputs = tuple(rng.normal(size=(bounds[s] + 1, dims[s])) for s in range(m))
        spec = KnapsackSpec(bounds=bounds, costs=costs, budget=budget, outputs=outputs)
        oracle = KnapsackOracle(spec)
        if oracle.count_columns() <= max_cols:
            return oracle


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(10)
    t0 = time.perf_counter()
    ok = True
    for i in range(50):
        oracle = random_knapsack(rng)
        if i % 2 == 1:
            oracle = DpOracle(dp_from_knapsack(oracle.spec))
        seqs, cols = enumerate_columns(oracle)
        for _ in range(100):
            x = rng.normal(size=oracle.n_rows)
            vals = x @ cols
            for direction, pick in (("max", np.argmax), ("min", np.argmin)):
                hit = col_extreme(oracle, x, direction)
                j = int(pick(vals))
                ok &= seqs[j] == hit.key
                ok &= abs(vals[j] - hit.value) < 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(1, "oracle equals enumeration, 50 instances x 100 queries", ok)
    assert ok, f"mismatch or too slow ({elapsed:.1f}s)"


def test_criterion_02_residual_soundness_every_round():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(20):
        n, m = rng.integers(2, 6, size=2)
        S = rng.normal(size=(int(n), int(m)))
        master = build_master_example1(S)
        sol = solve_sp(master, config=SolverConfig(
            eps_target=1e-8, gap_threshold=1e-9, max_steps=300, cert_period=25))
        for rec in sol.rounds:
            t = rec["t"]
            lam = rec["weights"]
            w = np.zeros(master.S.shape[1])
            z = np.zeros(master.S.shape[0])
            for weight, (w_hit, z_hit) in zip(lam, sol.payloads[:t]):
                w[w_hit.action_sequence[0]] += weight
                z[z_hit.action_sequence[0]] += weight
            ok &= eps_sad_enum(master.S, w, z) <= rec["residual"] + 1e-9
            cert = AccuracyCertificate(lam)
            prefix = sol.protocol.prefix(t)
            big, dom = master_transfer_protocol(master, prefix, sol.payloads[:t])
            master_res = residual(big, cert, dom).residual
            primal_res = residual_ball_product(
                prefix, cert, (master.R_U, master.R_V), master.dim_u)
            ok &= master_res <= primal_res + 1e-9
    report(2, "exact gap <= residual and master <= primal, every round", ok)
    assert ok


def test_criterion_03_matrix_game_matches_lp():
    rng = np.random.default_rng(12)
    cfg = SolverConfig(eps_target=2e-7, gap_threshold=4e-7)
    worst = 0.0
    for _ in range(20):
        K = int(rng.integers(2, 4))
        M = int(rng.integers(5, 101))
        N = int(rng.integers(5, 101))
        A = rng.normal(size=(K, N))   # attacker columns (maximizer side)
        D = rng.normal(size=(K, M))
        spec = BilinearSpSpec(A=DenseMatrixOracle(A), D=DenseMatrixOracle(D))
        sol = solve_sp(build_master_example2(spec), config=cfg)
        worst = max(worst, abs(sol.value_estimate - lp_game_value(A.T @ D)))
    pennies = solve_sp(build_master_example1(PENNIES),
                       config=SolverConfig(eps_target=1e-7, gap_threshold=1e-7))
    uniform = all(abs(w - 0.5) <= 1e-3
                  for atoms in (pennies.w_atoms, pennies.z_atoms)
                  for w in atoms.values())
    ok = worst <= 1e-6 and abs(pennies.value_estimate) <= 1e-6 and uniform
    report(3, f"20 games within 1e-6 of LP (worst {worst:.2e}) + pennies", ok)
    assert ok


def test_criterion_04_desk_blotto():
    spec = BlottoSpec(caps_a=(2, 2), caps_d=(2, 2), costs_a=(1, 1), costs_d=(1, 1),
                      budget_a=2, budget_d=2,
                      omegas=random_rank1_omegas(2, (2, 2), (2, 2), seed=13), seed=13)
    t0 = time.perf_counter()
    result = solve_blotto(spec, SolverConfig(eps_target=2e-7, gap_threshold=4e-7))
    elapsed = time.perf_counter() - t0
    from lmodecomp.blotto import build_blotto

    game = build_blotto(spec)
    _, cols_a = enumerate_columns(game.A)
    _, cols_d = enumerate_columns(game.D)
    diff = abs(result.value - lp_game_value(cols_a.T @ cols_d))
    ok = diff <= 1e-6 and elapsed < 10.0
    report(4, f"desk resource game within 1e-6 of LP in {elapsed:.1f}s", ok)
    assert ok, f"diff {diff:.2e}, elapsed {elapsed:.1f}s"


def test_criterion_05_large_scale_blotto_shape():
    m, cap = 8, 64
    seed = 2024
    spec = BlottoSpec(caps_a=(cap,) * m, caps_d=(cap,) * m,
                      costs_a=(1,) * m, costs_d=(1,) * m,
                      budget_a=cap, budget_d=cap,
                      omegas=random_rank1_omegas(m, (cap,) * m, (cap,) * m, seed),
                      seed=seed)
    t0 = time.perf_counter()
    result = solve_blotto(spec, SolverConfig(eps_target=1e-4, gap_threshold=1e-12,
                                             max_steps=5000))
    elapsed = time.perf_counter() - t0
    # independent count: caps equal the budget, so each side's strategies
    # are the lattice points of {a >= 0, sum a <= 64} in 8 coordinates
    expected_count = math.comb(cap + m, m)
    ok = (result.primal_dim == 16
          and result.dims == (expected_count, expected_count)
          and result.dims[0] > 10 ** 9
          and result.gap <= 1e-4
          and result.steps <= 5000
          and elapsed < 600.0)
    report(5, f"10^10-strategy game certified to {result.gap:.1e} in "
              f"{result.steps} steps / {elapsed:.1f}s", ok)
    assert ok, (result.primal_dim, result.dims[0], result.gap, result.steps, elapsed)


def test_criterion_06_ellipsoid_volume_decrement():
    rng = np.random.default_rng(14)
    ok = True
    for n in (2, 4, 8, 16):
        shape = rng.normal(size=(n, n)) + 3 * np.eye(n)
        _, shape_new = ellipsoid_cut(rng.normal(size=n), shape, rng.normal(size=n))
        _, old = np.linalg.slogdet(shape)
        _, new = np.linalg.slogdet(shape_new)
        ok &= abs((new - old) - central_cut_log_volume_ratio(n)) < 1e-9
    report(6, "central-cut volume decrement, n in {2,4,8,16}", ok)
    assert ok


def test_criterion_07_vi_chain_and_nash():
    rng = np.random.default_rng(15)
    ok = True
    # chain on desk instances: two simplex-3 players with zero-sum coupling
    for trial in range(3):
        S = rng.normal(size=(3, 3))
        Z3 = np.zeros((3, 3))
        spec = NashSpec(D=[DenseMatrixOracle(np.eye(3))] * 2,
                        M=[[Z3, S], [-S.T, Z3]])
        skew = nash_to_skew(spec)
        sol = solve_vi(skew, config=SolverConfig(eps_target=1e-6, gap_threshold=1e-8,
                                                 max_steps=800, cert_period=40))
        for rec in sol.rounds:
            t = rec["t"]
            cert = AccuracyCertificate(rec["weights"])
            prefix = sol.protocol.prefix(t)
            big, dom = skew_master_protocol(skew, prefix, sol.payloads[:t])
            master_res = residual(big, cert, dom).residual
            primal_res = residual_ball_product(
                prefix, cert, (skew.Xi1_radius, skew.Xi2_radius), skew.K)
            ok &= rec["gap"] <= master_res + 1e-9
            ok &= master_res <= primal_res + 1e-9
        # deviation incentives never exceed the dual gap
        if trial == 0:
            from lmodecomp.vi import DenseSkewSystem, SkewViSpec

            P, Q, _ = skew.system.dense_PQ()
            dense = SkewViSpec(DenseSkewSystem(P, Q, block_sizes=(3, 3)),
                               skew.Xi1_radius, skew.Xi2_radius)
            for _ in range(20):
                blocks = [rng.uniform(size=3) for _ in range(2)]
                blocks = [b / b.sum() for b in blocks]
                e_nash = eps_nash(spec, blocks)
                e_vi = eps_vi_exact(dense, np.concatenate(blocks))
                ok &= -1e-10 <= e_nash <= e_vi + 1e-10
    # unique-equilibrium recovery: matching pennies, equilibrium (1/2, 1/2)^2
    Z2 = np.zeros((2, 2))
    pennies_spec = NashSpec(D=[DenseMatrixOracle(np.eye(2))] * 2,
                            M=[[Z2, PENNIES], [-PENNIES.T, Z2]])
    pskew = nash_to_skew(pennies_spec)
    psol = solve_vi(pskew, config=SolverConfig(eps_target=1e-7, gap_threshold=1e-7,
                                               max_steps=4000))
    eta = pskew.system.eta_dense(psol.eta_atoms)
    ok &= np.max(np.abs(eta - 0.5)) <= 1e-3
    report(7, "dual-gap chain every round + equilibrium recovery", ok)
    assert ok


def test_criterion_08_md_rate():
    field = FieldOracle(lambda x: x)
    cfg = SolverConfig(max_steps=10 ** 5, start=np.array([0.9, 0.3]),
                       eps_target=1e-30, gap_threshold=0.0, cert_period=10 ** 9)
    run = md_run(field, Ball(np.zeros(2), 1.0), cfg)
    protocol = run.protocol
    # the rate belongs to the step-size certificate, which md_run offers to
    # its certificate search; it is rebuilt from the protocol, and each step
    # is checked to be the projected step of that size
    gammas = md_step_sizes(protocol, 1.0)
    moved = protocol.points[:-1] - gammas[:-1, None] * protocol.field_values[:-1]
    moved /= np.maximum(1.0, np.linalg.norm(moved, axis=1))[:, None]
    ok = np.allclose(protocol.points[1:], moved, rtol=0.0, atol=1e-14)
    ts = np.unique(np.logspace(2, 5, 12).astype(int))
    res = []
    for t in ts:
        w = gammas[:t]
        sub = AccuracyCertificate(w / w.sum())
        res.append(residual_ball_product(protocol.prefix(int(t)), sub, (1.0, 0.0), 2))
    slope = np.polyfit(np.log10(ts), np.log10(res), 1)[0]
    ok &= slope <= -0.4
    ok &= run.cert.residual <= res[-1]  # the run's certificate is at least as good
    report(8, f"certified residual decays with log-log slope {slope:.3f}", ok)
    assert ok, slope


def test_criterion_09_certificate_optimizer():
    rng = np.random.default_rng(16)
    ok = True
    for _ in range(20):
        prot = ExecutionProtocol.from_lists(
            rng.normal(size=(50, 6)), rng.normal(size=(50, 6)), range(1, 51))
        radii, split = (1.5, 2.0), 3
        cert = optimize_certificate(prot, radii, split)
        uni = AccuracyCertificate.uniform(50)
        ok &= (residual_ball_product(prot, cert, radii, split)
               <= residual_ball_product(prot, uni, radii, split) + 1e-12)
    # warm-started rounds on a growing protocol: residuals never increase
    prot = ExecutionProtocol.from_lists(
        rng.normal(size=(60, 4)), rng.normal(size=(60, 4)), range(1, 61))
    radii, split = (1.0, 1.0), 2
    best = np.inf
    warm = None
    for t in range(10, 61, 10):
        sub = prot.prefix(t)
        if warm is not None:
            padded = np.zeros(t)
            padded[:len(warm.weights)] = warm.weights
            warm = AccuracyCertificate(padded)
        cert = optimize_certificate(sub, radii, split, warm_start=warm)
        res = residual_ball_product(sub, cert, radii, split)
        ok &= res <= best + 1e-12
        best = min(best, res)
        warm = cert
    report(9, "optimized certificates beat uniform; min-so-far monotone", ok)
    assert ok


def test_criterion_10_primal_gradient_inequalities():
    rng = np.random.default_rng(17)
    ok = True
    for master in (
        build_master_example1(rng.normal(size=(4, 5))),
        build_master_example2(BilinearSpSpec(
            A=DenseMatrixOracle(rng.normal(size=(3, 7))),
            D=DenseMatrixOracle(rng.normal(size=(3, 6))))),
    ):
        for _ in range(200):
            u, up = rng.normal(size=(2, master.dim_u))
            v, vp = rng.normal(size=(2, master.dim_v))
            ev = primal_value_grad(master, u, v)
            ok &= (primal_value_grad(master, up, v).phi
                   >= ev.phi + ev.g_u @ (up - u) - 1e-9)
            ok &= (primal_value_grad(master, u, vp).phi
                   <= ev.phi + ev.g_v @ (vp - v) + 1e-9)
    report(10, "sub/supergradient inequalities, 200 pairs per instance", ok)
    assert ok
