import numpy as np
import pytest

from conftest import eps_sad_enum, lp_game_value
from lmodecomp import saddle
from lmodecomp.certificates import CertificateError, residual, residual_ball_product
from lmodecomp.oracles import DenseMatrixOracle
from lmodecomp.saddle import (
    BilinearSpSpec,
    build_master_example1,
    build_master_example2,
    exact_gap,
    master_transfer_protocol,
    primal_value_grad,
    solve_sp,
)
from lmodecomp.solvers import SolverConfig

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])


def test_example1_radii():
    master = build_master_example1(PENNIES)
    assert master.R_U == np.sqrt(2.0)
    assert master.R_V == np.sqrt(2.0)
    # radii always cover the simplices even for tiny payoff matrices
    tiny = build_master_example1(0.1 * PENNIES)
    assert tiny.R_U >= 1.0 and tiny.R_V >= 1.0


def test_example2_radii_pennies_factored():
    spec = BilinearSpSpec(A=DenseMatrixOracle(PENNIES.T), D=DenseMatrixOracle(np.eye(2)))
    master = build_master_example2(spec)
    assert abs(master.R_U - 1.0) < 1e-12
    assert abs(master.R_V - np.sqrt(2.0)) < 1e-12
    shared = build_master_example2(spec, shared_radius=True)
    assert shared.R_U == shared.R_V == master.R_V


def test_example2_single_column():
    c = np.array([[3.0]])
    spec = BilinearSpSpec(A=DenseMatrixOracle(c), D=DenseMatrixOracle(c))
    master = build_master_example2(spec)
    assert master.R_U == master.R_V == 3.0


def test_row_dim_mismatch():
    with pytest.raises(ValueError):
        BilinearSpSpec(A=DenseMatrixOracle(np.eye(2)), D=DenseMatrixOracle(np.eye(3)))


def test_primal_value_hand_example():
    # factored pennies: phi(u, v) = Max(S u) + Min(v) - <u, v>
    spec = BilinearSpSpec(A=DenseMatrixOracle(PENNIES.T), D=DenseMatrixOracle(np.eye(2)))
    master = build_master_example2(spec)
    u = np.array([0.5, -0.25])
    v = np.array([0.1, 0.3])
    ev = primal_value_grad(master, u, v)
    assert abs(ev.phi - ((PENNIES @ u).max() + v.min() - u @ v)) < 1e-12
    assert ev.w_hit.action_sequence == (0,)   # min entry of v
    assert ev.z_hit.action_sequence == (0,)   # max entry of S u


def test_phi_convex_concave_sampled():
    rng = np.random.default_rng(0)
    S = rng.normal(size=(4, 5))
    master = build_master_example1(S)
    for _ in range(50):
        u, up = rng.normal(size=(2, master.dim_u))
        v, vp = rng.normal(size=(2, master.dim_v))
        mid_u = primal_value_grad(master, 0.5 * (u + up), v).phi
        assert mid_u <= 0.5 * (primal_value_grad(master, u, v).phi
                               + primal_value_grad(master, up, v).phi) + 1e-10
        mid_v = primal_value_grad(master, u, 0.5 * (v + vp)).phi
        assert mid_v >= 0.5 * (primal_value_grad(master, u, v).phi
                               + primal_value_grad(master, u, vp).phi) - 1e-10


def test_sub_and_supergradients_sampled():
    rng = np.random.default_rng(1)
    for master in (
        build_master_example1(rng.normal(size=(3, 4))),
        build_master_example2(BilinearSpSpec(
            A=DenseMatrixOracle(rng.normal(size=(3, 6))),
            D=DenseMatrixOracle(rng.normal(size=(3, 5))))),
    ):
        for _ in range(200):
            u, up = rng.normal(size=(2, master.dim_u))
            v, vp = rng.normal(size=(2, master.dim_v))
            ev = primal_value_grad(master, u, v)
            assert (primal_value_grad(master, up, v).phi
                    >= ev.phi + ev.g_u @ (up - u) - 1e-9)
            assert (primal_value_grad(master, u, vp).phi
                    <= ev.phi + ev.g_v @ (vp - v) + 1e-9)


def test_pennies_solution():
    master = build_master_example1(PENNIES)
    sol = solve_sp(master, config=SolverConfig(eps_target=1e-7, gap_threshold=1e-7))
    assert abs(sol.value_estimate) <= 1e-6
    for atoms in (sol.w_atoms, sol.z_atoms):
        assert set(atoms) == {(0,), (1,)}
        for w in atoms.values():
            assert abs(w - 0.5) <= 1e-3


def test_random_game_matches_lp():
    rng = np.random.default_rng(2)
    S = rng.normal(size=(3, 3))
    spec = BilinearSpSpec(A=DenseMatrixOracle(S.T), D=DenseMatrixOracle(np.eye(3)))
    sol = solve_sp(build_master_example2(spec),
                   config=SolverConfig(eps_target=2e-7, gap_threshold=4e-7))
    assert abs(sol.value_estimate - lp_game_value(S)) <= 1e-6


def test_exact_gap_hand_values():
    master = build_master_example1(PENNIES)
    sol = solve_sp(master, config=SolverConfig(eps_target=1e-7, gap_threshold=1e-7))
    # recovered mixed strategies: gap by enumeration equals exact_gap
    w = np.zeros(2)
    z = np.zeros(2)
    for k, wt in sol.w_atoms.items():
        w[k[0]] += wt
    for k, wt in sol.z_atoms.items():
        z[k[0]] += wt
    assert abs(exact_gap(master, sol) - eps_sad_enum(PENNIES, w, z)) < 1e-10
    # hand values of the gap itself
    assert abs(eps_sad_enum(PENNIES, np.array([0.5, 0.5]), np.array([0.5, 0.5]))) < 1e-12
    assert abs(eps_sad_enum(PENNIES, np.array([1.0, 0.0]), np.array([1.0, 0.0])) - 2.0) < 1e-12


def test_gap_sandwich_and_transfer_every_round():
    rng = np.random.default_rng(3)
    S = rng.normal(size=(4, 5))
    master = build_master_example1(S)
    sol = solve_sp(master, config=SolverConfig(eps_target=1e-8, gap_threshold=1e-9,
                                               max_steps=400, cert_period=25))
    assert len(sol.rounds) >= 2
    for rec in sol.rounds:
        assert rec["gap"] <= rec["residual"] + 1e-9
    # transferred master protocol residual <= primal residual, final round
    big, dom = master_transfer_protocol(master, sol.protocol, sol.hits)
    master_res = residual(big, sol.cert, dom).residual
    primal_res = residual_ball_product(sol.protocol, sol.cert,
                                       (master.R_U, master.R_V), master.dim_u)
    assert master_res <= primal_res + 1e-9
    assert sol.gap_exact <= master_res + 1e-9


def test_solve_sp_md_solver():
    master = build_master_example1(PENNIES)
    sol = solve_sp(master, solver="md",
                   config=SolverConfig(max_steps=4000, gap_threshold=1e-3))
    assert sol.gap_exact <= sol.gap_bound + 1e-9
    assert abs(sol.value_estimate) <= 0.1


def test_offsets_small_instance():
    rng = np.random.default_rng(4)
    S = rng.normal(size=(3, 3))
    p = rng.normal(size=3)
    q = rng.normal(size=3)
    master = build_master_example1(S, p=p, q=q)
    sol = solve_sp(master, config=SolverConfig(eps_target=2e-7, gap_threshold=4e-7))
    # internal consistency first, then the gap recomputed by hand
    assert sol.gap_exact <= 1e-6
    w = np.zeros(3)
    z = np.zeros(3)
    for k, wt in sol.w_atoms.items():
        w[k[0]] += wt
    for k, wt in sol.z_atoms.items():
        z[k[0]] += wt
    # psi(w, z) = p.w + q.z + <z, S w>  (square construction: D = A^T = S)
    upper = (q + S @ w).max() + p @ w
    lower = (p + S.T @ z).min() + q @ z
    assert upper - lower <= sol.gap_bound + 1e-9


def test_json_serialization():
    master = build_master_example1(PENNIES)
    sol = solve_sp(master, config=SolverConfig(gap_threshold=1e-5))
    d = sol.to_json_dict()
    assert set(d) >= {"w_atoms", "z_atoms", "gap_bound", "gap_exact", "value_estimate"}
    assert all(isinstance(a["index"], list) for a in d["w_atoms"])


def test_solve_sp_raises_when_exact_gap_exceeds_residual(monkeypatch):
    # an exact gap of 2 can never be certified by the residual
    monkeypatch.setattr(saddle, "_value_bounds", lambda master, *atoms: (1.0, -1.0))
    with pytest.raises(CertificateError, match="exceeds certified residual"):
        solve_sp(build_master_example1(PENNIES),
                 config=SolverConfig(eps_target=1e-6, gap_threshold=1e-6))


def test_factored_game_transfers_each_certificate_once(monkeypatch):
    # one search per player at every protocol entry and every round, none after the run
    calls = []
    search = DenseMatrixOracle.col_extreme

    def counted(self, x, direction):
        calls.append(direction)
        return search(self, x, direction)

    monkeypatch.setattr(DenseMatrixOracle, "col_extreme", counted)
    rng = np.random.default_rng(3)
    spec = BilinearSpSpec(A=DenseMatrixOracle(rng.normal(size=(3, 5))),
                          D=DenseMatrixOracle(rng.normal(size=(3, 4))))
    sol = solve_sp(build_master_example2(spec),
                   config=SolverConfig(gap_threshold=1e-6, cert_period=20))
    assert len(sol.rounds) >= 2
    assert len(calls) == 2 * (len(sol.protocol) + len(sol.rounds))
    last = sol.rounds[-1]
    assert (sol.gap_exact, sol.value_estimate) == (last["gap"], last["value"])
    assert sol.gap_exact == exact_gap(spec, sol)
