from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import eps_sad_enum, lp_game_value, rebuilt_gap, round_atoms
from lmodecomp import saddle, solvers, vi
from lmodecomp.blotto import BlottoSpec, build_blotto, random_rank1_omegas
from lmodecomp.certificates import CertificateError, residual, residual_ball_product
from lmodecomp.oracles import (
    DenseMatrixOracle,
    DpOracle,
    DpSystem,
    KnapsackOracle,
    KnapsackSpec,
    enumerate_columns,
)
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
from lmodecomp.vi import NashSpec, eps_vi_exact, nash_to_skew, solve_vi

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


@pytest.mark.parametrize("square", [True, False])
def test_primal_eval_is_the_textbook_formula_bit_for_bit(square):
    # the field is written in place and g_u, g_v read it back; the record
    # holds none of the caller's arrays, so changing them leaves it as it was
    rng = np.random.default_rng(8)
    if square:
        S = rng.normal(size=(4, 5))
        master = build_master_example1(S, p=rng.normal(size=5), q=rng.normal(size=4))
    else:
        master = build_master_example2(BilinearSpSpec(
            A=DenseMatrixOracle(rng.normal(size=(3, 6))),
            D=DenseMatrixOracle(rng.normal(size=(3, 5)))))
        S = np.eye(3)
    for _ in range(50):
        u, v = rng.normal(size=master.dim_u), rng.normal(size=master.dim_v)
        ev = primal_value_grad(master, u, v)
        w, z = master.D.col_extreme(v, "min"), master.A.col_extreme(u, "max")
        r_u, rt_v = (S @ u, S.T @ v) if square else (u, v)
        assert (ev.w_hit.key, ev.z_hit.key) == (w.key, z.key)
        assert ev.phi == w.value + z.value - float(v @ r_u)
        assert ev.g_u.tobytes() == (z.column - rt_v).tobytes()
        assert ev.g_v.tobytes() == (w.column - r_u).tobytes()
        assert ev.field.tobytes() == np.concatenate([ev.g_u, -ev.g_v]).tobytes()
        phi, field = ev.phi, ev.field.copy()
        u += 1.0
        v *= -2.0
        assert ev.phi == phi and ev.field.tobytes() == field.tobytes()


def test_step_path_runs_through_every_traced_layer(monkeypatch):
    # a tracer wraps these by name, where their callers look them up: the
    # module global primal_value_grad and the classes' col_extreme and
    # eta_argmin; every protocol entry must pass through each of them
    calls = Counter()

    def count(owner, attr):
        fn = vars(owner)[attr]

        def counted(*args, **kwargs):
            calls[owner.__name__, attr] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(saddle, "primal_value_grad")
    count(DenseMatrixOracle, "col_extreme")
    count(KnapsackOracle, "col_extreme")
    count(vi.NashSkewSystem, "eta_argmin")
    rng = np.random.default_rng(9)
    game = solve_sp(build_master_example2(BilinearSpSpec(
        A=DenseMatrixOracle(rng.normal(size=(2, 4))),
        D=DenseMatrixOracle(rng.normal(size=(2, 3))))),
        config=SolverConfig(eps_target=1e-5, gap_threshold=1e-5))
    t = len(game.protocol)
    assert t > 0 and calls["lmodecomp.saddle", "primal_value_grad"] == t
    assert calls["DenseMatrixOracle", "col_extreme"] >= 2 * t
    encoders = [KnapsackOracle(KnapsackSpec(
        bounds=(2, 2), costs=(1, 1), budget=cap,
        outputs=tuple(rng.normal(size=(3, 1)) for _ in range(2)))) for cap in (2, 3)]
    B, Z = rng.normal(size=(2, 2)), np.zeros((2, 2))
    nash = vi.solve_vi(vi.nash_to_skew(vi.NashSpec(D=encoders, M=[[Z, B], [-B.T, Z]])),
                       config=SolverConfig(eps_target=1e-4, gap_threshold=1e-4))
    t = len(nash.protocol)
    assert t > 0 and calls["NashSkewSystem", "eta_argmin"] >= t
    assert calls["KnapsackOracle", "col_extreme"] >= 2 * t


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


@pytest.mark.usefixtures("certificate_rounds_only")
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
    big, dom = master_transfer_protocol(master, sol.protocol, sol.payloads)
    master_res = residual(big, sol.cert, dom).residual
    primal_res = residual_ball_product(sol.protocol, sol.cert,
                                       (master.R_U, master.R_V), master.dim_u)
    assert master_res <= primal_res + 1e-9
    assert sol.gap_exact <= master_res + 1e-9


def test_transfer_on_knapsack_sides_places_atoms_at_their_columns():
    # knapsack atoms are action sequences, not column numbers
    spec = BlottoSpec(caps_a=(2, 2), caps_d=(2, 2), costs_a=(1, 1), costs_d=(1, 1),
                      budget_a=2, budget_d=2, omegas=random_rank1_omegas(2, (2, 2), (2, 2), 3))
    master = build_master_example2(build_blotto(spec), shared_radius=True)
    sol = solve_sp(master, config=SolverConfig(gap_threshold=1e-6, max_steps=400))
    big, dom = master_transfer_protocol(master, sol.protocol, sol.payloads)
    primal_res = residual_ball_product(sol.protocol, sol.cert,
                                       (master.R_U, master.R_V), master.dim_u)
    assert residual(big, sol.cert, dom).residual <= primal_res + 1e-9


def test_dp_start_states_keep_their_own_atoms():
    # a 1-stage DP with start states 0 and 1 lists the columns (0,), (1,),
    # (0,), (1,) by action sequence; keyed by that alone, the weights of
    # distinct columns merged and the run raised CertificateError
    rng = np.random.default_rng(1)
    dp = DpSystem(n_states=[2], actions=[[[0, 1], [0, 1]]], transitions=[],
                  outputs=[[rng.normal(size=(2, 2)).tolist() for _ in range(2)]],
                  start_states=[0, 1])
    D, A = DpOracle(dp), DenseMatrixOracle(rng.normal(size=(2, 3)))
    master = build_master_example2(BilinearSpSpec(A=A, D=D))
    sol = solve_sp(master)
    w_keys, D_mat = enumerate_columns(D)
    assert len(set(w_keys)) == D.count_columns() == 4
    assert {start for start, _ in sol.w_atoms} == {0, 1}
    w, z = np.zeros(4), np.zeros(3)
    for k, wt in sol.w_atoms.items():
        w[w_keys.index(k)] += wt
    for (j,), wt in sol.z_atoms.items():
        z[j] += wt
    assert abs(eps_sad_enum(A.matrix.T @ D_mat, w, z) - sol.gap_exact) <= 1e-9
    assert sol.gap_exact <= sol.gap_bound
    big, dom = master_transfer_protocol(master, sol.protocol, sol.payloads)
    assert residual(big, sol.cert, dom).residual <= sol.cert.residual + 1e-9


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


def test_square_offset_of_wrong_length_is_rejected():
    S = np.arange(6.0).reshape(2, 3)
    with pytest.raises(ValueError, match=r"offset q: offset has shape \(1,\)"):
        build_master_example1(S, q=[1.0])
    with pytest.raises(ValueError, match=r"offset p: offset has shape \(2,\)"):
        build_master_example1(S, p=[1.0, 2.0])


def test_offset_needs_a_dense_side():
    knapsack = KnapsackOracle(KnapsackSpec(bounds=(1,), costs=(1,), budget=1,
                                           outputs=(np.array([[0.0], [1.0]]),)))
    with pytest.raises(ValueError, match="offset q needs a dense side"):
        BilinearSpSpec(A=knapsack, D=DenseMatrixOracle([[1.0, 2.0]]), q=[0.0, 1.0])
    with pytest.raises(ValueError, match=r"offset p: offset has shape \(3,\)"):
        BilinearSpSpec(A=knapsack, D=DenseMatrixOracle([[1.0, 2.0]]), p=np.zeros(3))


def test_factored_offsets_match_lp():
    rng = np.random.default_rng(6)
    A, D = rng.normal(size=(3, 5)), rng.normal(size=(3, 4))
    p, q = rng.normal(size=4), rng.normal(size=5)
    spec = BilinearSpSpec(A=DenseMatrixOracle(A), D=DenseMatrixOracle(D), p=p, q=q)
    sol = solve_sp(build_master_example2(spec),
                   config=SolverConfig(eps_target=2e-7, gap_threshold=4e-7))
    # on simplices psi(w, z) = <z, (A^T D + q 1^T + 1 p^T) w>
    S = A.T @ D + q[:, None] + p[None, :]
    assert abs(sol.value_estimate - lp_game_value(S)) <= 1e-6
    assert sol.gap_exact == exact_gap(spec, sol) <= sol.gap_bound + 1e-9


def test_solve_sp_raises_when_exact_gap_exceeds_residual(monkeypatch):
    # an exact gap of 2 can never be certified by the residual
    bounds = saddle._value_bounds
    monkeypatch.setattr(saddle, "_value_bounds",
                        lambda master, *atoms: (1.0, -1.0, bounds(master, *atoms)[2]))
    with pytest.raises(CertificateError, match="exceeds certified residual"):
        solve_sp(build_master_example1(PENNIES),
                 config=SolverConfig(eps_target=1e-6, gap_threshold=1e-6))


@pytest.mark.usefixtures("certificate_rounds_only")
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


@pytest.mark.parametrize("side", ["dense", "knapsack"])
def test_exact_gap_reads_only_the_atoms(side):
    # exact_gap rebuilds the atoms' columns through the oracles, so the
    # weighted atoms alone give the closing round's gap
    rng = np.random.default_rng(8)
    if side == "dense":
        A = DenseMatrixOracle(rng.normal(size=(3, 5)))
    else:
        A = KnapsackOracle(KnapsackSpec(bounds=(2, 1), costs=(1, 2), budget=3,
                                        outputs=(rng.normal(size=(3, 2)),
                                                 rng.normal(size=(2, 1)))))
    spec = BilinearSpSpec(A=A, D=DenseMatrixOracle(rng.normal(size=(3, 4))))
    sol = solve_sp(build_master_example2(spec), config=SolverConfig(gap_threshold=1e-6))
    atoms = SimpleNamespace(w_atoms=sol.w_atoms, z_atoms=sol.z_atoms)
    assert exact_gap(spec, atoms) == sol.gap_exact <= sol.gap_bound + 1e-9


def test_pure_saddle_point_stops_at_the_first_round_with_bound_rho():
    # S[0, 0] = 1 is the largest entry of its column and the least of its row.
    # The first round's atoms are that pure pair, whose computed gap is
    # exactly 0, so the bound is the rounding allowance rho, not the residual
    S = np.array([[1.0, 2.0, 3.0], [0.0, 1.5, 2.0], [-1.0, 0.5, 4.0]])
    master = build_master_example1(S)
    sol = solve_sp(master, config=SolverConfig(eps_target=1e-12, gap_threshold=1e-12))
    assert sol.stop_reason == "gap_threshold" and len(sol.rounds) == 1
    assert list(sol.w_atoms) == list(sol.z_atoms) == [(0,)]
    assert sol.gap_exact == 0.0 and abs(sol.value_estimate - 1.0) <= 1e-15
    rho = saddle._allowance(master, sol.w_atoms, sol.z_atoms, {(0,): S[:, 0]},
                            {(0,): S[0, :]})
    assert 0.0 < sol.gap_bound <= rho < 1e-13 < sol.cert.residual


def test_dense_game_reaches_the_lp_value_at_its_first_round():
    # criterion 03's sizes with K = 3: the ellipsoid's first early round, at
    # step K + 1 = 4, well before the first certificate LP at 4 K^2 = 36,
    # has hit enough of an equilibrium's columns on both sides for its
    # restricted master's best replies to close the gap
    rng = np.random.default_rng(12)
    for _ in range(5):
        M, N = (int(x) for x in rng.integers(5, 101, size=2))
        A, D = rng.normal(size=(3, N)), rng.normal(size=(3, M))
        spec = BilinearSpSpec(A=DenseMatrixOracle(A), D=DenseMatrixOracle(D))
        sol = solve_sp(build_master_example2(spec),
                       config=SolverConfig(eps_target=2e-7, gap_threshold=4e-7))
        steps = [r["step"] for r in sol.rounds]
        assert steps == [4] and sol.steps == 4
        assert all(r["lp_solves"] == 0 for r in sol.rounds)
        assert sol.rounds[-1]["atoms"] == "restricted"
        assert abs(sol.value_estimate - lp_game_value(A.T @ D)) <= 1e-9
        assert exact_gap(spec, sol) == sol.gap_exact < sol.gap_bound <= 1e-12


def test_restricted_round_makes_two_searches_per_player(monkeypatch):
    # one search per player at every protocol entry; a round searches once
    # per player for each set of atoms it evaluates, none after the run
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
    assert [r["atoms"] for r in sol.rounds] == ["restricted"]
    assert len(calls) == 2 * len(sol.protocol) + 4 * len(sol.rounds)


@pytest.mark.parametrize("problem", ["game", "nash"])
def test_rejected_restricted_lp_leaves_the_certificates_round(monkeypatch, problem):
    # where HiGHS rejects the restricted LP, a round returns the atoms that its
    # certificate transfers, with their gap and the bound
    # max(min(residual, gap + rho), gap)
    def rejected(*args):
        raise solvers._Rejected("rejected by the test")

    rng = np.random.default_rng(3 if problem == "game" else 2)  # mixed equilibria
    config = SolverConfig(gap_threshold=1e-6)
    if problem == "game":
        monkeypatch.setattr(saddle, "_restricted_lp", rejected)
        master = build_master_example2(BilinearSpSpec(
            A=DenseMatrixOracle(rng.normal(size=(3, 5))),
            D=DenseMatrixOracle(rng.normal(size=(3, 4)))))
        sol = solve_sp(master, config=config)
        w_atoms, z_atoms, w_cols, z_cols = saddle._atoms(sol.cert, sol.payloads)
        assert (sol.w_atoms, sol.z_atoms) == (w_atoms, z_atoms)
        gap, bound = exact_gap(master, sol), sol.gap_bound
        rho = saddle._allowance(master, w_atoms, z_atoms, w_cols, z_cols)
    else:
        monkeypatch.setattr(vi, "_restricted_lp", rejected)
        skew = nash_to_skew(NashSpec(
            D=[DenseMatrixOracle(np.eye(2)), DenseMatrixOracle(np.eye(3))],
            M=[[np.zeros((2, 2)), (C := rng.normal(size=(2, 3)))],
               [-C.T, np.zeros((3, 3))]]))
        sol = solve_vi(skew, config=config)
        terms = vi._payload_terms(sol.cert, sol.payloads)
        assert sol.eta_atoms == {k: w for k, (w, _, _) in terms.items()}
        gap, bound = eps_vi_exact(skew, sol.eta_atoms), sol.eps_bound
        rho = vi._skew_allowance(skew, terms)
    assert len(sol.rounds) >= 2
    assert all(r["atoms"] == "certificate" and r["gap"] == r["cert_gap"] for r in sol.rounds)
    assert gap == sol.rounds[-1]["gap"]
    assert bound == max(min(sol.cert.residual, gap + rho), gap)



def _random_problem(path, rng):
    """A small random factored game, square game with offsets or two-player
    dense Nash game as a skew VI, with mixed equilibria."""
    if path == "skew":
        C = rng.normal(size=(3, 4))
        return nash_to_skew(NashSpec(
            D=[DenseMatrixOracle(rng.normal(size=(3, 6))), DenseMatrixOracle(np.eye(4))],
            M=[[np.zeros((3, 3)), C], [-C.T, np.zeros((4, 4))]]))
    if path == "square":
        return build_master_example1(rng.normal(size=(4, 6)), p=rng.normal(size=6),
                                     q=rng.normal(size=4))
    return build_master_example2(BilinearSpSpec(A=DenseMatrixOracle(rng.normal(size=(3, 7))),
                                                D=DenseMatrixOracle(rng.normal(size=(3, 6)))))


def _keys(hit):
    """A payload's pure strategies: per side of a game's (w_hit, z_hit)
    pair, per block of a skew VI's EtaHit."""
    return hit.atoms if isinstance(hit, vi.EtaHit) else tuple(h.key for h in hit)


def _first_keys(hits):
    """Per side or block, the distinct pure strategies of the payloads
    `hits`, in first-occurrence order."""
    return [list(dict.fromkeys(side)) for side in zip(*map(_keys, hits))]


def _holds_its_columns(problem, pool):
    """Whether a restricted master's pool, one {key: column} table per side
    or block, holds its oracles' columns."""
    sides = (problem.system.blocks if isinstance(problem, vi.SkewViSpec)
             else (problem.D, problem.A))
    return all(np.array_equal(column, side.column(key))
               for side, table in zip(sides, pool) for key, column in table.items())


@pytest.mark.parametrize("solver", ["ellipsoid", "md"])
@pytest.mark.parametrize("path", ["factored", "square", "skew"])
def test_each_round_feeds_its_replies_to_the_later_restricted_masters(monkeypatch, path,
                                                                      solver):
    # each restricted master receives one {key: column} table per side or
    # block: the pure strategies of the protocol's payloads, then those of
    # the best replies to each round's certificate atoms and to each
    # restricted equilibrium, which their gap evaluations searched for,
    # each in first-occurrence order: a round's certificate reply joins
    # its first master, an equilibrium's reply the round's next master and
    # the later rounds'; a round re-solves while a reply is new, at most
    # once per protocol entry since the previous round, and records its
    # solves and its last master's size; every round's bound is at least
    # the gap of the atoms it returned, their columns rebuilt through the
    # oracles, and at most that gap plus its rounding allowance
    module, name = (vi, "_restricted_terms") if path == "skew" else (saddle, "_restricted_master")
    solve_restricted, choose, calls, returned = getattr(module, name), solvers._choose_atoms, [], []

    def restricted(problem, pool):
        calls.append((list(pool), solve_restricted(problem, pool)))
        return calls[-1][1]

    def chosen(*args):
        returned.append(choose(*args))
        return returned[-1]

    monkeypatch.setattr(module, name, restricted)
    monkeypatch.setattr(solvers, "_choose_atoms", chosen)
    rng = np.random.default_rng(21)
    config = SolverConfig(eps_target=1e-14, gap_threshold=0.0, max_steps=150)
    fed = resolved = 0  # restricted masters that received replies; rounds that re-solved
    for _ in range(4):
        problem, calls[:], returned[:] = _random_problem(path, rng), [], []
        if path == "skew":
            sol = solve_vi(problem, solver, config)

            def reply(terms):
                return vi._skew_eps_exact(problem, terms)[2]

            cert_atoms = vi._payload_terms
        else:
            sol = solve_sp(problem, solver, config)

            def reply(atoms):
                return saddle._value_bounds(problem, *atoms)[2]

            cert_atoms = saddle._atoms

        assert len(returned) == len(sol.rounds)
        assert len(calls) == sum(r["master_solves"] for r in sol.rounds)
        replies, previous_t, solves = [], 0, iter(calls)
        for (atoms, _), record in zip(returned, sol.rounds):
            t = record["t"]
            round_calls = [next(solves) for _ in range(record["master_solves"])]
            assert 1 <= len(round_calls) <= 1 + t - previous_t
            cert = SimpleNamespace(weights=record["weights"])
            replies.append(reply(cert_atoms(cert, sol.payloads[:t])))
            previous_t = t
            resolved += len(round_calls) > 1
            for k, (pool, out) in enumerate(round_calls):
                assert [list(table) for table in pool] == _first_keys(sol.payloads[:t] + replies)
                assert _holds_its_columns(problem, pool)
                fed += [list(table) for table in pool] != _first_keys(sol.payloads[:t])
                if out is None:  # a rejected LP ends the round's loop
                    assert k == len(round_calls) - 1
                    continue
                replies.append(reply(out))
                if k < len(round_calls) - 1:  # re-solved: the reply was new
                    assert any(key not in table for key, table in zip(_keys(replies[-1]), pool))
            assert record["master_columns"] == tuple(map(len, round_calls[-1][0]))
            gap, rho = rebuilt_gap(problem, round_atoms(atoms))
            assert gap == record["gap"] <= record["bound"] <= gap + rho
    assert fed and resolved


@pytest.mark.parametrize("path", ["factored", "square", "skew"])
def test_rounds_read_each_payload_and_reply_once(monkeypatch, path):
    # the rounds keep the restricted master's pool across the run: a round
    # reads the strategies of the payloads that are new since the previous
    # round, in protocol order, and those of each reply when it is found,
    # never an earlier payload again
    module, read = vi if path == "skew" else saddle, []

    def kept(threshold, atoms_of, evaluate, solve, strategies):
        def counted_evaluate(atoms):
            read.append("reply")
            return evaluate(atoms)

        def counted_strategies(payload):
            read.append(payload)
            return strategies(payload)

        return solvers._Rounds(threshold, atoms_of, counted_evaluate, solve, counted_strategies)

    monkeypatch.setattr(module, "_Rounds", kept)
    rng = np.random.default_rng(21)
    config = SolverConfig(eps_target=1e-14, gap_threshold=0.0, max_steps=150)
    later = 0  # runs with more than one round
    for _ in range(4):
        problem, read[:] = _random_problem(path, rng), []
        sol = (solve_vi if path == "skew" else solve_sp)(problem, config=config)
        later += len(sol.rounds) > 1
        index = {id(p): i for i, p in enumerate(sol.payloads)}
        payloads = [index[id(x)] for x in read if id(x) in index]
        assert payloads == list(range(sol.rounds[-1]["t"]))
        # each evaluation finds one reply, whose strategies are read once
        assert len(read) == len(payloads) + 2 * read.count("reply")
    assert later


def test_a_constant_game_ends_each_round_after_one_solve():
    # psi = 5 at every pure pair: the restricted equilibrium's computed gap is
    # 0 or rounding, within its allowance rho, so even at gap_threshold 0 the
    # round does not re-solve, whether or not the best replies are new
    for seed in range(16):
        rng = np.random.default_rng(seed)
        M, N = (int(x) for x in rng.integers(3, 8, size=2))
        p, q = rng.normal(size=N), rng.normal(size=M)
        master = build_master_example1(5.0 - p[None, :] - q[:, None], p=p, q=q)
        sol = solve_sp(master, config=SolverConfig(gap_threshold=0.0, max_steps=40))
        assert all(r["master_solves"] == 1 for r in sol.rounds)
        assert abs(sol.value_estimate - 5.0) <= 1e-14 and sol.gap_exact <= sol.gap_bound < 1e-11


@pytest.mark.parametrize("solver", ["ellipsoid", "md"])
def test_re_solves_never_exceed_the_entries_since_the_previous_round(monkeypatch, solver):
    # a re-solve evaluates its equilibrium with the oracle calls of one field
    # evaluation, so the round's re-solves, capped by the protocol's growth
    # since the previous round, at most double the run's oracle calls
    calls = []
    search = DenseMatrixOracle.col_extreme

    def counted(self, x, direction):
        calls.append(direction)
        return search(self, x, direction)

    monkeypatch.setattr(DenseMatrixOracle, "col_extreme", counted)
    # rock-paper-scissors-lizard-Spock (strategy i beats i + 1 and i + 2 mod
    # 5) stopped after one step: the first restricted master is the step's
    # pure pair and the best replies to it, and the one re-solve that the
    # step allows adds the replies to its equilibrium, three strategies per
    # side, which leave the game unsolved.  (Matching pennies, the pair and
    # its replies, closes at gap 0 on that re-solve.)
    i, rpsls = np.arange(5), np.zeros((5, 5))
    for d in (1, 2):
        rpsls[i, (i + d) % 5], rpsls[(i + d) % 5, i] = 1.0, -1.0
    sol = solve_sp(build_master_example2(BilinearSpSpec(
        A=DenseMatrixOracle(rpsls), D=DenseMatrixOracle(np.eye(5)))), solver,
        SolverConfig(gap_threshold=1e-12, max_steps=1))
    assert [(r["t"], r["master_solves"], r["master_columns"]) for r in sol.rounds] == [
        (1, 2, (3, 3))]
    assert sol.stop_reason == "max_steps" and sol.gap_exact > 1.0
    sol = solve_sp(build_master_example2(BilinearSpSpec(
        A=DenseMatrixOracle(PENNIES), D=DenseMatrixOracle(np.eye(2)))), solver,
        SolverConfig(gap_threshold=1e-12, max_steps=1))
    assert [(r["t"], r["master_solves"]) for r in sol.rounds] == [(1, 2)]
    assert sol.stop_reason == "max_steps" and sol.gap_exact == 0.0
    rng = np.random.default_rng(5)
    resolved = 0
    for _ in range(8):
        calls[:] = []
        sol = solve_sp(build_master_example2(BilinearSpSpec(
            A=DenseMatrixOracle(rng.normal(size=(4, 60))),
            D=DenseMatrixOracle(rng.normal(size=(4, 60))))), solver,
            SolverConfig(gap_threshold=1e-9, max_steps=200))
        previous = 0
        for r in sol.rounds:
            assert 1 <= r["master_solves"] <= 1 + r["t"] - previous
            previous = r["t"]
            resolved += r["master_solves"] > 1
        # the protocol's searches, then per round the certificate's atoms and
        # each restricted equilibrium, two searches each
        evaluations = sum(1 + r["master_solves"] for r in sol.rounds)
        assert len(calls) == 2 * len(sol.protocol) + 2 * evaluations
    assert resolved


@pytest.mark.parametrize("path", ["factored", "square", "skew"])
def test_a_rounds_bound_is_at_most_its_first_restricted_solves(monkeypatch, path):
    # a round returns the least bound among the certificate's atoms and every
    # restricted equilibrium it solved, so re-solving never raises the bound
    # of the first solve's equilibrium, gap + rho
    module, name = (vi, "_skew_evaluated") if path == "skew" else (saddle, "_evaluated")
    evaluate, evaluated = getattr(module, name), []

    def recorded(problem, atoms):
        evaluated.append(evaluate(problem, atoms))
        return evaluated[-1]

    monkeypatch.setattr(module, name, recorded)
    rng = np.random.default_rng(21)
    config = SolverConfig(eps_target=1e-14, gap_threshold=0.0, max_steps=150)
    resolved = 0
    for _ in range(4):
        problem, evaluated[:] = _random_problem(path, rng), []
        sol = (solve_vi if path == "skew" else solve_sp)(problem, config=config)
        rest = iter(evaluated)
        for r in sol.rounds:
            next(rest)  # the certificate's atoms
            (_, gap, rho, _), _ = next(rest)
            for _ in range(r["master_solves"] - 1):
                next(rest)
            resolved += r["master_solves"] > 1
            assert r["bound"] <= gap + rho
        assert next(rest, None) is None
    assert resolved
