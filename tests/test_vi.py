import math
import re

import numpy as np
import pytest

from conftest import eps_sad_enum, lp_game_value
from lmodecomp import solvers, vi
from lmodecomp.certificates import AccuracyCertificate, CertificateError, residual
from lmodecomp.domains import Domain, FiniteAtoms, Product, Simplex
from lmodecomp.oracles import (
    DenseMatrixOracle,
    DpOracle,
    DpSystem,
    KnapsackOracle,
    KnapsackSpec,
    enumerate_columns,
)
from lmodecomp.solvers import SolverConfig
from lmodecomp.vi import (
    AffineViSpec,
    DenseSkewSystem,
    NashSpec,
    SkewViSpec,
    build_affine_vi_primal,
    build_skew_vi_primal,
    eps_nash,
    eps_vi_exact,
    nash_spec_from_json,
    nash_to_skew,
    skew_master_protocol,
    solve_vi,
)

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])


def rotation_affine_spec():
    S = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return AffineViSpec(S=S, s=np.zeros(2), H=Simplex(2), Xi_radius=1.0)


def pennies_nash_spec(g=None):
    Z = np.zeros((2, 2))
    return NashSpec(
        D=[DenseMatrixOracle(np.eye(2)), DenseMatrixOracle(np.eye(2))],
        M=[[Z, PENNIES], [-PENNIES.T, Z]], g=g)


def random_nash_spec(rng, sizes):
    L = len(sizes)
    M = [[None] * L for _ in range(L)]
    for l in range(L):
        M[l][l] = np.zeros((sizes[l], sizes[l]))
        for lp in range(l + 1, L):
            B = rng.normal(size=(sizes[l], sizes[lp]))
            M[l][lp] = B
            M[lp][l] = -B.T
    return NashSpec(D=[DenseMatrixOracle(np.eye(n)) for n in sizes], M=M)


def random_coupling(rng, rows):
    L = len(rows)
    M = [[np.zeros((rows[l], rows[lp])) for lp in range(L)] for l in range(L)]
    for l in range(L):
        for lp in range(l + 1, L):
            M[l][lp] = rng.normal(size=(rows[l], rows[lp]))
            M[lp][l] = -M[l][lp].T
    return M


def random_knapsack_encoder(rng, dims):
    bounds = tuple(int(b) for b in rng.integers(1, 4, size=len(dims)))
    return KnapsackOracle(KnapsackSpec(
        bounds=bounds, costs=(1,) * len(dims), budget=3,
        outputs=tuple(rng.normal(size=(b + 1, r)) for b, r in zip(bounds, dims))))


def knapsack_nash_spec(rng, caps, stages=2):
    """Players whose strategies are the columns of `stages`-stage knapsacks
    (cap = budget, 1-dim Gaussian outputs), with pairwise Gaussian couplings."""
    D = [KnapsackOracle(KnapsackSpec(
        bounds=(cap,) * stages, costs=(1,) * stages, budget=cap,
        outputs=tuple(rng.normal(size=(cap + 1, 1)) for _ in range(stages)))) for cap in caps]
    return NashSpec(D=D, M=random_coupling(rng, [stages] * len(caps)))


def dp_start_states_nash_spec():
    """A 1-stage DP player with start states 0 and 1, which both have the
    action sequences (0,) and (1,), against a dense 2 x 3 encoder."""
    rng = np.random.default_rng(1)
    dp = DpSystem(n_states=[2], actions=[[[0, 1], [0, 1]]], transitions=[],
                  outputs=[[rng.normal(size=(2, 2)).tolist() for _ in range(2)]],
                  start_states=[0, 1])
    D = [DpOracle(dp), DenseMatrixOracle(rng.normal(size=(2, 3)))]
    B, Z = rng.normal(size=(2, 2)), np.zeros((2, 2))
    return NashSpec(D=D, M=[[Z, B], [-B.T, Z]])


def eta_argmin_reference(spec, x1, x2):
    """Column search of NashSkewSystem as one loop over the blocks M[lp][l]."""
    offsets = np.cumsum([0] + [d.n_rows for d in spec.D])
    x1b = [x1[offsets[l]:offsets[l + 1]] for l in range(spec.L)]
    x2b = [x2[offsets[l]:offsets[l + 1]] for l in range(spec.L)]
    atoms, value, f_dot = [], 0.0, 0.0
    p_vec, q_vec = np.zeros(offsets[-1]), np.zeros(offsets[-1])
    for l in range(spec.L):
        y = 0.5 * x2b[l]
        for lp in range(spec.L):
            y = y + spec.M[lp][l].T @ x1b[lp]
        if spec.g is None:
            hit = spec.D[l].col_extreme(y, "max")
            best, d_col, atom = -hit.value, hit.column, hit.action_sequence
        else:
            vals = spec.g[l] - y @ spec.D[l].matrix
            j = int(np.argmin(vals))
            best, d_col, atom = float(vals[j]), spec.D[l].matrix[:, j], (j,)
            f_dot += float(spec.g[l][j])
        atoms.append(atom)
        value += best
        q_vec[offsets[l]:offsets[l + 1]] += 0.5 * d_col
        for lp in range(spec.L):
            p_vec[offsets[lp]:offsets[lp + 1]] += spec.M[lp][l] @ d_col
    return tuple(atoms), value, f_dot, p_vec, q_vec


def test_affine_primal_field_hand_value():
    oracle = build_affine_vi_primal(rotation_affine_spec())
    value, payload = oracle(np.array([1.0, 0.0]))
    # F(xi) = S xi = (0, -1), so eta_bar = e2 and Psi = S^T (xi - e2) = (1, 1)
    assert np.array_equal(payload["eta"], [0.0, 1.0])
    assert np.allclose(value, [1.0, 1.0])


def test_affine_constant_field_solved_exactly():
    # S = 0: F is the constant s, so any certificate recovers the LMO vertex
    spec = AffineViSpec(S=np.zeros((3, 3)),
                        s=np.array([0.5, -1.0, 2.0]), H=Simplex(3), Xi_radius=1.0)
    sol = solve_vi(spec, config=SolverConfig(eps_target=1e-8, max_steps=500))
    assert sol.eps_exact is not None
    assert sol.eps_exact <= 1e-10
    assert np.allclose(sol.eta_vector, [0.0, 1.0, 0.0], atol=1e-10)


def test_affine_rotation_solved():
    sol = solve_vi(rotation_affine_spec(),
                   config=SolverConfig(eps_target=1e-7, gap_threshold=1e-9,
                                       max_steps=4000))
    # the recovered point is a weak solution: dual gap (computed by
    # enumerating the simplex vertices) is certified and tiny
    assert sol.eps_exact is not None
    assert sol.eps_exact <= 1e-9
    assert sol.eps_exact <= sol.eps_bound + 1e-12


@pytest.mark.parametrize("solver", ["ellipsoid", "md"])
def test_affine_vi_rounds_early_like_every_run(solver):
    # an affine round bounds its point by the gap function plus rho, so it
    # has the early rounds of every run: at n + 1 = 3, 6 and 12 without the
    # LP, which the round at 4 n^2 = 16 solves
    sol = solve_vi(rotation_affine_spec(), solver,
                   SolverConfig(eps_target=1e-7, gap_threshold=1e-9, max_steps=4000))
    assert [(r["step"], r["lp_solves"] > 0) for r in sol.rounds] == [
        (3, False), (6, False), (12, False), (16, True)]
    assert all(r["gap"] <= r["bound"] <= r["gap"] + 1e-14 for r in sol.rounds)


def test_affine_finite_atoms_eps_exact():
    atoms = FiniteAtoms(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
    spec = AffineViSpec(S=np.zeros((2, 2)), s=np.array([1.0, -1.0]), H=atoms, Xi_radius=1.0)
    # dual gap of a hand-picked point: max_v <s, eta - v> with best v = e2
    assert abs(eps_vi_exact(spec, np.array([1.0, 0.0])) - 2.0) < 1e-12


def test_affine_gap_of_e1_on_the_2_simplex():
    # S = I is monotone, not skew: at eta = e1 the dual gap is
    # max_t (t - 2 t^2) = 1/8 over eta' = (1 - t, t), which the maximum over
    # the vertices alone read as 0; the gap function is 1 - min(1, 0) = 1
    spec = AffineViSpec(S=np.eye(2), s=np.zeros(2), H=Simplex(2), Xi_radius=1.0)
    gap = eps_vi_exact(spec, np.array([1.0, 0.0]))
    assert gap >= 1 / 8
    assert gap == 1.0


def test_affine_gap_of_a_monotone_vi_bounds_the_vertex_maximum():
    # S = 10 B B^T is monotone, not skew.  The maximum of <F(v), eta - v> over
    # the vertices v of H, the gap this VI reported before, is only a lower
    # bound on the dual gap: it read -34.97 and stopped the run at step 144
    rng = np.random.default_rng(14)
    B, s = rng.normal(size=(6, 6)), rng.normal(size=6)
    S = 10.0 * B @ B.T
    spec = AffineViSpec(S=S, s=s, H=Simplex(6), Xi_radius=1.0)
    sol = solve_vi(spec)
    eta = sol.eta_vector
    vertex_max = max(float((S @ v + s) @ (eta - v)) for v in np.eye(6))
    assert sol.stop_reason == "gap_threshold"
    assert vertex_max <= sol.eps_exact <= sol.eps_bound
    assert sol.eps_exact == eps_vi_exact(spec, eta)
    assert all(r["gap"] >= -1e-12 * r["scale"] for r in sol.rounds)


def test_primal_field_monotone_sampled():
    rng = np.random.default_rng(0)
    specs = [rotation_affine_spec(), nash_to_skew(random_nash_spec(rng, [3, 4]))]
    oracles = [build_affine_vi_primal(specs[0]), build_skew_vi_primal(specs[1])]
    dims = [2, 2 * specs[1].K]
    for oracle, d in zip(oracles, dims):
        for _ in range(100):
            x, y = rng.normal(size=(2, d))
            fx, _ = oracle(x)
            fy, _ = oracle(y)
            assert (fx - fy) @ (x - y) >= -1e-9


def test_nash_to_skew_is_skew_symmetric():
    rng = np.random.default_rng(1)
    for sizes in ([2, 2], [3, 4, 2]):
        system = nash_to_skew(random_nash_spec(rng, sizes)).system
        P, Q, _ = system.dense_PQ()
        A = Q.T @ P
        assert np.max(np.abs(A + A.T)) < 1e-12
        n = A.shape[0]
        for _ in range(1000):
            eta = rng.normal(size=n)
            quad = eta @ (2.0 * A @ eta)
            assert abs(quad) <= 1e-9 * max(1.0, eta @ eta)


def test_skew_field_reproduces_zero_sum_gradients():
    # two-player zero-sum: F(x1, x2) = (S x2, -S^T x1) up to the g terms
    spec = pennies_nash_spec()
    system = nash_to_skew(spec).system
    P, Q, f = system.dense_PQ()
    assert f is None
    rng = np.random.default_rng(2)
    for _ in range(20):
        x1, x2 = rng.uniform(size=(2, 2))
        eta = np.concatenate([x1, x2])
        field = 2.0 * Q.T @ P @ eta
        assert np.allclose(field, np.concatenate([PENNIES @ x2, -PENNIES.T @ x1]))


def test_dense_skew_system_argmin_and_radii():
    P = np.array([[1.0, -1.0, 0.0], [0.0, 2.0, 1.0]])
    Q = np.array([[0.5, 0.0, 1.0], [1.0, 0.5, 0.0]])
    system = DenseSkewSystem(P, Q, f=np.array([0.0, 1.0, -1.0]), block_sizes=(2, 1))
    hit = system.eta_argmin(np.array([1.0, 0.0]), np.zeros(2))
    # query = f - P^T x1 = (-1, 2, -1); blockwise minima at j=0 and j=0
    assert hit.atoms == ((0,), (0,))
    assert abs(hit.value - (-2.0)) < 1e-12
    assert np.array_equal(hit.p_vec, P[:, 0] + P[:, 2])
    r1, r2 = system.xi_radii()
    assert abs(r1 - (np.sqrt(1.25) + 1.0)) < 1e-12
    assert abs(r2 - (np.sqrt(5.0) + 1.0)) < 1e-12
    with pytest.raises(ValueError, match=r"f has shape \(2,\)"):
        DenseSkewSystem(P, Q, f=np.zeros(2))
    # random blocks against a brute-force blockwise argmin of f - P^T x1 - Q^T x2
    rng = np.random.default_rng(6)
    for sizes in [(4,), (3, 2), (2, 5, 1, 3)]:
        for with_f in (False, True):
            K, N = int(rng.integers(1, 4)), sum(sizes)
            P, Q = rng.normal(size=(2, K, N))
            f = rng.normal(size=N) if with_f else np.zeros(N)
            system = DenseSkewSystem(P, Q, f=f if with_f else None, block_sizes=sizes)
            cols = np.cumsum((0,) + sizes)
            for _ in range(50):
                x1, x2 = rng.normal(size=(2, K))
                query = f - P.T @ x1 - Q.T @ x2
                js = [lo + int(np.argmin(query[lo:hi])) for lo, hi in zip(cols[:-1], cols[1:])]
                hit = system.eta_argmin(x1, x2)
                assert hit.atoms == tuple((j - lo,) for j, lo in zip(js, cols))
                value = query[js].sum()
                assert abs(hit.value - value) <= 1e-12 * max(1.0, abs(value))
                assert abs(hit.f_dot - f[js].sum()) <= 1e-12
                assert np.allclose(hit.p_vec, P[:, js].sum(axis=1), rtol=0.0, atol=1e-12)
                assert np.allclose(hit.q_vec, Q[:, js].sum(axis=1), rtol=0.0, atol=1e-12)
                assert np.array_equal(system.apply_P_atoms(hit.atoms), hit.p_vec)
            r1, r2 = system.xi_radii()
            blocks = list(zip(cols[:-1], cols[1:]))
            assert abs(r1 - sum(np.linalg.norm(Q[:, lo:hi], axis=0).max()
                                for lo, hi in blocks)) <= 1e-12 * r1
            assert abs(r2 - sum(np.linalg.norm(P[:, lo:hi], axis=0).max()
                                for lo, hi in blocks)) <= 1e-12 * r2


def test_dense_views_reject_blocks_that_are_not_dense():
    # a knapsack atom is an action sequence, not a column index: read as one,
    # the weights of atoms (0, 0) and (0, 3) landed on the same entry of eta
    rng = np.random.default_rng(11)
    D = [DenseMatrixOracle(rng.normal(size=(2, 3))), random_knapsack_encoder(rng, (1, 1))]
    skew = nash_to_skew(NashSpec(D=D, M=random_coupling(rng, [2, 2])))
    system = skew.system
    not_dense = r"block 1 is a KnapsackOracle, not a dense matrix"
    with pytest.raises(ValueError, match=not_dense):
        system.eta_dense({((0,), (0, 0)): 0.5, ((0,), (0, 3)): 0.5})
    with pytest.raises(ValueError, match=not_dense):
        system.dense_PQ()
    with pytest.raises(ValueError, match=not_dense):
        eps_vi_exact(skew, np.full(3 + D[1].count_columns(), 0.5))
    sol = solve_vi(skew, config=SolverConfig(max_steps=50))
    with pytest.raises(ValueError, match=not_dense):
        skew_master_protocol(skew, sol.protocol, sol.payloads)
    # the atoms themselves still have their gap, from the oracles' columns
    assert eps_vi_exact(skew, sol.eta_atoms) == sol.eps_exact


def test_an_encoders_own_offset_is_the_players_linear_loss():
    # the column search scores a dense encoder's offset, so <f, eta> counts it
    # too, as it counts g: read as f = 0 it made this gap -0.038
    off = np.array([0.3, -0.2])
    D = [DenseMatrixOracle(np.eye(2), offset=-off), DenseMatrixOracle(np.eye(2))]
    own = solve_vi(nash_to_skew(NashSpec(D=D, M=pennies_nash_spec().M)))
    via_g = solve_vi(nash_to_skew(pennies_nash_spec(g=[off, np.zeros(2)])))
    assert own.eps_exact == via_g.eps_exact and own.steps == via_g.steps
    assert 0.0 <= own.eps_exact <= own.eps_bound


def test_eps_nash_hand_values():
    spec = pennies_nash_spec()
    # both playing the first action: only the row player wants to move
    assert abs(eps_nash(spec, [np.array([1.0, 0.0]), np.array([1.0, 0.0])]) - 2.0) < 1e-12
    assert abs(eps_nash(spec, [np.array([0.5, 0.5]), np.array([0.5, 0.5])])) < 1e-12
    # atom-dict inputs agree with dense ones
    val = eps_nash(spec, [{(0,): 0.3, (1,): 0.7}, {(0,): 0.5, (1,): 0.5}])
    assert abs(val - eps_nash(spec, [np.array([0.3, 0.7]), np.array([0.5, 0.5])])) < 1e-12


def test_eps_nash_counts_an_encoders_own_offset_in_the_own_loss():
    # the best reply scores the offset, so the player's own loss counts it
    # too: read as g = 0 there, uniform pennies gave 0.2
    off = np.array([0.3, -0.2])
    own = NashSpec(D=[DenseMatrixOracle(np.eye(2), offset=-off), DenseMatrixOracle(np.eye(2))],
                   M=pennies_nash_spec().M)
    via_g = pennies_nash_spec(g=[off, np.zeros(2)])
    uniform = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
    atoms = [{(0,): 0.5, (1,): 0.5}, {(0,): 0.5, (1,): 0.5}]
    for blocks in (uniform, atoms):
        assert abs(eps_nash(own, blocks) - 0.25) < 1e-12
        assert eps_nash(own, blocks) == eps_nash(via_g, blocks)


def test_affine_spec_takes_finite_monotone_s_only():
    def spec(S, s=(0.1, 0.0)):
        return AffineViSpec(S=S, s=s, H=Simplex(2), Xi_radius=2.0)

    # S + S^T has the eigenvalues 6 and -6; the run used to end in a CertificateError
    with pytest.raises(ValueError, match=r"S is not monotone: .* eigenvalue -3\.0$"):
        spec([[0.0, 7.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match=re.escape("S[1][0] must be finite, not nan")):
        spec([[0.0, 1.0], [np.nan, 0.0]])
    with pytest.raises(ValueError, match=re.escape("s[0] must be finite, not inf")):
        spec(np.zeros((2, 2)), s=[np.inf, 0.0])
    S = np.array([[1.0, 2.0], [-2.0, 0.0]])  # symmetric part diag(1, 0): monotone
    owned = spec(S)
    S[0, 0] = -5.0  # the spec's copy is its own
    assert owned.S[0, 0] == 1.0 and not owned.S.flags.writeable


def test_affine_gap_function_of_a_non_skew_s_is_not_checked_against_the_residual():
    # S is positive definite.  After one step eta = e1: its gap function is
    # 8, above the residual 7.07, while its dual gap, max_t 8t - 10t^2 over
    # eta' = (1 - t, t), is 1.6.  The round used to raise CertificateError
    spec = AffineViSpec(S=[[7.0, -1.0], [-1.0, 1.0]], s=np.zeros(2), H=Simplex(2), Xi_radius=1.0)
    last = solve_vi(spec, config=SolverConfig(max_steps=1)).rounds[-1]
    assert last["checked"] is False and last["gap"] == 8.0 > last["residual"]
    skew = solve_vi(rotation_affine_spec(), config=SolverConfig(max_steps=1))
    assert skew.rounds[-1]["checked"] is True


def test_affine_radius_below_the_enclosing_radius_is_rejected():
    def spec(radius):
        return AffineViSpec(S=np.zeros((3, 3)), s=np.zeros(3), H=Simplex(3), Xi_radius=radius)

    with pytest.raises(ValueError, match=r"Xi_radius 0\.3 .* enclosing radius 1\.0"):
        spec(0.3)
    assert spec(1.0).Xi_radius == 1.0


def test_affine_radius_check_forgives_rounding_and_lmo_only_domains():
    def spec(H, radius):
        return AffineViSpec(S=np.zeros((H.dim, H.dim)), s=np.zeros(H.dim), H=H, Xi_radius=radius)

    H = Product([Simplex(2), Simplex(3)])
    r = H.enclosing_radius()  # sqrt(2), computed as sqrt(1 + 1)
    assert spec(H, np.nextafter(r, 0.0)).Xi_radius < r  # one ulp short is the same radius
    with pytest.raises(ValueError, match="enclosing radius"):
        spec(H, 0.999 * r)

    class LmoOnly(Domain):  # no enclosing_radius: the radius is the caller's
        dim = 3

        def lmo(self, c):
            return Simplex(3).lmo(c)

    assert spec(LmoOnly(), 0.3).Xi_radius == 0.3


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("domain", ["simplex", "lmo-only"])
def test_affine_radius_must_be_finite_and_positive(domain, radius):
    # NaN compares false with the enclosing radius, and a domain known by its
    # LMO alone has none: the spec names the field before any ball is built
    class LmoOnly(Domain):
        dim = 3

        def lmo(self, c):
            return Simplex(3).lmo(c)

    H = Simplex(3) if domain == "simplex" else LmoOnly()
    with pytest.raises(ValueError, match=f"^Xi_radius {radius} is not finite and positive$"):
        AffineViSpec(S=np.zeros((3, 3)), s=np.zeros(3), H=H, Xi_radius=radius)


def test_eps_nash_nonnegative_and_below_vi_gap():
    rng = np.random.default_rng(3)
    spec = random_nash_spec(rng, [3, 2, 4])
    skew = nash_to_skew(spec)
    sizes = [3, 2, 4]
    for _ in range(20):
        blocks = []
        for n in sizes:
            w = rng.uniform(size=n)
            blocks.append(w / w.sum())
        e_nash = eps_nash(spec, blocks)
        assert e_nash >= -1e-10
        system = skew.system
        P, Q, _ = system.dense_PQ()
        dense = DenseSkewSystem(P, Q, block_sizes=tuple(sizes))
        e_vi = eps_vi_exact(SkewViSpec(dense, skew.Xi1_radius, skew.Xi2_radius),
                            np.concatenate(blocks))
        assert e_nash <= e_vi + 1e-10


def test_solve_vi_pennies_equilibrium():
    skew = nash_to_skew(pennies_nash_spec())
    sol = solve_vi(skew, config=SolverConfig(eps_target=1e-7, gap_threshold=1e-7,
                                             max_steps=4000))
    assert sol.eps_exact <= sol.eps_bound + 1e-9
    eta = skew.system.eta_dense(sol.eta_atoms)
    assert np.max(np.abs(eta - 0.5)) <= 1e-3


@pytest.mark.usefixtures("certificate_rounds_only")
def test_residual_transfer_chain_every_round():
    rng = np.random.default_rng(4)
    spec = random_nash_spec(rng, [3, 3])
    skew = nash_to_skew(spec)
    sol = solve_vi(skew, config=SolverConfig(eps_target=1e-6, gap_threshold=1e-8,
                                             max_steps=600, cert_period=40))
    assert len(sol.rounds) >= 2
    big, dom = skew_master_protocol(skew, sol.protocol, sol.payloads)
    master_res = residual(big, sol.cert, dom).residual
    primal_res = sol.eps_bound
    assert sol.eps_exact <= master_res + 1e-9
    assert master_res <= primal_res + 1e-9
    for rec in sol.rounds:
        assert rec["gap"] <= rec["residual"] + 1e-9


def test_solve_vi_md_solver():
    skew = nash_to_skew(pennies_nash_spec())
    sol = solve_vi(skew, solver="md",
                   config=SolverConfig(max_steps=2000, gap_threshold=1e-3))
    assert sol.eps_exact <= sol.eps_bound + 1e-9
    assert sol.eps_exact <= 0.1


def test_zero_sum_value_matches_lp():
    rng = np.random.default_rng(5)
    S = rng.normal(size=(3, 3))
    Z3 = np.zeros((3, 3))
    spec = NashSpec(D=[DenseMatrixOracle(np.eye(3)), DenseMatrixOracle(np.eye(3))],
                    M=[[Z3, S], [-S.T, Z3]])
    skew = nash_to_skew(spec)
    sol = solve_vi(skew, config=SolverConfig(eps_target=2e-7, gap_threshold=1e-7,
                                             max_steps=8000))
    eta = skew.system.eta_dense(sol.eta_atoms)
    x1, x2 = eta[:3], eta[3:]
    # row player's loss <x1, S x2> at the recovered near-equilibrium
    assert abs(x1 @ S @ x2 - lp_game_value(S.T)) <= 1e-3


def test_nash_spec_validation():
    Z = np.zeros((2, 2))
    with pytest.raises(ValueError):
        NashSpec(D=[DenseMatrixOracle(np.eye(2))] * 2,
                 M=[[np.eye(2), PENNIES], [-PENNIES.T, Z]])
    with pytest.raises(ValueError):
        NashSpec(D=[DenseMatrixOracle(np.eye(2))] * 2,
                 M=[[Z, PENNIES], [PENNIES.T, Z]])
    with pytest.raises(ValueError):
        NashSpec(D=[DenseMatrixOracle(np.eye(2))] * 2, M=[[Z, PENNIES]])


def test_nash_spec_rejects_shapes_that_do_not_match_the_encoders():
    D = [DenseMatrixOracle(np.eye(2)), DenseMatrixOracle(np.ones((2, 2)))]
    Z, B = np.zeros((2, 2)), np.ones((3, 3))
    with pytest.raises(ValueError, match=r"M\[0\]\[1\] has shape \(3, 3\)"):
        NashSpec(D=D, M=[[Z, B], [-B.T, Z]])
    with pytest.raises(ValueError, match=r"g\[0\] has shape \(5,\)"):
        NashSpec(D=D, M=[[Z, PENNIES], [-PENNIES.T, Z]], g=[np.zeros(5), np.zeros(2)])
    with pytest.raises(ValueError, match=r"g needs one entry per player"):
        NashSpec(D=D, M=[[Z, PENNIES], [-PENNIES.T, Z]], g=[np.zeros(2)])
    knapsack = random_knapsack_encoder(np.random.default_rng(0), (1, 1))
    with pytest.raises(ValueError, match=r"g\[0\] needs a dense encoder"):
        NashSpec(D=[knapsack, D[1]], M=[[Z, PENNIES], [-PENNIES.T, Z]],
                 g=[np.zeros(knapsack.count_columns()), np.zeros(2)])


@pytest.mark.parametrize("kind", ["dense", "knapsack", "dense-g"])
@pytest.mark.parametrize("L", [2, 3])
def test_nash_eta_argmin_matches_per_block_reference(kind, L):
    rng = np.random.default_rng(10 * L + len(kind))
    for _ in range(10):
        if kind == "knapsack":
            # unequal stage dims and a dense player among the knapsack ones
            D = [random_knapsack_encoder(rng, (1, 2)), DenseMatrixOracle(rng.normal(size=(2, 5))),
                 random_knapsack_encoder(rng, (2, 1, 3))][:L]
        else:
            D = [DenseMatrixOracle(rng.normal(size=(m, n))) for m, n in [(2, 5), (4, 3), (3, 6)][:L]]
        g = [rng.normal(size=d.count_columns()) for d in D] if kind == "dense-g" else None
        spec = NashSpec(D=D, M=random_coupling(rng, [d.n_rows for d in D]), g=g)
        system = nash_to_skew(spec).system
        dense = system.dense_PQ() if kind != "knapsack" else None
        for _ in range(50):
            x1, x2 = rng.normal(size=(2, system.K))
            hit = system.eta_argmin(x1, x2)
            atoms, value, f_dot, p_vec, q_vec = eta_argmin_reference(spec, x1, x2)
            assert hit.atoms == atoms
            assert abs(hit.value - value) <= 1e-12 * max(1.0, abs(value))
            assert abs(hit.f_dot - f_dot) <= 1e-12 * max(1.0, abs(f_dot))
            assert np.allclose(hit.p_vec, p_vec, rtol=0.0, atol=1e-12)
            assert np.allclose(hit.q_vec, q_vec, rtol=0.0, atol=1e-12)
            assert np.allclose(system.apply_P_atoms(hit.atoms), hit.p_vec, rtol=0.0, atol=1e-12)
            if dense is not None:
                P, Q, _ = dense
                offsets = np.cumsum([0] + [d.count_columns() for d in D])
                cols = [offsets[l] + j for l, (j,) in enumerate(hit.atoms)]
                assert np.allclose(P[:, cols].sum(axis=1), hit.p_vec, rtol=0.0, atol=1e-12)
                assert np.allclose(Q[:, cols].sum(axis=1), hit.q_vec, rtol=0.0, atol=1e-12)


def test_nash_spec_from_json():
    obj = {
        "D": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
        "M": [[[[0.0, 0.0], [0.0, 0.0]], PENNIES.tolist()],
              [(-PENNIES.T).tolist(), [[0.0, 0.0], [0.0, 0.0]]]],
        "g": None,
    }
    spec = nash_spec_from_json(obj)
    assert spec.L == 2
    assert abs(eps_nash(spec, [np.array([0.5, 0.5]), np.array([0.5, 0.5])])) < 1e-12


@pytest.mark.usefixtures("certificate_rounds_only")
@pytest.mark.parametrize("L", [2, 3])
def test_nash_transfers_each_certificate_once(monkeypatch, L):
    # one search per player at every protocol entry and every round, none after the run
    calls = []
    search = DenseMatrixOracle.col_extreme

    def counted(self, x, direction):
        calls.append(direction)
        return search(self, x, direction)

    monkeypatch.setattr(DenseMatrixOracle, "col_extreme", counted)
    spec = pennies_nash_spec() if L == 2 else random_nash_spec(np.random.default_rng(4),
                                                                [2, 3, 2])
    sol = solve_vi(nash_to_skew(spec), config=SolverConfig(gap_threshold=1e-6))
    assert len(sol.rounds) >= 2
    assert len(calls) == L * (len(sol.protocol) + len(sol.rounds))
    assert sol.eps_exact == sol.rounds[-1]["gap"]


def test_nash_dp_start_states_keep_their_own_atoms():
    # keyed by the action sequence alone, the DP player's atoms' columns
    # could not be rebuilt and solve_vi raised ValueError
    spec = dp_start_states_nash_spec()
    D, B = spec.D, spec.M[0][1]
    sol = solve_vi(nash_to_skew(spec))
    assert sol.eps_exact <= sol.eps_bound
    keys, cols = enumerate_columns(D[0])
    eta0, eta1 = np.zeros(len(keys)), np.zeros(3)
    blocks = [{}, {}]
    for (k0, (j,)), w in sol.eta_atoms.items():
        eta0[keys.index(k0)] += w
        eta1[j] += w
        blocks[0][k0] = blocks[0].get(k0, 0.0) + w
        blocks[1][(j,)] = blocks[1].get((j,), 0.0) + w
    assert {start for start, _ in blocks[0]} == {0, 1}
    # two players, zero sum: the deviation incentives add up to the saddle gap
    # of player 0's loss matrix over the enumerated columns
    gap = eps_sad_enum((cols.T @ B @ D[1].matrix).T, eta0, eta1)
    assert abs(eps_nash(spec, blocks) - gap) <= 1e-9
    assert gap <= sol.eps_exact + 1e-9


@pytest.mark.usefixtures("certificate_rounds_only")
@pytest.mark.parametrize("game", ["knapsack", "dense-g", "dp-start-states"])
def test_round_gap_from_payloads_equals_the_oracle_gap(game):
    # a round reads each atom's P eta and <f, eta> off the run's payloads;
    # eps_vi_exact rebuilds them through the oracles and must agree exactly
    rng = np.random.default_rng(9)
    if game == "knapsack":
        spec = knapsack_nash_spec(rng, (3, 4, 4))
    elif game == "dense-g":
        sizes = (3, 4, 3)
        spec = NashSpec(D=[DenseMatrixOracle(rng.normal(size=(2, n))) for n in sizes],
                        M=random_coupling(rng, [2, 2, 2]), g=[rng.normal(size=n) for n in sizes])
    else:
        spec = dp_start_states_nash_spec()
    skew = nash_to_skew(spec)
    sol = solve_vi(skew, config=SolverConfig(eps_target=1e-6, gap_threshold=1e-6))
    assert len(sol.rounds) >= 2
    for r in sol.rounds:
        atoms = vi._collect_atoms(AccuracyCertificate(r["weights"]), sol.payloads)
        assert r["gap"] == eps_vi_exact(skew, atoms)
    assert sol.eps_exact == eps_vi_exact(skew, sol.eta_atoms)


def test_large_offset_vi_passes_the_scaled_gap_check():
    # a constant offset on the simplex leaves the field's argmins and the
    # residual alone, but rounds the gap at about 1e-16 of the offset: the
    # check scales its tolerance with it instead of raising.  The scale is
    # the offset times the point's mass, 1 up to its rounding
    S = np.array([[0.0, 1.0], [-1.0, 0.0]])
    config = SolverConfig(max_steps=2000)
    base = solve_vi(rotation_affine_spec(), solver="md", config=config)
    big = solve_vi(AffineViSpec(S=S, s=np.full(2, 1e8), H=Simplex(2), Xi_radius=1.0),
                   solver="md", config=config)
    assert big.eps_bound == base.eps_bound and big.steps == base.steps
    assert all(r["scale"] == pytest.approx(1e8, rel=1e-15) for r in big.rounds)
    assert abs(big.eps_exact - base.eps_exact) <= 1e-9 * 1e8


def _random_affine_spec(rng, d, monotone, atoms=0):
    """Affine VI with a random skew S, plus 0.2 I where `monotone`, on the
    d-simplex or on `atoms` random points of R^d."""
    B = rng.normal(size=(d, d))
    S = B - B.T + (0.2 * np.eye(d) if monotone else 0.0)
    H = FiniteAtoms(rng.normal(size=(atoms, d))) if atoms else Simplex(d)
    return AffineViSpec(S=S, s=3.0 * rng.normal(size=d), H=H, Xi_radius=H.enclosing_radius())


@pytest.mark.parametrize("solver", ["ellipsoid", "md"])
@pytest.mark.parametrize("atoms", [0, 40])
@pytest.mark.parametrize("monotone", [False, True])
def test_affine_round_bound_is_its_gap_function_plus_rho(solver, atoms, monotone):
    # every affine round bounds its point by max(min(residual, gap + rho),
    # gap): at least the gap function, which bounds the dual gap, and at most
    # the larger of the residual and the gap plus the rounding allowance
    rng = np.random.default_rng(21)
    for _ in range(3):
        spec = _random_affine_spec(rng, 4, monotone, atoms)
        sol = solve_vi(spec, solver, SolverConfig(max_steps=600))
        assert sol.rounds[0]["step"] == 5 and sol.rounds[0]["lp_solves"] == 0
        for r in sol.rounds:
            eta = vi._collect_eta(AccuracyCertificate(r["weights"]), sol.payloads)
            rho = vi._affine_allowance(spec, eta)
            assert r["gap"] == eps_vi_exact(spec, eta)
            assert r["gap"] <= r["bound"] <= max(r["residual"], r["gap"]) + rho
        assert sol.eps_exact == eps_vi_exact(spec, sol.eta_vector) <= sol.eps_bound


@pytest.mark.parametrize("solver", ["ellipsoid", "md"])
def test_affine_run_stopped_by_an_early_round_bounds_its_point_by_the_gap(solver):
    # the gap function of the point of the first early round, at n + 1 = 13,
    # meets the threshold while the residual of its closed-form certificate is
    # still above 0.7: the run stops there, bounded by the gap plus rho
    spec = _random_affine_spec(np.random.default_rng(10), 12, monotone=True)
    sol = solve_vi(spec, solver)
    assert sol.stop_reason == "gap_threshold" and sol.steps == 13
    assert len(sol.rounds) == 1 and sol.rounds[0]["lp_solves"] == 0
    assert sol.cert.residual > 0.7
    rho = vi._affine_allowance(spec, sol.eta_vector)
    assert sol.eps_exact <= sol.eps_bound <= sol.eps_exact + rho < 1e-12


@pytest.mark.parametrize("solver", ["ellipsoid", "md"])
def test_affine_vi_round_keeps_no_reply(monkeypatch, solver):
    # an affine round's gap function finds no best reply and the round
    # solves no restricted master, so its rounds keep no reply; a skew VI's
    # rounds keep the reply to each certificate and to each equilibrium
    made = []

    def kept(*args):
        made.append(solvers._Rounds(*args))
        return made[-1]

    monkeypatch.setattr(vi, "_Rounds", kept)
    sol = solve_vi(rotation_affine_spec(), solver)
    assert len(made) == 1 and len(sol.rounds) > 1 and made[0].replies == []
    assert all((r["master_columns"], r["master_solves"]) == (None, 0) for r in sol.rounds)
    sol = solve_vi(nash_to_skew(pennies_nash_spec()), solver,
                   SolverConfig(eps_target=1e-6, gap_threshold=1e-6))
    assert len(made[1].replies) == sum(1 + r["master_solves"] for r in sol.rounds)


def test_badly_scaled_affine_vi_stops_on_a_named_reason():
    # fields of about 1e17 at this radius: HiGHS rejects the certificate
    # LP's rows, and the run keeps certifying with what it has.  The bound
    # is the point's gap function plus its rounding allowance, about 1.3e7,
    # not the residual, about 5e24
    S = 1e8 * np.array([[0.0, 1.0, 0.5], [-1.0, 0.0, 2.0], [-0.5, -2.0, 0.0]])
    spec = AffineViSpec(S=S, s=1e8 * np.array([1.0, 2.0, -1.0]), H=Simplex(3), Xi_radius=1e9)
    sol = solve_vi(spec)
    assert sol.stop_reason in ("eps_target", "gap_threshold", "max_steps", "stationary",
                               "ellipsoid_degenerate")
    rho = vi._affine_allowance(spec, sol.eta_vector)
    assert np.isfinite(sol.eps_bound) and sol.eps_exact <= sol.eps_bound <= sol.eps_exact + rho
    assert sol.eps_bound < 1e-10 * sol.rounds[-1]["residual"]


def test_solve_vi_raises_when_exact_gap_exceeds_residual(monkeypatch):
    # a dual gap of 1 is not certified once the residual falls below it
    eps = vi._skew_eps_exact
    monkeypatch.setattr(vi, "_skew_eps_exact",
                        lambda spec, atoms_weights: (1.0, 1.0, eps(spec, atoms_weights)[2]))
    with pytest.raises(CertificateError, match="exceeds certified residual"):
        solve_vi(nash_to_skew(pennies_nash_spec()),
                 config=SolverConfig(eps_target=1e-6, gap_threshold=1e-6))


def test_nash_restricted_round_returns_a_coupling_of_the_players_strategies():
    # the restricted equilibrium is one mixed strategy per player, returned
    # as at most sum_b n_b joint atoms whose marginals are those strategies
    rng = np.random.default_rng(9)
    spec = knapsack_nash_spec(rng, (3, 4, 4))
    skew = nash_to_skew(spec)
    sol = solve_vi(skew, config=SolverConfig(eps_target=1e-6, gap_threshold=1e-6))
    assert sol.stop_reason == "gap_threshold" and sol.rounds[-1]["atoms"] == "restricted"
    hit = [len({p.atoms[b] for p in sol.payloads}) for b in range(spec.L)]
    assert len(sol.eta_atoms) <= sum(hit)
    assert abs(sum(sol.eta_atoms.values()) - 1.0) <= 1e-12
    blocks = [{} for _ in range(spec.L)]
    for atoms, weight in sol.eta_atoms.items():
        for b, atom in enumerate(atoms):
            blocks[b][atom] = blocks[b].get(atom, 0.0) + weight
    assert -1e-12 <= eps_nash(spec, blocks) <= sol.eps_exact + 1e-12
    assert eps_vi_exact(skew, sol.eta_atoms) == sol.eps_exact < sol.eps_bound <= 1e-12
