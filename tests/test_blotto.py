import re

import numpy as np
import pytest

from conftest import lp_game_value
from lmodecomp.blotto import (
    BlottoSpec,
    blotto_from_json,
    build_blotto,
    random_rank1_omegas,
    rank_factor,
    solve_blotto,
)
from lmodecomp.oracles import _KnapsackShape, enumerate_columns
from lmodecomp.saddle import exact_gap
from lmodecomp.solvers import SolverConfig


def desk_spec():
    # two battlefields, two units per side, caps of two -> 6 pure strategies
    omegas = random_rank1_omegas(2, (2, 2), (2, 2), seed=7)
    return BlottoSpec(caps_a=(2, 2), caps_d=(2, 2), costs_a=(1, 1), costs_d=(1, 1),
                      budget_a=2, budget_d=2, omegas=omegas, seed=7)


def total_loss(spec, alloc_a, alloc_d):
    return sum(spec.omegas[s][alloc_a[s], alloc_d[s]] for s in range(spec.m))


def test_rank_factor_rank_one_exact():
    omega = np.outer([0.0, 1.0, 2.0], [2.0, 1.0, 0.0])
    F, G = rank_factor(omega)
    assert F.shape[1] == 1
    assert np.allclose(F @ G.T, omega, atol=1e-12)


def test_rank_factor_identity_full_rank():
    F, G = rank_factor(np.eye(3))
    assert F.shape[1] == 3
    assert np.allclose(F @ G.T, np.eye(3), atol=1e-12)


def test_rank_factor_random_low_rank():
    rng = np.random.default_rng(0)
    omega = rng.normal(size=(5, 2)) @ rng.normal(size=(2, 7))
    F, G = rank_factor(omega)
    assert F.shape[1] == 2
    assert np.abs(F @ G.T - omega).max() <= 1e-10


def test_rank_factor_zero_matrix():
    F, G = rank_factor(np.zeros((3, 4)))
    assert F.shape == (3, 1) and G.shape == (4, 1)
    assert np.all(F == 0.0) and np.all(G == 0.0)


def reference_rank_factor(omega, tol=1e-9):
    """rank_factor as first written, kept as the reference for the faster one."""
    omega = np.atleast_2d(np.asarray(omega, dtype=float))
    resid = omega.copy()
    scale = max(1.0, float(np.abs(omega).max(initial=0.0)))
    fs, gs = [], []
    for _ in range(min(omega.shape)):
        i, j = np.unravel_index(np.argmax(np.abs(resid)), resid.shape)
        pivot = resid[i, j]
        if abs(pivot) <= tol * scale:
            break
        f = resid[:, j].copy()
        g = resid[i, :] / pivot
        fs.append(f)
        gs.append(g)
        resid = resid - np.outer(f, g)
    if not fs:
        fs.append(np.zeros(omega.shape[0]))
        gs.append(np.zeros(omega.shape[1]))
    return np.stack(fs, axis=1), np.stack(gs, axis=1)


def rank_factor_cases():
    rng = np.random.default_rng(36)
    cases = [np.zeros((3, 4)), np.zeros((1, 1)), np.array([[2.0]]), [1.0, -3.0, 3.0],
             # ties in |max| between entries of both signs: the first in C order wins
             np.array([[1.0, -4.0], [4.0, 2.0]]), np.array([[-4.0, 4.0], [4.0, -4.0]]),
             np.array([[0.0, 3.0, -3.0], [-3.0, 0.0, 3.0], [3.0, -3.0, 0.0]]),
             # entries below 1, where the scale is max(1, max|omega|) = 1
             np.full((4, 5), 1e-10), np.outer([2e-9, 1e-9], [1.0, -1.0, 0.5])]
    for rank in range(5):
        for rows, cols in [(4, 4), (5, 3), (3, 7), (6, 6), (65, 65)]:
            if rank > min(rows, cols):
                continue
            f, g = rng.normal(size=(rows, rank)), rng.normal(size=(cols, rank))
            cases += [f @ g.T, 1e-3 * (f @ g.T),
                      # small integer entries: many ties, of both signs
                      np.round(2 * f) @ np.round(2 * g).T]
    return cases


@pytest.mark.parametrize("omega", rank_factor_cases())
def test_rank_factor_matches_the_reference_bit_for_bit(omega):
    given = np.array(omega, copy=True)
    for arg in (omega, np.asfortranarray(omega)):  # also in the other memory layout
        F, G = rank_factor(arg)
        want_F, want_G = reference_rank_factor(arg)
        for got, want in ((F, want_F), (G, want_G)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.flags.c_contiguous == want.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
    assert np.array_equal(omega, given)  # omega is only read


def test_build_blotto_reproduces_total_loss():
    spec = desk_spec()
    game = build_blotto(spec)
    seqs_a, cols_a = enumerate_columns(game.A)
    seqs_d, cols_d = enumerate_columns(game.D)
    assert len(seqs_a) == len(seqs_d) == 6
    for a, col_a in zip(seqs_a, cols_a.T):
        for d, col_d in zip(seqs_d, cols_d.T):
            assert abs(col_a @ col_d - total_loss(spec, a, d)) < 1e-10


def test_desk_solve_matches_lp():
    spec = desk_spec()
    game = build_blotto(spec)
    seqs_a, cols_a = enumerate_columns(game.A)
    seqs_d, cols_d = enumerate_columns(game.D)
    # S[z, w] = attacker payoff; defender (w) minimizes, attacker (z) maximizes
    S = cols_a.T @ cols_d
    report = solve_blotto(spec, SolverConfig(eps_target=2e-7, gap_threshold=4e-7))
    assert abs(report.value - lp_game_value(S)) <= 1e-6
    assert report.gap_exact <= report.gap + 1e-9
    assert report.dims == (6, 6)
    assert report.primal_dim == 2 * 2  # two rank-1 fields, two primal blocks
    assert all(len(k) == spec.m for k in report.attacker_atoms)


@pytest.mark.parametrize("defender", [
    {}, {"budget_d": 3}, {"caps_d": (1, 2)}, {"costs_d": (2, 1)},
])
def test_each_side_is_counted_unless_both_share_caps_costs_and_budget(monkeypatch, defender):
    # the column count depends only on a side's caps, costs and budget, so
    # it is counted once per knapsack shape: the two sides share one count
    # where they agree, and a defender that differs in any of them is
    # counted on its own (each defender here has another count than the
    # attacker's 6)
    fields = {"caps_a": (2, 2), "caps_d": (2, 2), "costs_a": (1, 1), "costs_d": (1, 1),
              "budget_a": 2, "budget_d": 2, **defender}
    spec = BlottoSpec(**fields, omegas=random_rank1_omegas(2, fields["caps_a"],
                                                           fields["caps_d"], seed=3))
    counted, count = [], _KnapsackShape.columns.func

    def counting(shape):
        counted.append(shape)
        return count(shape)

    monkeypatch.setattr(_KnapsackShape.columns, "func", counting)
    report = solve_blotto(spec, SolverConfig(eps_target=1e-6, gap_threshold=1e-6))
    assert (len(counted), report.dims[0] == report.dims[1]) == ((1, True) if not defender
                                                                  else (2, False))
    game = build_blotto(spec)
    assert report.dims == tuple(len(enumerate_columns(side)[0]) for side in (game.A, game.D))


def test_antisymmetric_game_has_zero_value():
    # omega(a, d) = a - d on each field makes the game skew under swapping
    # roles, so with identical caps/budgets the value is zero
    omegas = [np.subtract.outer(np.arange(3.0), np.arange(3.0)) for _ in range(2)]
    spec = BlottoSpec(caps_a=(2, 2), caps_d=(2, 2), costs_a=(1, 1), costs_d=(1, 1),
                      budget_a=2, budget_d=2, omegas=omegas)
    report = solve_blotto(spec, SolverConfig(eps_target=2e-7, gap_threshold=4e-7))
    assert abs(report.value) <= 1e-6


def test_blotto_from_json_explicit_and_seeded():
    spec = desk_spec()
    obj = {"m": 2, "caps_a": [2, 2], "caps_d": [2, 2], "costs_a": [1, 1],
           "costs_d": [1, 1], "budget_a": 2, "budget_d": 2,
           "omega": [o.tolist() for o in spec.omegas]}
    loaded = blotto_from_json(obj)
    assert loaded.m == 2
    assert np.allclose(loaded.omegas[0], spec.omegas[0])
    # m used to be ignored when the spec lists its matrices
    with pytest.raises(ValueError, match="omega must list m = 5 loss matrices, not 2"):
        blotto_from_json({**obj, "m": 5})

    obj["omega"] = {"rank1_seed": 7}
    seeded = blotto_from_json(obj)
    assert seeded.seed == 7
    assert np.allclose(seeded.omegas[1], spec.omegas[1])


def test_spec_validation():
    omegas = random_rank1_omegas(2, (2, 2), (2, 2))
    with pytest.raises(ValueError):
        BlottoSpec(caps_a=(2,), caps_d=(2, 2), costs_a=(1, 1), costs_d=(1, 1),
                   budget_a=2, budget_d=2, omegas=omegas)
    with pytest.raises(ValueError):
        BlottoSpec(caps_a=(2, 2), caps_d=(2, 2), costs_a=(0, 1), costs_d=(1, 1),
                   budget_a=2, budget_d=2, omegas=omegas)
    with pytest.raises(ValueError):
        BlottoSpec(caps_a=(3, 2), caps_d=(2, 2), costs_a=(1, 1), costs_d=(1, 1),
                   budget_a=2, budget_d=2, omegas=omegas)  # shape mismatch


def test_spec_takes_integer_counts_only():
    # numpy integers are counts; a float is not truncated but rejected
    omegas = random_rank1_omegas(2, (2, 2), (2, 2))
    good = dict(caps_a=(2, np.int64(2)), caps_d=(2, 2), costs_a=(1, 1), costs_d=(1, 1),
                budget_a=np.int32(2), budget_d=2, omegas=omegas)
    spec = BlottoSpec(**good)
    assert (spec.caps_a, spec.budget_a) == ((2, 2), 2) and type(spec.budget_a) is int
    for field, value, named in [("caps_a", (2.5, 2), "caps_a[0] must be an integer, not 2.5"),
                                ("costs_d", (1, 1.0), "costs_d[1] must be an integer, not 1.0"),
                                ("budget_d", 3.7, "budget_d must be an integer, not 3.7")]:
        with pytest.raises(ValueError, match=re.escape(named)):
            BlottoSpec(**{**good, field: value})


def test_win_lose_blotto_closes_at_its_first_round():
    # three fields, six units per side and per field, the attacker scoring a
    # field it holds with strictly more units: a mixed game of value 6/5 in
    # primal dimension 36 (K = 18), whose first round (step K + 1 = 19)
    # re-solves its restricted master with its own best replies until the
    # gap closes
    win = np.tril(np.ones((7, 7)), -1)  # win[a, d] = 1 where a > d
    spec = BlottoSpec(caps_a=(6,) * 3, caps_d=(6,) * 3, costs_a=(1,) * 3, costs_d=(1,) * 3,
                      budget_a=6, budget_d=6, omegas=(win,) * 3)
    report = solve_blotto(spec, SolverConfig(eps_target=1e-9, gap_threshold=1e-9))
    assert report.primal_dim == 36
    assert [r["step"] for r in report.rounds] == [19] and report.steps == 19
    assert report.stop_reason == "gap_threshold" and report.rounds[0]["master_solves"] > 1
    assert abs(report.value - 1.2) <= 1e-9
    assert exact_gap(build_blotto(spec), report) == report.gap_exact <= 1e-9
