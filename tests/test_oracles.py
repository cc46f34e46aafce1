import io
import json
import math
import warnings

import numpy as np
import pytest

from lmodecomp.blotto import BlottoSpec, build_blotto, random_rank1_omegas
from lmodecomp.oracles import (
    DenseMatrixOracle,
    DpOracle,
    KnapsackOracle,
    KnapsackSpec,
    bellman_backward,
    col_extreme,
    count_columns,
    dp_from_json,
    dp_from_knapsack,
    enumerate_columns,
    knapsack_from_json,
)


def small_knapsack():
    # two stages, unit bounds/costs, budget 1, scalar outputs f_s(r) = r
    return KnapsackSpec(bounds=(1, 1), costs=(1, 1), budget=1,
                        outputs=(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]])))


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


def test_dense_col_extreme():
    oracle = DenseMatrixOracle([[1.0, 2.0], [3.0, 4.0]])
    hit = col_extreme(oracle, np.array([1.0, 1.0]), "max")
    assert hit.action_sequence == (1,)
    assert hit.value == 6.0
    assert np.array_equal(hit.column, [2.0, 4.0])


def test_dense_offset_scores_columns_without_changing_them():
    oracle = DenseMatrixOracle([[1.0, 2.0, 3.0], [0.0, 5.0, 0.0]], offset=[1.0, 0.0, -1.0])
    hit = col_extreme(oracle, np.array([2.0, 0.0]), "max")   # scores 3, 4, 5
    assert hit.action_sequence == (2,)
    assert hit.value == 5.0                                  # includes the offset
    assert np.array_equal(hit.column, [3.0, 0.0])            # the column does not
    for direction in ("max", "min"):                         # scores 2, 2, 2
        hit = col_extreme(oracle, np.array([1.0, 0.0]), direction)
        assert hit.action_sequence == (0,) and hit.value == 2.0
    with pytest.raises(ValueError, match=r"offset has shape \(2,\)"):
        DenseMatrixOracle(np.eye(3), offset=[1.0, 2.0])


def test_knapsack_spec_example_queries():
    oracle = KnapsackOracle(small_knapsack())
    hit = col_extreme(oracle, np.array([2.0, 3.0]), "max")
    assert hit.action_sequence == (0, 1)
    assert np.array_equal(hit.column, [0.0, 1.0])
    assert hit.value == 3.0
    hit = col_extreme(oracle, np.array([2.0, 3.0]), "min")
    assert hit.action_sequence == (0, 0)
    assert hit.value == 0.0


def test_knapsack_count_examples():
    assert KnapsackOracle(small_knapsack()).count_columns() == 3
    zero = KnapsackSpec(bounds=(1, 1), costs=(1, 1), budget=0,
                        outputs=(np.zeros((2, 1)), np.zeros((2, 1))))
    assert KnapsackOracle(zero).count_columns() == 1


@pytest.mark.parametrize("m, cap", [(1, 5), (3, 7), (20, 200)])   # C(220, 20) > 2**63
def test_count_with_caps_at_the_budget_is_a_binomial(m, cap):
    spec = KnapsackSpec(bounds=(cap,) * m, costs=(1,) * m, budget=cap,
                        outputs=tuple(np.zeros((cap + 1, 1)) for _ in range(m)))
    assert KnapsackOracle(spec).count_columns() == math.comb(cap + m, m)


@pytest.mark.parametrize("bounds, costs, budget", [
    ((2, 1, 3), (2, 3, 2), 11),     # bounds below the budget
    ((9, 7, 8), (3, 2, 3), 10),     # bounds above the budget
    ((4, 12, 1, 5), (2, 3, 3, 2), 13),
    ((6, 6), (3, 2), 0),
])
def test_count_matches_enumeration_with_costs_above_one(bounds, costs, budget):
    spec = KnapsackSpec(bounds=bounds, costs=costs, budget=budget,
                        outputs=tuple(np.zeros((b + 1, 1)) for b in bounds))
    oracle = KnapsackOracle(spec)
    seqs, _ = enumerate_columns(oracle)
    assert oracle.count_columns() == len(seqs)


def test_large_scale_count_is_exact_big_integer():
    m, cap, budget = 8, 64, 64
    spec = KnapsackSpec(bounds=(cap,) * m, costs=(1,) * m, budget=budget,
                        outputs=tuple(np.zeros((cap + 1, 2)) for _ in range(m)))
    count = KnapsackOracle(spec).count_columns()
    # caps equal the budget, so the count is the number of lattice points of
    # {a >= 0, sum a <= 64} = C(72, 8); verified independently here
    assert count == math.comb(72, 8)
    assert count > 10 ** 9


def test_oracle_matches_enumeration():
    rng = np.random.default_rng(0)
    oracles = [random_knapsack(rng) for _ in range(10)]
    # unequal stage dims r_s = 2, 3, 1, 3 split the query in unequal blocks
    oracles.append(KnapsackOracle(KnapsackSpec(
        bounds=(2, 3, 1, 2), costs=(1, 2, 1, 1), budget=5,
        outputs=tuple(rng.normal(size=(b + 1, r)) for b, r in [(2, 2), (3, 3), (1, 1), (2, 3)]))))
    for oracle in oracles:
        seqs, cols = enumerate_columns(oracle)
        assert len(seqs) == oracle.count_columns()
        for _ in range(20):
            x = rng.normal(size=oracle.n_rows)
            vals = x @ cols
            for direction, pick in (("max", np.argmax), ("min", np.argmin)):
                hit = col_extreme(oracle, x, direction)
                j = int(pick(vals))
                assert seqs[j] == hit.action_sequence
                assert abs(vals[j] - hit.value) < 1e-9
    for bad in (np.zeros(oracle.n_rows + 1), np.zeros((1, oracle.n_rows))):
        with pytest.raises(ValueError, match="does not match row count"):
            col_extreme(oracle, bad, "max")


def test_lexicographic_tie_break():
    # two stages with identical zero outputs: every column ties at 0
    spec = KnapsackSpec(bounds=(2, 2), costs=(1, 1), budget=2,
                        outputs=(np.zeros((3, 1)), np.zeros((3, 1))))
    hit = col_extreme(KnapsackOracle(spec), np.array([1.0, 1.0]), "max")
    assert hit.action_sequence == (0, 0)


def test_dp_from_knapsack_equivalent():
    rng = np.random.default_rng(1)
    for _ in range(5):
        oracle = random_knapsack(rng)
        dp = DpOracle(dp_from_knapsack(oracle.spec))
        assert dp.count_columns() == oracle.count_columns()
        for _ in range(10):
            x = rng.normal(size=oracle.n_rows)
            for direction in ("max", "min"):
                h1 = col_extreme(oracle, x, direction)
                h2 = col_extreme(dp, x, direction)
                assert h1.action_sequence == h2.action_sequence
                assert abs(h1.value - h2.value) < 1e-9
                assert np.allclose(h1.column, h2.column)


def test_bellman_tables_spec_example():
    dp = dp_from_knapsack(small_knapsack())
    tables = bellman_backward(dp, np.array([2.0, 3.0]), "max")
    # stage indices 0-based; states = remaining budget
    assert tables.values[1][1] == 3.0
    assert tables.values[1][0] == 0.0
    assert tables.values[0][1] == 3.0
    dpo = DpOracle(dp)
    assert col_extreme(dpo, np.array([2.0, 3.0]), "max").action_sequence == (0, 1)
    # ties go to the lexicographically smallest action sequence
    assert col_extreme(dpo, np.zeros(2), "max").action_sequence == (0, 0)


def test_column_norm_bound_dominates():
    rng = np.random.default_rng(3)
    oracle = random_knapsack(rng)
    _, cols = enumerate_columns(oracle)
    assert oracle.column_norm_bound() >= np.linalg.norm(cols, axis=0).max() - 1e-12


def test_column_reconstruction():
    oracle = KnapsackOracle(small_knapsack())
    hit = col_extreme(oracle, np.array([1.0, -1.0]), "max")
    assert np.array_equal(oracle.column(hit.action_sequence), hit.column)


def test_spec_validation():
    with pytest.raises(ValueError):
        KnapsackSpec(bounds=(1,), costs=(0,), budget=1, outputs=(np.zeros((2, 1)),))
    with pytest.raises(ValueError):
        KnapsackSpec(bounds=(1,), costs=(1,), budget=1, outputs=(np.zeros((3, 1)),))
    with pytest.raises(ValueError, match="non-finite"):
        KnapsackSpec(bounds=(1,), costs=(1,), budget=1, outputs=(np.array([[0.0], [np.inf]]),))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_knapsack_rejects_non_finite_queries(bad):
    # a NaN has no sign, and the sign of a stage's query picks its tables
    rng = np.random.default_rng(4)
    oracle = KnapsackOracle(KnapsackSpec(bounds=(3, 3, 3), costs=(1, 1, 1), budget=4,
                                         outputs=tuple(rng.normal(size=(4, 1)) for _ in range(3))))
    for row in range(oracle.n_rows):
        x = rng.normal(size=oracle.n_rows)
        x[row] = bad
        for direction in ("max", "min"):
            with pytest.raises(ValueError, match="non-finite"):
                col_extreme(oracle, x, direction)


@pytest.mark.parametrize("offset", [None, (0.5, -1.0, 2.0)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dense_rejects_non_finite_queries(bad, offset):
    # no zero entries: an infinite entry scores +-inf in every column, and
    # the product raises no floating-point flag (inf * 0 would flag invalid)
    rng = np.random.default_rng(6)
    oracle = DenseMatrixOracle(rng.uniform(0.5, 2.0, size=(3, 4)) * [1.0, -1.0, 1.0, -1.0],
                               None if offset is None else offset + (0.0,))
    for row in range(oracle.n_rows):
        x = rng.normal(size=oracle.n_rows)
        x[row] = bad
        for direction in ("max", "min"):
            with pytest.raises(ValueError, match="non-finite"):
                col_extreme(oracle, x, direction)
    # a NaN meets a zero entry quietly
    with pytest.raises(ValueError, match="non-finite"):
        col_extreme(DenseMatrixOracle(np.eye(3)), [1.0, np.nan, 0.0], "max")


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_dense_rejects_infinite_queries_that_meet_zeros(bad):
    # inf * 0 flags an invalid value, and an overflowing product flags an
    # overflow; with warnings as errors both still raise ValueError
    oracle = DenseMatrixOracle(np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in ([bad, 1.0], [1.0, bad]):
            for direction in ("max", "min"):
                with pytest.raises(ValueError, match="non-finite"):
                    col_extreme(oracle, x, direction)
        with pytest.raises(ValueError, match="overflows"):
            col_extreme(DenseMatrixOracle([[1e300, 1.0]]), [1e300], "max")


def test_dense_rejects_non_finite_tables_and_overflow():
    with pytest.raises(ValueError, match="finite"):
        DenseMatrixOracle([[1.0, np.nan]])
    with pytest.raises(ValueError, match="finite"):
        DenseMatrixOracle([[1.0, 2.0]], offset=(0.0, -np.inf))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
        col_extreme(DenseMatrixOracle([[1e300, 1.0]]), [1e300], "max")


@pytest.mark.parametrize("mode", ["ignore", "error"])
def test_dense_overflow_in_an_unpicked_column_is_no_error(mode):
    # the overflowing column scores -inf under "max" (+inf under "min"), and
    # the finite column wins whatever the warning filter
    with warnings.catch_warnings():
        warnings.simplefilter(mode)
        for row, direction in ((-1e300, "max"), (1e300, "min")):
            hit = col_extreme(DenseMatrixOracle([[row, 1.0]]), [1e300], direction)
            assert hit.key == (1,) and hit.value == 1e300


def test_dense_column_takes_one_index_in_range():
    oracle = DenseMatrixOracle(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(oracle.column((2,)), [2.0, 5.0])
    for bad in ((-1,), (0, 5), (7,)):
        with pytest.raises(ValueError, match="range"):
            oracle.column(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dp_rejects_non_finite_queries(bad):
    # checked before the Bellman products, whose inf - inf would warn
    rng = np.random.default_rng(7)
    oracle = DpOracle(dp_from_knapsack(KnapsackSpec(
        bounds=(3, 3, 3), costs=(1, 1, 1), budget=4,
        outputs=tuple(rng.normal(size=(4, 1)) for _ in range(3)))))
    for row in range(oracle.n_rows):
        x = rng.normal(size=oracle.n_rows)
        x[row] = bad
        for direction in ("max", "min"):
            with pytest.raises(ValueError, match="non-finite"):
                col_extreme(oracle, x, direction)


def test_json_loaders():
    obj = {"bounds": [1, 1], "costs": [1, 1], "budget": 1,
           "outputs": [[[0.0], [1.0]], [[0.0], [1.0]]]}
    spec = knapsack_from_json(io.StringIO(json.dumps(obj)))
    assert spec.budget == 1
    assert KnapsackOracle(spec).count_columns() == 3

    dp = dp_from_knapsack(spec)
    dp_obj = {
        "n_states": list(dp.n_states),
        "actions": [[list(map(int, a)) for a in dp.actions[s]] for s in range(2)],
        "transitions": [[list(map(int, t)) for t in dp.transitions[0]]],
        "outputs": [[np.asarray(o).tolist() for o in dp.outputs[s]] for s in range(2)],
        "start_states": list(dp.start_states),
    }
    dp2 = dp_from_json(io.StringIO(json.dumps(dp_obj)))
    assert DpOracle(dp2).count_columns() == 3


def test_knapsack_gather_matches_dp_at_blotto_scale():
    # criterion-05 sizes: C(72, 8) columns per side, far too many to enumerate,
    # so the knapsack gather is checked against the independent DP tables
    m, cap = 8, 64
    game = build_blotto(BlottoSpec(
        caps_a=(cap,) * m, caps_d=(cap,) * m, costs_a=(1,) * m, costs_d=(1,) * m,
        budget_a=cap, budget_d=cap, omegas=random_rank1_omegas(m, (cap,) * m, (cap,) * m, 5)))
    knapsack = game.A
    dp = DpOracle(dp_from_knapsack(knapsack.spec))
    rng = np.random.default_rng(11)
    queries = [rng.normal(size=knapsack.n_rows) for _ in range(100)]
    # integer queries on the rank-1 outputs make many exact ties
    queries += [rng.integers(-2, 3, size=knapsack.n_rows).astype(float) for _ in range(50)]
    for x in queries:
        for direction in ("max", "min"):
            h1 = col_extreme(knapsack, x, direction)
            h2 = col_extreme(dp, x, direction)
            assert h1.action_sequence == h2.action_sequence
            assert h1.value == h2.value
            assert np.array_equal(h1.column, h2.column)
            assert sum(h1.action_sequence) <= cap


@pytest.mark.parametrize("bounds, costs, budget", [
    ((3, 2, 2), (1, 1, 1), 0),      # zero budget: only the all-zero column
    ((3, 0, 2), (1, 2, 1), 4),      # a stage with a single (zero) action
    ((4, 5, 9), (2, 3, 1), 9),      # actions whose cost a*h_s exceeds the budget
    ((6,), (2,), 7),                # one stage: the first stage is the last
    ((5, 7), (1, 2), 8),            # two stages, no middle one (the nash-knapsack shape)
])
def test_knapsack_edge_cases_match_enumeration(bounds, costs, budget):
    rng = np.random.default_rng(budget)
    spec = KnapsackSpec(bounds=bounds, costs=costs, budget=budget,
                        outputs=tuple(rng.normal(size=(b + 1, 2)) for b in bounds))
    oracle = KnapsackOracle(spec)
    seqs, cols = enumerate_columns(oracle)
    for _ in range(30):
        x = rng.normal(size=oracle.n_rows)
        vals = x @ cols
        for direction, pick in (("max", np.argmax), ("min", np.argmin)):
            hit = col_extreme(oracle, x, direction)
            j = int(pick(vals))
            assert hit.action_sequence == seqs[j]
            assert abs(hit.value - vals[j]) < 1e-9
            assert np.array_equal(hit.column, cols[:, j])
    for direction in ("max", "min"):
        hit = col_extreme(oracle, np.zeros(oracle.n_rows), direction)
        assert hit.action_sequence == (0,) * len(bounds)
        assert hit.value == 0.0
    # the columns share one flat table: an action past its stage's bound is
    # an error, not a row of the next stage
    for bad in ((bounds[0] + 1,) + (0,) * (len(bounds) - 1), (-1,) + (0,) * (len(bounds) - 1),
                (0,) * (len(bounds) + 1)):
        with pytest.raises(ValueError, match="stage bounds"):
            oracle.column(bad)


def _rank1_outputs(rng, kind, bound):
    if kind == "gaussian":
        return rng.normal(size=(bound + 1, 1))
    if kind == "integer":       # few values: many exact ties
        return rng.integers(-2, 3, size=(bound + 1, 1)).astype(float)
    if kind == "monotone":      # every action is a record of one query sign
        return np.sort(rng.normal(size=(bound + 1, 1)), axis=0) * rng.choice([-1.0, 1.0])
    return np.full((bound + 1, 1), 0.7)     # constant: action 0 is the only record


@pytest.mark.parametrize("kind", ["gaussian", "integer", "monotone", "constant"])
@pytest.mark.parametrize("bounds, costs, budget", [
    ((2, 3, 2), (1, 2, 3), 9),           # bounds below the budget
    ((9, 8, 7, 9), (2, 1, 3, 1), 7),     # bounds above the budget
    ((5, 6, 4, 3), (3, 2, 1, 2), 10),
])
def test_knapsack_one_dim_outputs_match_enumeration(bounds, costs, budget, kind):
    # 1-dim outputs: the middle stages search their record actions only
    rng = np.random.default_rng([budget, len(kind)])
    spec = KnapsackSpec(bounds=bounds, costs=costs, budget=budget,
                        outputs=tuple(_rank1_outputs(rng, kind, b) for b in bounds))
    oracle = KnapsackOracle(spec)
    seqs, cols = enumerate_columns(oracle)
    m = len(bounds)
    queries = [np.zeros(m), np.full(m, -0.0)]
    for _ in range(40):
        x = (rng.integers(-2, 3, size=m).astype(float) if kind == "integer"
             else rng.normal(size=m))
        draw = rng.random(m)
        x[draw < 0.2] = 0.0
        x[draw > 0.8] = -0.0
        queries.append(x)
    for x in queries:
        # summed in one order for every column, so that equal columns tie exactly
        vals = (x[:, None] * cols).sum(axis=0)
        scale = np.abs(x) @ np.abs(cols)
        for direction, pick in (("max", np.argmax), ("min", np.argmin)):
            hit = col_extreme(oracle, x, direction)
            j = int(pick(vals))   # first occurrence: the lexicographically smallest optimum
            assert hit.action_sequence == seqs[j]
            assert abs(hit.value - vals[j]) <= 1e-12 * scale[j]
            assert np.array_equal(hit.column, cols[:, j])


def _bellman_reference(dp, x, direction):
    """Per-state backward recurrence, one action set at a time."""
    xs, off = [], 0
    for r in dp.block_dims:
        xs.append(x[off:off + r])
        off += r
    pick = np.argmax if direction == "max" else np.argmin
    values, argpos = [None] * dp.horizon, [None] * dp.horizon
    for s in range(dp.horizon - 1, -1, -1):
        u = np.empty(dp.n_states[s])
        ap = np.empty(dp.n_states[s], dtype=int)
        for st in range(dp.n_states[s]):
            cand = dp.outputs[s][st] @ xs[s]
            if s < dp.horizon - 1:
                cand = cand + values[s + 1][dp.transitions[s][st]]
            ap[st] = pick(cand)
            u[st] = cand[ap[st]]
        values[s], argpos[s] = u, ap
    return values, argpos


def test_bellman_backward_ragged_system_matches_per_state_loop():
    rng = np.random.default_rng(21)
    n_states = [3, 4, 2, 3]
    obj = {"n_states": n_states, "actions": [], "transitions": [], "outputs": [],
           "start_states": [0, 2]}
    for s, n in enumerate(n_states):
        acts = [sorted(rng.choice(9, size=int(rng.integers(1, 6)), replace=False).tolist())
                for _ in range(n)]
        obj["actions"].append(acts)
        obj["outputs"].append([rng.normal(size=(len(a), 2)).tolist() for a in acts])
        if s < len(n_states) - 1:
            obj["transitions"].append(
                [rng.integers(0, n_states[s + 1], size=len(a)).tolist() for a in acts])
    dp = dp_from_json(obj)
    assert len({len(a) for stage in dp.actions for a in stage}) > 1  # ragged
    oracle = DpOracle(dp)
    for _ in range(50):
        x = rng.normal(size=dp.n_rows)
        for direction in ("max", "min"):
            values, argpos = _bellman_reference(dp, x, direction)
            tables = bellman_backward(dp, x, direction)
            for s in range(dp.horizon):
                assert np.array_equal(tables.argpos[s], argpos[s])
                assert np.allclose(tables.values[s], values[s], rtol=0.0, atol=1e-12)
            starts = list(dp.start_states)
            ref_vals = values[0][starts]
            ref_start = starts[int(np.argmax(ref_vals) if direction == "max"
                                   else np.argmin(ref_vals))]
            assert oracle.col_extreme(x, direction).start_state == ref_start
