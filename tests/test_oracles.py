import math
import re
import warnings

import numpy as np
import pytest

from conftest import random_knapsack
from test_vi import dp_start_states_nash_spec
from lmodecomp.blotto import BlottoSpec, build_blotto, random_rank1_omegas
from lmodecomp.oracles import (
    ColumnHit,
    DenseMatrixOracle,
    DpOracle,
    DpSystem,
    KnapsackOracle,
    KnapsackSpec,
    bellman_backward,
    dp_from_knapsack,
    enumerate_columns,
    integers,
    knapsack_from_json,
    reals,
)
from lmodecomp import oracles
from lmodecomp.oracles import _KnapsackShape


def small_knapsack():
    # two stages, unit bounds/costs, budget 1, scalar outputs f_s(r) = r
    return KnapsackSpec(bounds=(1, 1), costs=(1, 1), budget=1,
                        outputs=(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]])))


def test_dense_col_extreme():
    oracle = DenseMatrixOracle([[1.0, 2.0], [3.0, 4.0]])
    hit = oracle.col_extreme(np.array([1.0, 1.0]), "max")
    assert hit.action_sequence == (1,)
    assert hit.value == 6.0
    assert np.array_equal(hit.column, [2.0, 4.0])


def test_column_hit_keeps_its_fields_and_key():
    column = np.array([1.0, 2.0])
    hit = ColumnHit((3, 1), column, 4.5)
    assert (hit.action_sequence, hit.column, hit.value, hit.start_state) == ((3, 1), column,
                                                                              4.5, None)
    assert hit.key == (3, 1)
    dp_hit = ColumnHit((3, 1), column, 4.5, start_state=2)
    assert dp_hit.start_state == 2 and dp_hit.key == (2, (3, 1))


@pytest.mark.parametrize("kind", ["dense", "knapsack"])
def test_queries_of_any_array_type_search_alike_and_bad_shapes_raise(kind):
    # a list, integer, float32 or strided query is converted to the same
    # float64 query; a query of the wrong shape is rejected
    rng = np.random.default_rng(5)
    oracle = (DenseMatrixOracle(rng.normal(size=(3, 7)), offset=rng.normal(size=7))
              if kind == "dense" else random_knapsack(rng))
    n = oracle.n_rows
    for direction in ("max", "min"):
        x = rng.integers(-3, 4, size=n).astype(float)
        ref = oracle.col_extreme(x, direction)
        for query in (x.tolist(), x.astype(int), x.astype(np.float32), x[None, :][0],
                      np.repeat(x, 2)[::2]):
            hit = oracle.col_extreme(query, direction)
            assert hit.key == ref.key and hit.value == ref.value
            assert hit.column.tobytes() == ref.column.tobytes()
        for bad in (np.zeros(n + 1), np.zeros((1, n)), np.zeros(n - 1), 1.0):
            with pytest.raises(ValueError, match="query dimension"):
                oracle.col_extreme(bad, direction)
    with pytest.raises(ValueError, match="direction"):
        oracle.col_extreme(np.zeros(n), "argmax")


def test_dense_offset_scores_columns_without_changing_them():
    oracle = DenseMatrixOracle([[1.0, 2.0, 3.0], [0.0, 5.0, 0.0]], offset=[1.0, 0.0, -1.0])
    hit = oracle.col_extreme(np.array([2.0, 0.0]), "max")   # scores 3, 4, 5
    assert hit.action_sequence == (2,)
    assert hit.value == 5.0                                  # includes the offset
    assert np.array_equal(hit.column, [3.0, 0.0])            # the column does not
    for direction in ("max", "min"):                         # scores 2, 2, 2
        hit = oracle.col_extreme(np.array([1.0, 0.0]), direction)
        assert hit.action_sequence == (0,) and hit.value == 2.0
    with pytest.raises(ValueError, match=r"offset has shape \(2,\)"):
        DenseMatrixOracle(np.eye(3), offset=[1.0, 2.0])


def test_dense_oracle_answers_from_its_own_read_only_copy():
    # a caller's later write to its matrix or offset changes no hit, and a
    # hit's column and column(key) are read-only views of the stored matrix
    matrix, offset = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.0, 1.0])
    oracle = DenseMatrixOracle(matrix, offset=offset)
    matrix[0, 0], offset[0] = 100.0, 100.0
    hit = oracle.col_extreme([1.0, 0.0], "max")
    assert hit.action_sequence == (1,) and hit.value == 3.0
    assert np.array_equal(hit.column, [2.0, 4.0])
    column = oracle.column((0,))
    assert np.array_equal(column, [1.0, 3.0])
    for view in (hit.column, column):
        assert np.shares_memory(view, oracle.matrix)
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        oracle.offset[0] = 7.0


def test_knapsack_spec_example_queries():
    oracle = KnapsackOracle(small_knapsack())
    hit = oracle.col_extreme(np.array([2.0, 3.0]), "max")
    assert hit.action_sequence == (0, 1)
    assert np.array_equal(hit.column, [0.0, 1.0])
    assert hit.value == 3.0
    hit = oracle.col_extreme(np.array([2.0, 3.0]), "min")
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


def test_enumeration_stops_above_a_million_columns_before_the_walk(monkeypatch):
    # the limit is read off the exact count: a side of 2^21 columns raises
    # before the walk starts, and one of exactly 10^6 (every (a0, a1) with
    # a0, a1 <= 999 fits the budget of 1998) passes the check and starts it
    class Walked(Exception):
        pass

    def walk(spec):
        raise Walked

    monkeypatch.setattr(oracles, "dp_from_knapsack", walk)
    binary = KnapsackSpec(bounds=(1,) * 21, costs=(1,) * 21, budget=21,
                          outputs=(np.ones((2, 1)),) * 21)
    with pytest.raises(ValueError, match="column count 2097152 exceeds enumeration limit "
                                         "1000000"):
        enumerate_columns(KnapsackOracle(binary))
    million = KnapsackSpec(bounds=(999, 999), costs=(1, 1), budget=1998,
                           outputs=(np.ones((1000, 1)),) * 2)
    assert KnapsackOracle(million).count_columns() == 10 ** 6
    with pytest.raises(Walked):
        enumerate_columns(KnapsackOracle(million))


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
                hit = oracle.col_extreme(x, direction)
                j = int(pick(vals))
                assert seqs[j] == hit.action_sequence
                assert abs(vals[j] - hit.value) < 1e-9
    for bad in (np.zeros(oracle.n_rows + 1), np.zeros((1, oracle.n_rows))):
        with pytest.raises(ValueError, match="does not match row count"):
            oracle.col_extreme(bad, "max")


def test_lexicographic_tie_break():
    # two stages with identical zero outputs: every column ties at 0
    spec = KnapsackSpec(bounds=(2, 2), costs=(1, 1), budget=2,
                        outputs=(np.zeros((3, 1)), np.zeros((3, 1))))
    hit = KnapsackOracle(spec).col_extreme(np.array([1.0, 1.0]), "max")
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
                h1 = oracle.col_extreme(x, direction)
                h2 = dp.col_extreme(x, direction)
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
    assert dpo.col_extreme(np.array([2.0, 3.0]), "max").action_sequence == (0, 1)
    # ties go to the lexicographically smallest action sequence
    assert dpo.col_extreme(np.zeros(2), "max").action_sequence == (0, 0)


def test_column_norm_bound_dominates():
    rng = np.random.default_rng(3)
    oracle = random_knapsack(rng)
    _, cols = enumerate_columns(oracle)
    assert oracle.column_norm_bound() >= np.linalg.norm(cols, axis=0).max() - 1e-12


def test_column_reconstruction():
    oracle = KnapsackOracle(small_knapsack())
    hit = oracle.col_extreme(np.array([1.0, -1.0]), "max")
    assert np.array_equal(oracle.column(hit.action_sequence), hit.column)


@pytest.mark.parametrize("value, ndim, named", [
    ([[1.0, 2.0], [3.0]], 2,
     "T must be a matrix of real numbers (a list of equal-length rows), not [[1.0, 2.0], [3.0]]"),
    ([[[1.0, 2.0]], [[3.0, 4.0]]], 2, "T must be a matrix of real numbers (a list of "
                                      "equal-length rows), not [[[1.0, 2.0]], [[3.0, 4.0]]]"),
    ([[1.0, 2.0], [3.0, math.inf]], 2, "T[1][1] must be finite, not inf"),
    ([1.0, -math.inf], 2, "T[1] must be finite, not -inf"),  # named as given, not padded
    ([0.5, None], 1, "T[1] must be a real number, not None"),
    ([[1.0, {}]], 2, "T[0][1] must be a real number, not {}"),
    (["1.5"], 1, "T[0] must be a real number, not '1.5'"),
    (7.0, 1, "T must be a list of real numbers, not 7.0"),
    ([[]], 2, "T must be a matrix of real numbers (a list of equal-length rows), not [[]]"),
    # numpy would read True as 1.0
    ([[1.0, True]], 2, "T[0][1] must be a real number, not True"),
    ([0.5, False], 1, "T[1] must be a real number, not False"),
    (np.array([[1.0], [0.0]]) > 0.5, 2, "T[0][0] must be a real number, not True"),
])
def test_reals_names_the_field_and_the_first_bad_entry(value, ndim, named):
    with pytest.raises(ValueError, match=re.escape(named) + "$"):
        reals(value, "T", ndim)


def test_reals_returns_an_owned_read_only_copy_in_the_input_layout():
    table = np.arange(6.0).reshape(2, 3)
    out = reals(table.T, "T", 2)  # F-ordered, as a transposed matrix is
    assert np.array_equal(out, table.T) and out.flags.f_contiguous
    assert not out.flags.writeable and not np.shares_memory(out, table)
    assert reals([1, 2], "T", 2).shape == (1, 2)  # as np.atleast_2d pads
    assert reals([10 ** 20, 1], "T").tolist() == [1e20, 1.0]  # an int beyond int64


def test_integers_names_a_value_that_is_not_a_list():
    for value in (7, None, {}, "12"):
        with pytest.raises(ValueError, match=re.escape(f"bounds must be a list, not {value!r}")):
            integers(value, "bounds")


def test_spec_validation():
    with pytest.raises(ValueError):
        KnapsackSpec(bounds=(1,), costs=(0,), budget=1, outputs=(np.zeros((2, 1)),))
    with pytest.raises(ValueError):
        KnapsackSpec(bounds=(1,), costs=(1,), budget=1, outputs=(np.zeros((3, 1)),))
    with pytest.raises(ValueError, match=re.escape("outputs[0][1][0] must be finite, not inf")):
        KnapsackSpec(bounds=(1,), costs=(1,), budget=1, outputs=(np.array([[0.0], [np.inf]]),))
    with pytest.raises(ValueError, match="at least one stage"):  # no column to search
        KnapsackSpec(bounds=(), costs=(), budget=1, outputs=())


def test_knapsack_spec_takes_integer_counts_only():
    # numpy integers are counts; a float or a bool is not truncated but rejected
    outputs = (np.zeros((3, 1)), np.zeros((2, 1)))
    spec = KnapsackSpec(bounds=(np.int64(2), 1), costs=(1, np.int32(2)), budget=np.int64(3),
                        outputs=outputs)
    assert (spec.bounds, spec.costs, spec.budget) == ((2, 1), (1, 2), 3)
    assert type(spec.budget) is int
    for kwargs, named in [({"bounds": (2.7, 1)}, "bounds[0] must be an integer, not 2.7"),
                          ({"costs": (1, 1.5)}, "costs[1] must be an integer, not 1.5"),
                          ({"budget": 2.9}, "budget must be an integer, not 2.9"),
                          ({"budget": True}, "budget must be an integer, not True")]:
        with pytest.raises(ValueError, match=re.escape(named)):
            KnapsackSpec(**{"bounds": (2, 1), "costs": (1, 1), "budget": 2,
                            "outputs": outputs, **kwargs})


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
                oracle.col_extreme(x, direction)


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
                oracle.col_extreme(x, direction)
    # a NaN meets a zero entry quietly
    with pytest.raises(ValueError, match="non-finite"):
        DenseMatrixOracle(np.eye(3)).col_extreme([1.0, np.nan, 0.0], "max")


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
                    oracle.col_extreme(x, direction)
        with pytest.raises(ValueError, match="overflows"):
            DenseMatrixOracle([[1e300, 1.0]]).col_extreme([1e300], "max")


def test_dense_rejects_non_finite_tables_and_overflow():
    with pytest.raises(ValueError, match="finite"):
        DenseMatrixOracle([[1.0, np.nan]])
    with pytest.raises(ValueError, match="finite"):
        DenseMatrixOracle([[1.0, 2.0]], offset=(0.0, -np.inf))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
        DenseMatrixOracle([[1e300, 1.0]]).col_extreme([1e300], "max")


@pytest.mark.parametrize("mode", ["ignore", "error"])
def test_dense_overflow_in_an_unpicked_column_is_no_error(mode):
    # the overflowing column scores -inf under "max" (+inf under "min"), and
    # the finite column wins whatever the warning filter
    with warnings.catch_warnings():
        warnings.simplefilter(mode)
        for row, direction in ((-1e300, "max"), (1e300, "min")):
            hit = DenseMatrixOracle([[row, 1.0]]).col_extreme([1e300], direction)
            assert hit.key == (1,) and hit.value == 1e300


@pytest.mark.parametrize("with_offset", [False, True])
def test_dense_col_extreme_is_the_matmul_argmax_on_ties(with_offset):
    # small integer tables and queries tie often: the pick is still the
    # first extreme of x @ M (+ offset), with that score to the bit
    rng = np.random.default_rng(11)
    for _ in range(300):
        k, n = int(rng.integers(1, 6)), int(rng.integers(1, 40))
        matrix = rng.integers(-2, 3, size=(k, n)).astype(float)
        offset = rng.integers(-1, 2, size=n).astype(float) if with_offset else None
        x = rng.integers(-2, 3, size=k) * rng.choice([0.5, 1.0, 3.0])
        scores = x @ matrix if offset is None else x @ matrix + offset
        oracle = DenseMatrixOracle(matrix, offset)
        for direction, pick in (("max", np.argmax), ("min", np.argmin)):
            hit = oracle.col_extreme(x, direction)
            j = int(pick(scores))
            assert hit.key == (j,) and hit.value == scores[j]
            assert hit.column.tobytes() == matrix[:, j].tobytes()


def test_dense_column_takes_one_index_in_range():
    oracle = DenseMatrixOracle(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(oracle.column((2,)), [2.0, 5.0])
    for bad in ((-1,), (0, 5), (7,)):
        with pytest.raises(ValueError, match="range"):
            oracle.column(bad)
    # True used to index as a boolean mask, a (2, 1, 3) array
    assert np.array_equal(oracle.column((np.int64(1),)), [1.0, 4.0])
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match=f"column index must be an integer, not {bad}"):
            oracle.column((bad,))


def test_knapsack_column_takes_integer_actions_only():
    # (0.5, 1) used to index as (0, 1)
    oracle = KnapsackOracle(small_knapsack())
    assert np.array_equal(oracle.column((np.int64(0), 1)), oracle.column((0, 1)))
    for bad, named in (((0.5, 1), "action[0] must be an integer, not 0.5"),
                       ((0, True), "action[1] must be an integer, not True")):
        with pytest.raises(ValueError, match=re.escape(named)):
            oracle.column(bad)


def test_dp_column_takes_a_start_state_and_action_sequence():
    # one stage of 4 states with actions 0 and 1; trajectories start at 0 or 2
    oracle = DpOracle(DpSystem(
        n_states=[4], actions=[[[0, 1]] * 4], transitions=[],
        outputs=[[[[1.0], [2.0]], [[3.0], [4.0]], [[5.0], [6.0]], [[7.0], [8.0]]]],
        start_states=[0, 2]))
    assert np.array_equal(oracle.column((2, (1,))), [6.0])
    assert np.array_equal(oracle.column((np.int64(0), [0])), [1.0])
    pair = r"not a \(start state, action sequence\) pair"
    for bad, message in (((99, (0,)), "start state 99 is not one of"),   # out of range
                         ((1, (0,)), "start state 1 is not one of"),     # not a start state
                         ((2.0, (0,)), "start state 2.0 is not one of"),
                         (((0,), 0), "start state"),
                         ((0,), pair),
                         ((0, (1,), 2), pair),
                         ((0, 1), pair),
                         (7, pair),
                         ((0, (0, 0)), "length must equal the horizon"),
                         ((0, (5,)), "infeasible")):
        with pytest.raises(ValueError, match=message):
            oracle.column(bad)


@pytest.mark.parametrize("starts", [[0, 7], [2], [-1]])
def test_dp_start_states_outside_stage_zero_are_rejected(starts):
    # [0, 7] used to build and then fail in count_columns with an IndexError;
    # [-1] used to mean state 1 through negative indexing, so col_extreme
    # returned the key (-1, (1,)) with state 1's column
    obj = {"n_states": [2], "actions": [[[0], [0, 1]]], "transitions": [],
           "outputs": [[[[1.0]], [[2.0], [3.0]]]], "start_states": starts}
    with pytest.raises(ValueError, match=rf"start state {starts[-1]} is not a state of stage 0"):
        DpSystem(**obj)
    obj["start_states"] = [0, 1]
    oracle = DpOracle(DpSystem(**obj))
    assert oracle.count_columns() == 3
    assert oracle.col_extreme(np.array([1.0]), "max").key == (1, (1,))


def _dp_fields(**changes):
    """A 2-stage system with a ragged stage 0 and two start states, as the
    plain lists of a JSON object, with `changes` applied."""
    fields = {"n_states": [2, 1], "actions": [[[0, 1], [1]], [[0, 2]]],
              "transitions": [[[0, 0], [0]]],
              "outputs": [[[[1.0], [2.0]], [[3.0]]], [[[4.0], [5.0]]]], "start_states": [0, 1]}
    return {**fields, **changes}


def test_dp_system_takes_plain_lists_and_numpy_integers():
    dp = DpSystem(**_dp_fields())
    assert (dp.n_states, dp.start_states) == ((2, 1), (0, 1))
    assert all(a.dtype == np.int64 for stage in dp.actions for a in stage)
    assert DpOracle(dp).count_columns() == 6
    same = DpSystem(**_dp_fields(n_states=np.array([2, 1]), start_states=[np.int64(0), 1],
                                 actions=[[np.array([0, 1], dtype=np.int32), [1]], [[0, 2]]]))
    assert (same.n_states, same.start_states) == ((2, 1), (0, 1))
    assert all(type(n) is int for n in same.n_states + same.start_states)
    assert enumerate_columns(DpOracle(same))[0] == enumerate_columns(DpOracle(dp))[0]


def test_dp_system_owns_its_tables():
    # a caller's later write to its own arrays changes no answer
    acts, outs = np.array([0, 1]), np.array([[1.0], [2.0]])
    oracle = DpOracle(DpSystem(n_states=[1], actions=[[acts]], transitions=[], outputs=[[outs]],
                               start_states=[0]))
    acts[1], outs[1, 0] = 5, 3.0
    hit = oracle.col_extreme([1.0], "max")
    assert (hit.action_sequence, hit.value, hit.column.tolist()) == ((1,), 2.0, [2.0])


@pytest.mark.parametrize("changes, named", [
    # int() used to truncate the first two to 1 and 0, np.asarray(dtype=int) the next two
    ({"n_states": [1.9, 1]}, "n_states[0] must be an integer, not 1.9"),
    ({"start_states": [0.7]}, "start_states[0] must be an integer, not 0.7"),
    ({"actions": [[[0, 1.5], [1]], [[0, 2]]]}, "actions[0][0][1] must be an integer, not 1.5"),
    ({"transitions": [[[0, 0.5], [0]]]}, "transitions[0][0][1] must be an integer, not 0.5"),
    ({"n_states": [2, True]}, "n_states[1] must be an integer, not True"),
    ({"actions": [[[1, 0], [1]], [[0, 2]]]}, "actions[0][0] must ascend, not [1, 0]"),
    ({"n_states": [3, 1]}, "stage 0 needs n_states[0] = 3 >= 1 entries"),
    ({"outputs": [[[[1.0], [2.0]], [[3.0]]], [[[4.0], [np.nan]]]]},
     "outputs[1][0][1][0] must be finite, not nan"),
])
def test_dp_system_rejects_non_integer_and_malformed_fields(changes, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        DpSystem(**_dp_fields(**changes))


@pytest.mark.parametrize("kind", ["dense", "dense-offset", "knapsack", "dp-two-starts"])
def test_column_takes_the_key_of_its_own_hits(kind):
    # one key contract for every oracle: column(hit.key) is the hit's column,
    # and enumerate_columns lists every key with its column
    rng = np.random.default_rng(17)
    matrix = rng.normal(size=(3, 5))
    oracle = {"dense": DenseMatrixOracle(matrix),
              "dense-offset": DenseMatrixOracle(matrix, offset=rng.normal(size=5)),
              "knapsack": random_knapsack(rng, max_cols=500),
              "dp-two-starts": dp_start_states_nash_spec().D[0]}[kind]
    keys, cols = enumerate_columns(oracle)
    assert len(keys) == len(set(keys)) == oracle.count_columns() == cols.shape[1]
    for j, key in enumerate(keys):
        assert oracle.column(key).tobytes() == cols[:, j].tobytes()
    hit_keys = set()
    for _ in range(40):
        x = rng.normal(size=oracle.n_rows)
        for direction in ("max", "min"):
            hit = oracle.col_extreme(x, direction)
            assert oracle.column(hit.key).tobytes() == hit.column.tobytes()
            hit_keys.add(hit.key)
    assert hit_keys <= set(keys) and len(hit_keys) > 1


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
                oracle.col_extreme(x, direction)


def test_json_loaders():
    obj = {"bounds": [1, 1], "costs": [1, 1], "budget": 1,
           "outputs": [[[0.0], [1.0]], [[0.0], [1.0]]]}
    spec = knapsack_from_json(obj)
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
    dp2 = DpSystem(**dp_obj)
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
            h1 = knapsack.col_extreme(x, direction)
            h2 = dp.col_extreme(x, direction)
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
            hit = oracle.col_extreme(x, direction)
            j = int(pick(vals))
            assert hit.action_sequence == seqs[j]
            assert abs(hit.value - vals[j]) < 1e-9
            assert np.array_equal(hit.column, cols[:, j])
    for direction in ("max", "min"):
        hit = oracle.col_extreme(np.zeros(oracle.n_rows), direction)
        assert hit.action_sequence == (0,) * len(bounds)
        assert hit.value == 0.0
    # the columns share one flat table: an action past its stage's bound is
    # an error, not a row of the next stage
    for bad in ((bounds[0] + 1,) + (0,) * (len(bounds) - 1), (-1,) + (0,) * (len(bounds) - 1),
                (0,) * (len(bounds) + 1)):
        with pytest.raises(ValueError, match="stage bounds"):
            oracle.column(bad)
    # within the bounds, but over the budget: no column of the matrix
    with pytest.raises(ValueError, match="costs more than the budget"):
        oracle.column(bounds)


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
            hit = oracle.col_extreme(x, direction)
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
    dp = DpSystem(**obj)
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


class ReferenceKnapsack:
    """KnapsackOracle's constructor and search as first written, with one
    set of tables per oracle, kept as the reference for the shared tables."""

    def __init__(self, spec):
        self.spec = spec
        self.n_rows = spec.n_rows
        H, m = spec.budget, spec.horizon
        dims, bounds, costs = spec.block_dims, spec.bounds, spec.costs
        row_off = np.cumsum((0,) + dims)
        act_off = np.cumsum((0,) + tuple(b + 1 for b in bounds))
        self._action_slices = tuple(slice(act_off[s], act_off[s + 1]) for s in range(m))
        stack = np.zeros((self.n_rows, act_off[-1]))
        for s, o in enumerate(spec.outputs):
            stack[row_off[s]:row_off[s + 1], act_off[s]:act_off[s + 1]] = o.T
        self._stack = stack
        flat_off = np.cumsum((0,) + tuple(o.size for o in spec.outputs))
        self._flat = np.concatenate([o.ravel() for o in spec.outputs])
        row_start = flat_off[:-1].repeat(dims) + np.arange(self.n_rows) - row_off[:-1].repeat(dims)
        self._rows = tuple(zip(row_start.tolist(), np.repeat(dims, dims).tolist(),
                               np.repeat(np.arange(m), dims).tolist()))
        self._last_cap = np.minimum(bounds[-1], np.arange(H + 1) // costs[-1])
        budgets = np.arange(H + 1)[:, None]
        self._middle = {}
        for s in range(1, m - 1):
            tables = {}
            for classes, actions in _reference_record_classes(spec.outputs[s]):
                left = budgets - costs[s] * actions
                tables.update(dict.fromkeys(classes, (
                    np.where(left < 0, 0, left + 1), np.arange(H + 1) * len(actions), actions)))
            self._middle[s] = int(row_off[s]), tables
        self._first_left = H - costs[0] * np.arange(min(bounds[0], H // costs[0]) + 1)

    def col_extreme(self, x, direction):
        x = np.asarray(x, dtype=float)
        xl = x.tolist()
        spec = self.spec
        H, m = spec.budget, spec.horizon
        maximize = direction == "max"
        sign = 1 if maximize else -1
        values = x.dot(self._stack)
        stage = [values[sl] for sl in self._action_slices]
        upad = np.empty(H + 2)
        upad[0] = -np.inf if maximize else np.inf
        u = upad[1:]
        running = np.maximum if maximize else np.minimum
        running.accumulate(stage[-1]).take(self._last_cap, out=u, mode="clip")
        argpos = {}
        for s in range(m - 2, 0, -1):
            row, tables = self._middle[s]
            c = xl[row]
            gather, rows, actions = tables[sign * ((c > 0) - (c < 0))]
            cand = upad.take(gather)
            cand += stage[s].take(actions)
            k = cand.argmax(axis=1) if maximize else cand.argmin(axis=1)
            cand.ravel().take(rows + k, out=u, mode="clip")
            argpos[s] = actions, k
        actions, state, value = [], H, u[H]
        if m > 1:
            first = u.take(self._first_left)
            first += stage[0][:len(first)]
            a = int(first.argmax() if maximize else first.argmin())
            actions, state, value = [a], H - a * spec.costs[0], first[a]
        for s in range(1, m - 1):
            stage_actions, k = argpos[s]
            a = int(stage_actions[k[state]])
            actions.append(a)
            state -= a * spec.costs[s]
        last = stage[-1][:self._last_cap[state] + 1]
        actions.append(int(last.argmax() if maximize else last.argmin()))
        column = self._flat.take([start + stride * actions[stage]
                                  for start, stride, stage in self._rows])
        return ColumnHit(tuple(actions), column, float(value))


def _reference_record_classes(outputs):
    def strict_prefix_maxima(g):
        return np.flatnonzero(np.concatenate(([True], g[1:] > np.maximum.accumulate(g)[:-1])))

    if outputs.shape[1] > 1:
        return [((1, 0, -1), np.arange(outputs.shape[0]))]
    f = outputs[:, 0]
    return [((1,), strict_prefix_maxima(f)), ((0,), np.zeros(1, dtype=int)),
            ((-1,), strict_prefix_maxima(-f))]


def _knapsack_tables(oracle):
    """Every table that an oracle's search reads, as (name, value) pairs."""
    tables = [(name, getattr(oracle, name)) for name in (
        "n_rows", "_action_slices", "_rows", "_last_cap", "_first_left", "_stack", "_flat")]
    for s, (row, classes) in sorted(oracle._middle.items()):
        tables.append((f"_middle[{s}] row", row))
        for c, arrays in sorted(classes.items()):
            tables += [(f"_middle[{s}][{c}][{i}]", a) for i, a in enumerate(arrays)]
    return tables


def _same_table(got, want):
    if isinstance(want, np.ndarray):
        return (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
    return got == want


def _assert_same_hits(oracle, reference, queries):
    for x in queries:
        for direction in ("max", "min"):
            hit, want = oracle.col_extreme(x, direction), reference.col_extreme(x, direction)
            assert hit.action_sequence == want.action_sequence
            assert hit.column.tobytes() == want.column.tobytes()
            assert hit.value.hex() == want.value.hex()


@pytest.mark.parametrize("bounds, costs, budget, dims", [
    ((4,), (1,), 3, (1,)),                          # m = 1: the first stage is the last
    ((6,), (2,), 9, (3,)),
    ((5, 7), (1, 2), 8, (1, 1)),                    # m = 2: no middle stage
    ((3, 9), (3, 1), 7, (2, 1)),
    ((6, 9, 4), (1, 2, 3), 11, (1, 1, 1)),          # m = 3: one middle stage
    ((8, 3, 8), (2, 1, 1), 10, (1, 2, 1)),          # a wide middle stage
    ((5, 5, 5), (1, 1, 1), 0, (1, 1, 2)),           # H = 0
    ((9, 4, 9, 6, 3), (1, 3, 1, 2, 1), 12, (2, 1, 1, 3, 1)),
    ((12, 12, 12, 12), (1, 1, 1, 1), 12, (1, 1, 1, 1)),  # equal middle stages
    ((7, 0, 6, 5), (2, 1, 1, 3), 9, (1, 1, 1, 2)),  # a middle stage with one action
])
@pytest.mark.parametrize("kind", ["gaussian", "integer"])
def test_knapsack_hits_match_the_reference_bit_for_bit(bounds, costs, budget, dims, kind):
    rng = np.random.default_rng([budget, len(bounds), len(kind)])
    draw = ((lambda shape: rng.integers(-2, 3, size=shape).astype(float)) if kind == "integer"
            else (lambda shape: rng.normal(size=shape)))
    spec = KnapsackSpec(bounds=bounds, costs=costs, budget=budget,
                        outputs=tuple(draw((b + 1, r)) for b, r in zip(bounds, dims)))
    oracle, reference = KnapsackOracle(spec), ReferenceKnapsack(spec)
    for (name, got), (_, want) in zip(_knapsack_tables(oracle), _knapsack_tables(reference),
                                      strict=True):
        assert _same_table(got, want), name
    queries = [np.zeros(spec.n_rows), np.full(spec.n_rows, -0.0)]
    for _ in range(40):
        x = draw(spec.n_rows)
        zeros = rng.random(spec.n_rows)
        x[zeros < 0.25] = 0.0      # query class 0 at a 1-dim middle stage
        x[zeros > 0.85] = -0.0
        queries.append(x)
    _assert_same_hits(oracle, reference, queries)
    assert oracle.column_norm_bound().hex() == textbook_norm_bound(spec).hex()


def textbook_norm_bound(spec):
    return float(np.sqrt(sum((np.linalg.norm(o, axis=1) ** 2).max() for o in spec.outputs)))


def test_column_norm_bound_is_the_textbook_formula_bit_for_bit():
    # squaring the row norms rounds: here the bound without the square roots
    # would be 4.358898943540674, one ulp above the textbook 4.358898943540673
    spec = KnapsackSpec(bounds=(0, 0), costs=(1, 1), budget=0,
                        outputs=(np.array([[3.0, 3.0]]), np.array([[0.0, 0.0, -1.0]])))
    assert KnapsackOracle(spec).column_norm_bound().hex() == textbook_norm_bound(spec).hex()


@pytest.mark.parametrize("defender", [
    {}, {"budget_d": 5}, {"caps_d": (4, 6, 6, 3)}, {"costs_d": (1, 2, 1, 1)},
])
def test_blotto_sides_get_the_oracles_of_their_own_specs(defender):
    # where the sides share caps, costs and budget (and so block dims) they
    # share the tables that depend only on these; either way each side's
    # oracle is the one that its own KnapsackSpec gives
    fields = {"caps_a": (4, 6, 6, 4), "caps_d": (4, 6, 6, 4), "costs_a": (1, 1, 1, 1),
              "costs_d": (1, 1, 1, 1), "budget_a": 6, "budget_d": 6, **defender}
    rng = np.random.default_rng(len(defender))
    omegas = [rng.integers(0, 3, size=(a + 1, 2)) @ rng.integers(0, 3, size=(2, d + 1))
              for a, d in zip(fields["caps_a"], fields["caps_d"])]   # ranks up to 2
    game = build_blotto(BlottoSpec(**fields, omegas=omegas))
    queries = [rng.normal(size=game.A.n_rows) for _ in range(20)]
    queries += [rng.integers(-1, 2, size=game.A.n_rows).astype(float) for _ in range(20)]
    for side in (game.A, game.D):
        alone = KnapsackOracle(side.spec)
        for (name, got), (_, want) in zip(_knapsack_tables(side), _knapsack_tables(alone),
                                          strict=True):
            assert _same_table(got, want), name
        _assert_same_hits(side, ReferenceKnapsack(side.spec), queries)
    ids = {id(value) for _, value in _knapsack_tables(game.A)}
    shared = [(name, value) for name, value in _knapsack_tables(game.D)
              if isinstance(value, np.ndarray) and id(value) in ids]
    assert {name for name, _ in shared} >= ({"_last_cap", "_first_left"} if not defender
                                            else set())
    assert bool(shared) == (not defender)
    for name, value in shared:
        assert not value.flags.writeable, name


def test_knapsack_tables_that_depend_only_on_shape_are_read_only():
    spec = KnapsackSpec(bounds=(3, 3, 3), costs=(1, 1, 1), budget=3,
                        outputs=(np.ones((4, 1)),) * 3)
    shape, oracle = _KnapsackShape(spec), KnapsackOracle(spec)
    (_, tables), = oracle._middle.values()
    for array in (shape.last_cap, shape.first_left, *shape.full.values(), shape.row_table(2),
                  oracle._last_cap, oracle._first_left, *(t[1] for t in tables.values())):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
