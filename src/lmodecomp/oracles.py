"""Simple-matrix column oracles: dense, knapsack-generated and DP-generated.

A "simple" matrix is represented implicitly: the only operation it must
support is finding the column maximizing or minimizing the inner product
with a query vector.  For knapsack- and DP-generated matrices that search
runs by backward/forward Bellman recurrences over a small state space,
while the number of columns can be astronomically large.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ColumnHit",
    "KnapsackSpec",
    "DpSystem",
    "BellmanTables",
    "DenseMatrixOracle",
    "KnapsackOracle",
    "DpOracle",
    "col_extreme",
    "column_of_key",
    "count_columns",
    "bellman_backward",
    "dp_from_knapsack",
    "enumerate_columns",
    "knapsack_from_json",
    "dp_from_json",
]


@dataclass(frozen=True)
class ColumnHit:
    """A column identified by an oracle query.

    action_sequence is the pure-strategy index of the column (the column
    number for dense matrices, the integer action vector for knapsack/DP
    matrices); value = <x, column> for the query x.
    """

    action_sequence: tuple
    column: np.ndarray
    value: float
    start_state: int | None = None

    @property
    def key(self):
        """The column's pure strategy as an atom key: the action sequence,
        paired with the start state for a DP, whose start states may
        share an action sequence."""
        if self.start_state is None:
            return self.action_sequence
        return self.start_state, self.action_sequence


@dataclass(frozen=True)
class KnapsackSpec:
    """Knapsack data: per-stage bounds, positive integer costs and budget,
    and per-stage output tables mapping load r -> vector in R^{r_s}."""

    bounds: tuple          # \bar p_s, nonnegative integers
    costs: tuple           # h_s, positive integers
    budget: int            # H, positive integer (0 allowed for the degenerate case)
    outputs: tuple         # per stage: array of shape (bounds[s] + 1, r_s)

    def __post_init__(self):
        bounds = tuple(int(b) for b in self.bounds)
        costs = tuple(int(h) for h in self.costs)
        outputs = tuple(np.atleast_2d(np.asarray(o, dtype=float)) for o in self.outputs)
        if not (len(bounds) == len(costs) == len(outputs)):
            raise ValueError("bounds, costs and outputs must have one entry per stage")
        if any(b < 0 for b in bounds):
            raise ValueError("bounds must be nonnegative integers")
        if any(h <= 0 for h in costs):
            raise ValueError("costs must be positive integers")
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")
        for s, (b, o) in enumerate(zip(bounds, outputs)):
            if o.shape[0] != b + 1:
                raise ValueError(f"stage {s}: output table needs {b + 1} rows, got {o.shape[0]}")
            if not np.isfinite(o).all():
                raise ValueError(f"stage {s}: output table has non-finite entries")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "budget", int(self.budget))
        object.__setattr__(self, "outputs", outputs)

    @property
    def horizon(self):
        return len(self.bounds)

    @property
    def block_dims(self):
        return tuple(o.shape[1] for o in self.outputs)

    @property
    def n_rows(self):
        return sum(self.block_dims)


@dataclass(frozen=True)
class DpSystem:
    """Finite-horizon deterministic system whose trajectories index columns.

    Per stage s: n_states[s] states (0-based); actions[s][state] is an
    ascending array of action ids; transitions[s][state] maps action
    positions to next-stage states (absent for the last stage);
    outputs[s][state] is an (n_actions, r_s) array of stage outputs.
    start_states restricts where trajectories may begin.

    Each stage's ragged action sets are also stored padded to the widest
    one, for the vectorized bellman_backward: per stage a tuple of
    outputs (n_states, width, r_s), next states (n_states, width) and a
    mask of the padding slots (n_states, width).
    """

    n_states: tuple
    actions: tuple       # actions[s][state] -> int array
    transitions: tuple   # transitions[s][state] -> int array, stages 0..m-2
    outputs: tuple       # outputs[s][state] -> (n_act, r_s) float array
    start_states: tuple

    def __post_init__(self):
        m = len(self.n_states)
        if m == 0:
            raise ValueError("system needs at least one stage")
        if len(self.actions) != m or len(self.outputs) != m or len(self.transitions) != m - 1:
            raise ValueError("inconsistent stage counts")
        padded = []
        for s in range(m):
            n, r = self.n_states[s], np.shape(self.outputs[s][0])[1]
            width = max(len(self.actions[s][state]) for state in range(n))
            out = np.zeros((n, width, r))
            nxt = np.zeros((n, width), dtype=int)
            pad = np.ones((n, width), dtype=bool)
            for state in range(n):
                acts = self.actions[s][state]
                if len(acts) == 0:
                    raise ValueError(f"empty action set at stage {s}, state {state}")
                if np.shape(self.outputs[s][state]) != (len(acts), r):
                    raise ValueError(f"outputs must align with actions at stage {s}, "
                                     f"state {state}")
                out[state, :len(acts)] = self.outputs[s][state]
                pad[state, :len(acts)] = False
                if s < m - 1:
                    nxt_st = self.transitions[s][state]
                    if len(nxt_st) != len(acts):
                        raise ValueError("transitions must align with actions")
                    if np.any(nxt_st < 0) or np.any(nxt_st >= self.n_states[s + 1]):
                        raise ValueError(f"transition out of range at stage {s}, state {state}")
                    nxt[state, :len(acts)] = nxt_st
            padded.append((out, nxt, pad))
        if not self.start_states:
            raise ValueError("at least one start state required")
        object.__setattr__(self, "_padded", tuple(padded))

    @property
    def horizon(self):
        return len(self.n_states)

    @property
    def block_dims(self):
        return tuple(self.outputs[s][0].shape[1] for s in range(self.horizon))

    @property
    def n_rows(self):
        return sum(self.block_dims)


@dataclass(frozen=True)
class BellmanTables:
    values: tuple    # per stage: (n_states,) array of optimal continuation values
    argpos: tuple    # per stage: (n_states,) array of optimal action positions
    direction: str


def _check_query(x, n_rows):
    x = np.asarray(x, dtype=float)
    if x.shape != (n_rows,):
        raise ValueError(f"query dimension {x.shape} does not match row count {n_rows}")
    return x


def _split_query(x, block_dims, n_rows):
    x = _check_query(x, n_rows)
    out, off = [], 0
    for r in block_dims:
        out.append(x[off:off + r])
        off += r
    return out


def _check_direction(direction):
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")


# ---------------------------------------------------------------------------
# oracle kinds

class DenseMatrixOracle:
    """Explicit K x L matrix; columns indexed 0..L-1.  An optional offset
    (one entry per column) makes column j score <x, column_j> + offset[j]:
    the hit's value includes the offset, its column does not.  Matrix and
    offset must be finite, and so must a query: a non-finite query entry
    makes every column's score non-finite, so the hit's value tells."""

    def __init__(self, matrix, offset=None):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.n_rows = self.matrix.shape[0]
        self.offset = None if offset is None else np.asarray(offset, dtype=float)
        if self.offset is not None and self.offset.shape != (self.matrix.shape[1],):
            raise ValueError(f"offset has shape {self.offset.shape}, expected one entry "
                             f"per column ({self.matrix.shape[1]})")
        if not np.isfinite(self.matrix).all() or (
                self.offset is not None and not np.isfinite(self.offset).all()):
            raise ValueError("matrix and offset must be finite")

    def col_extreme(self, x, direction):
        _check_direction(direction)
        x = _check_query(x, self.n_rows)
        try:
            vals = x @ self.matrix
            if self.offset is not None:
                vals += self.offset
        except RuntimeWarning:  # a floating-point flag, when warnings are errors:
            # it may come from a column that is not picked, so only the check below decides
            with np.errstate(over="ignore", invalid="ignore"):
                vals = x @ self.matrix
                if self.offset is not None:
                    vals += self.offset
        j = int(np.argmax(vals) if direction == "max" else np.argmin(vals))
        value = float(vals[j])
        if not math.isfinite(value):
            raise ValueError("query has non-finite entries" if not np.isfinite(x).all()
                             else f"column score {value} overflows")
        return ColumnHit((j,), self.matrix[:, j].copy(), value)

    def count_columns(self):
        return self.matrix.shape[1]

    def column(self, key):
        n = self.matrix.shape[1]
        if len(key) != 1 or not isinstance(key[0], (int, np.integer)) or not 0 <= key[0] < n:
            raise ValueError(f"column key {tuple(key)} is not one index in range({n})")
        return self.matrix[:, key[0]].copy()

    def column_norm_bound(self):
        return float(np.linalg.norm(self.matrix, axis=0).max())


class KnapsackOracle:
    """Knapsack-generated simple matrix with a vectorized Bellman search.

    One product with a block matrix built here gives every stage's action
    values <x_s, f_s(a)> at once.  The backward pass then needs a table
    only for the middle stages: the last stage's continuation is zero, so
    its optimum from budget y is the running extreme of its values read
    at min(bounds, y // h), and the forward pass reads the first stage at
    the full budget H only.  Ties go to the smallest action at every
    stage (the first occurrence of the optimum), so the action sequence
    is the lexicographically smallest optimal one.

    A middle stage scans only its record actions, those whose value beats
    every cheaper action of the stage (knapsack dominance).  The optimal
    continuation never falls as the budget grows, and floating-point
    addition keeps that order, so an action no better than a cheaper one
    never scores above it: the smallest optimal action at every budget is
    a record, and the table over the records picks the same action and
    value as the full one.  The candidate tables are built here, per
    query class: a stage with 1-dim outputs scores x_s * f_s(a), and
    rounding keeps the order of f_s, so its records are among the strict
    prefix maxima of f_s when x_s has the sign of the direction (positive
    for "max"), among its strict prefix minima for the opposite sign, and
    action 0 alone for x_s = 0; a stage with wider outputs has one class
    holding all of its actions.  A query must be finite: a NaN has no sign.
    """

    def __init__(self, spec):
        self.spec = spec
        self.n_rows = spec.n_rows
        H, m = spec.budget, spec.horizon
        dims, bounds, costs = spec.block_dims, spec.bounds, spec.costs
        row_off = np.cumsum((0,) + dims)
        act_off = np.cumsum((0,) + tuple(b + 1 for b in bounds))
        self._action_slices = tuple(slice(act_off[s], act_off[s + 1]) for s in range(m))
        # x @ _stack = (outputs[s] @ x_s for every stage s), concatenated
        stack = np.zeros((self.n_rows, act_off[-1]))
        for s, o in enumerate(spec.outputs):
            stack[row_off[s]:row_off[s + 1], act_off[s]:act_off[s + 1]] = o.T
        self._stack = stack
        # the column of actions a is _flat[_row_start + _row_stride * a[_row_stage]]
        flat_off = np.cumsum((0,) + tuple(o.size for o in spec.outputs))
        self._flat = np.concatenate([o.ravel() for o in spec.outputs])
        self._row_stage = np.repeat(np.arange(m), dims)
        self._row_stride = np.repeat(dims, dims)
        self._row_start = (flat_off[:-1].repeat(dims)
                           + np.arange(self.n_rows) - row_off[:-1].repeat(dims))
        # last stage: the largest affordable action from each budget 0..H
        self._last_cap = np.minimum(bounds[-1], np.arange(H + 1) // costs[-1])
        # middle stages: _middle[s] = (row, tables).  A query's class at stage s
        # is the sign of x[row] times the direction's (+1 for "max"), and
        # tables[class] = (gather, rows, actions) over the class's ascending
        # candidate actions: gather[y, j] indexes a continuation padded in
        # front by one infeasible entry, 1 + the budget y - actions[j]*h_s
        # left, or 0 where that is negative, and rows[y] + j is entry (y, j)
        # of the flattened (H+1, len(actions)) table
        budgets = np.arange(H + 1)[:, None]
        self._middle = {}
        for s in range(1, m - 1):
            tables = {}
            for classes, actions in _record_classes(spec.outputs[s]):
                left = budgets - costs[s] * actions
                tables.update(dict.fromkeys(classes, (
                    np.where(left < 0, 0, left + 1), np.arange(H + 1) * len(actions), actions)))
            self._middle[s] = int(row_off[s]), tables
        # first stage: the budget H - a*h_0 left by each affordable action a
        self._first_left = H - costs[0] * np.arange(min(bounds[0], H // costs[0]) + 1)

    def col_extreme(self, x, direction):
        _check_direction(direction)
        x = _check_query(x, self.n_rows)
        xl = x.tolist()
        if not all(map(math.isfinite, xl)):
            raise ValueError("query has non-finite entries")
        spec = self.spec
        H, m = spec.budget, spec.horizon
        maximize = direction == "max"
        sign = 1 if maximize else -1
        values = x @ self._stack
        stage = [values[sl] for sl in self._action_slices]
        upad = np.empty(H + 2)  # upad[1 + y] = optimal continuation from budget y
        upad[0] = -np.inf if maximize else np.inf
        u = upad[1:]
        # the indices are in range by construction; mode "raise" would buffer `out`
        running = np.maximum if maximize else np.minimum
        running.accumulate(stage[-1]).take(self._last_cap, out=u, mode="clip")
        argpos = {}
        for s in range(m - 2, 0, -1):
            row, tables = self._middle[s]
            c = xl[row]
            gather, rows, actions = tables[sign * ((c > 0) - (c < 0))]
            cand = upad.take(gather)   # (H+1, len(actions))
            cand += stage[s].take(actions)
            # first occurrence of the optimum = smallest action: lexicographic tie-break
            k = cand.argmax(axis=1) if maximize else cand.argmin(axis=1)
            cand.ravel().take(rows + k, out=u, mode="clip")
            argpos[s] = actions, k
        # forward pass from the full budget
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
        return ColumnHit(tuple(actions), self._column(actions), float(value))

    def _column(self, actions):
        index = self._row_start + self._row_stride * np.array(actions)[self._row_stage]
        return self._flat.take(index)

    def count_columns(self):
        spec = self.spec
        H = spec.budget
        counts = [1] * (H + 1)  # exact big integers: completions from each budget
        for s in range(spec.horizon - 1, -1, -1):
            h, window = spec.costs[s], (spec.bounds[s] + 1) * spec.costs[s]
            # prefix sums along each residue class of the budget mod h; the
            # count from y sums counts[y - a*h] over a = 0..min(bounds, y // h)
            prefix = counts[:]
            for y in range(h, H + 1):
                prefix[y] += prefix[y - h]
            counts = [prefix[y] - prefix[y - window] if y >= window else prefix[y]
                      for y in range(H + 1)]
        return counts[H]

    def column(self, action_sequence):
        actions = np.asarray(action_sequence)
        if actions.shape != (self.spec.horizon,) or not (
                (actions >= 0) & (actions <= self.spec.bounds)).all():
            raise ValueError(f"action sequence {tuple(action_sequence)} is not within the "
                             f"stage bounds {self.spec.bounds}")
        return self._column(actions)

    def column_norm_bound(self):
        # sqrt(sum_s max_a ||f_s(a)||^2) upper-bounds every column norm
        return float(np.sqrt(sum(
            (np.linalg.norm(o, axis=1) ** 2).max() for o in self.spec.outputs
        )))


def _record_classes(outputs):
    """One middle stage's query classes, as (classes, ascending candidate
    actions) pairs: the record actions of each class (see KnapsackOracle),
    or one pair of every class and every action for wider outputs."""
    if outputs.shape[1] > 1:
        return [((1, 0, -1), np.arange(outputs.shape[0]))]
    f = outputs[:, 0]
    return [((1,), _strict_prefix_maxima(f)), ((0,), np.zeros(1, dtype=int)),
            ((-1,), _strict_prefix_maxima(-f))]


def _strict_prefix_maxima(g):
    """Positions of the entries of g that exceed every earlier entry."""
    return np.flatnonzero(np.concatenate(([True], g[1:] > np.maximum.accumulate(g)[:-1])))


class DpOracle:
    """Simple matrix generated by a general finite DP system."""

    def __init__(self, system):
        self.system = system
        self.n_rows = system.n_rows

    def col_extreme(self, x, direction):
        x = _check_query(x, self.n_rows)
        if not all(map(math.isfinite, x.tolist())):  # before the Bellman products
            raise ValueError("query has non-finite entries")
        tables = bellman_backward(self.system, x, direction)
        actions, start, value = _forward_with_start(self.system, tables)
        column = _column_from_trajectory(self.system, start, actions)
        return ColumnHit(tuple(actions), column, value, start_state=start)

    def count_columns(self):
        dp = self.system
        m = dp.horizon
        counts = [len(dp.actions[m - 1][st]) for st in range(dp.n_states[m - 1])]
        for s in range(m - 2, -1, -1):
            new = []
            for st in range(dp.n_states[s]):
                total = 0
                for nxt in dp.transitions[s][st]:
                    total += counts[int(nxt)]
                new.append(total)
            counts = new
        return sum(counts[st] for st in dp.start_states)

    def column(self, action_sequence, start_state=None):
        start = start_state if start_state is not None else dp_default_start(self.system)
        return _column_from_trajectory(self.system, start, action_sequence)

    def column_norm_bound(self):
        dp = self.system
        total = 0.0
        for s in range(dp.horizon):
            best = 0.0
            for st in range(dp.n_states[s]):
                best = max(best, float((np.linalg.norm(dp.outputs[s][st], axis=1) ** 2).max()))
            total += best
        return float(np.sqrt(total))


def dp_default_start(system):
    if len(system.start_states) != 1:
        raise ValueError("start state required when the system has several start states")
    return system.start_states[0]


def _column_from_trajectory(dp, start, actions):
    if len(actions) != dp.horizon:
        raise ValueError("action sequence length must equal the horizon")
    state, parts = start, []
    for s, a in enumerate(actions):
        acts = dp.actions[s][state]
        pos = int(np.searchsorted(acts, a))
        if pos >= len(acts) or acts[pos] != a:
            raise ValueError(f"action {a} infeasible at stage {s}, state {state}")
        parts.append(dp.outputs[s][state][pos])
        if s < dp.horizon - 1:
            state = int(dp.transitions[s][state][pos])
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# Bellman recurrences on general DP systems

def bellman_backward(dp, x, direction):
    """Backward recurrence U_s(state) = opt_a {<x_s, chi_s(state, a)> + U_{s+1}(next)}.

    Returns tables of continuation values and optimal action positions;
    ties go to the lexicographically smallest action.
    """
    _check_direction(direction)
    xs = _split_query(x, dp.block_dims, dp.n_rows)
    pick = np.argmax if direction == "max" else np.argmin
    bad = -np.inf if direction == "max" else np.inf
    m = dp.horizon
    values, argpos = [None] * m, [None] * m
    for s in range(m - 1, -1, -1):
        out, nxt, pad = dp._padded[s]
        cand = out @ xs[s]                      # (n_states, width)
        if s < m - 1:
            cand += values[s + 1][nxt]
        cand[pad] = bad
        # first occurrence of the optimum = smallest action position
        argpos[s] = pick(cand, axis=1)
        values[s] = cand[np.arange(dp.n_states[s]), argpos[s]]
    return BellmanTables(tuple(values), tuple(argpos), direction)


def _forward_with_start(dp, tables):
    u1 = tables.values[0]
    starts = np.array(dp.start_states, dtype=int)
    vals = u1[starts]
    best = int(np.argmax(vals) if tables.direction == "max" else np.argmin(vals))
    state = int(starts[best])
    start = state
    actions = []
    for s in range(dp.horizon):
        pos = int(tables.argpos[s][state])
        actions.append(int(dp.actions[s][state][pos]))
        if s < dp.horizon - 1:
            state = int(dp.transitions[s][state][pos])
    return actions, start, float(vals[best])


def dp_from_knapsack(spec):
    """DP system with states = remaining budget 0..H; trajectories are in
    bijection with feasible knapsack vectors (start state is the budget)."""
    H = spec.budget
    m = spec.horizon
    n_states = tuple([H + 1] * m)
    actions, transitions, outputs = [], [], []
    for s in range(m):
        acts_s, next_s, out_s = [], [], []
        h = spec.costs[s]
        for xi in range(H + 1):
            amax = min(spec.bounds[s], xi // h)
            acts = np.arange(amax + 1)
            acts_s.append(acts)
            next_s.append(xi - acts * h)
            out_s.append(spec.outputs[s][:amax + 1])
        actions.append(tuple(acts_s))
        outputs.append(tuple(out_s))
        if s < m - 1:
            transitions.append(tuple(next_s))
    return DpSystem(
        n_states=n_states,
        actions=tuple(actions),
        transitions=tuple(transitions),
        outputs=tuple(outputs),
        start_states=(H,),
    )


# ---------------------------------------------------------------------------
# module-level dispatch

def col_extreme(oracle, x, direction):
    """Column of the implicit matrix extremizing <x, column>."""
    return oracle.col_extreme(x, direction)


def column_of_key(oracle, key):
    """The column of the pure strategy `key`, a `ColumnHit.key`: for a DP
    the start state and action sequence, elsewhere the action sequence."""
    if isinstance(oracle, DpOracle):
        start, actions = key
        return oracle.column(actions, start)
    return oracle.column(key)


def count_columns(oracle):
    """Exact column count (Python big integer for knapsack/DP kinds)."""
    return oracle.count_columns()


def enumerate_columns(oracle, limit=10 ** 6):
    """Materialize all columns: (list of column keys, K x L matrix).

    The keys are those of `ColumnHit.key`: the action sequence, paired
    with the start state for a DP.
    Intended for desk-scale instances and brute-force checks; raises when
    the column count exceeds `limit`.
    """
    count = oracle.count_columns()
    if count > limit:
        raise ValueError(f"column count {count} exceeds enumeration limit {limit}")
    if isinstance(oracle, DenseMatrixOracle):
        return [(j,) for j in range(oracle.matrix.shape[1])], oracle.matrix.copy()

    if isinstance(oracle, KnapsackOracle):
        spec = oracle.spec
        seqs = []

        def rec(s, budget, prefix):
            if s == spec.horizon:
                seqs.append(tuple(prefix))
                return
            amax = min(spec.bounds[s], budget // spec.costs[s])
            for a in range(amax + 1):
                rec(s + 1, budget - a * spec.costs[s], prefix + [a])

        rec(0, spec.budget, [])
        cols = np.stack([oracle.column(seq) for seq in seqs], axis=1)
        return seqs, cols

    dp = oracle.system
    seqs, cols = [], []

    def walk(s, state, acts, parts, start):
        if s == dp.horizon:
            seqs.append((start, tuple(acts)))
            cols.append(np.concatenate(parts))
            return
        for pos, a in enumerate(dp.actions[s][state]):
            nxt = int(dp.transitions[s][state][pos]) if s < dp.horizon - 1 else -1
            walk(s + 1, nxt, acts + [int(a)], parts + [dp.outputs[s][state][pos]], start)

    for start in dp.start_states:
        walk(0, start, [], [], start)
    return seqs, np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# loading

def json_object(obj):
    """`obj` itself, or the JSON document in the file it names or is open on."""
    if isinstance(obj, str):
        with open(obj) as fp:
            return json.load(fp)
    if hasattr(obj, "read"):
        return json.load(obj)
    return obj


def matrix_side(obj):
    """Oracle for one matrix of a spec: knapsack if a dict with a budget, else dense."""
    if isinstance(obj, dict) and "budget" in obj:
        return KnapsackOracle(knapsack_from_json(obj))
    return DenseMatrixOracle(np.asarray(obj, dtype=float))


def knapsack_from_json(obj):
    """Build a KnapsackSpec from a dict or a JSON file path/handle."""
    obj = json_object(obj)
    return KnapsackSpec(
        bounds=tuple(obj["bounds"]),
        costs=tuple(obj["costs"]),
        budget=int(obj["budget"]),
        outputs=tuple(np.asarray(t, dtype=float) for t in obj["outputs"]),
    )


def dp_from_json(obj):
    """Build a DpSystem from a dict with explicit per-state tables."""
    obj = json_object(obj)
    m = len(obj["n_states"])
    actions = tuple(
        tuple(np.asarray(a, dtype=int) for a in obj["actions"][s]) for s in range(m)
    )
    transitions = tuple(
        tuple(np.asarray(t, dtype=int) for t in obj["transitions"][s]) for s in range(m - 1)
    )
    outputs = tuple(
        tuple(np.atleast_2d(np.asarray(o, dtype=float)) for o in obj["outputs"][s])
        for s in range(m)
    )
    return DpSystem(
        n_states=tuple(int(n) for n in obj["n_states"]),
        actions=actions,
        transitions=transitions,
        outputs=outputs,
        start_states=tuple(int(s) for s in obj["start_states"]),
    )
