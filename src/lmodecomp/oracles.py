"""Simple-matrix column oracles: dense, knapsack-generated and DP-generated.

A "simple" matrix is represented implicitly: the only operation it must
support is finding the column maximizing or minimizing the inner product
with a query vector.  For knapsack- and DP-generated matrices that search
runs by backward/forward Bellman recurrences over a small state space,
while the number of columns can be astronomically large.
"""

from __future__ import annotations

import json
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
    "count_columns",
    "bellman_backward",
    "bellman_forward",
    "dp_from_knapsack",
    "enumerate_columns",
    "knapsack_from_json",
    "dp_from_json",
    "dense_from_csv",
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
    """Explicit K x L matrix; columns indexed 0..L-1."""

    def __init__(self, matrix):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.n_rows = self.matrix.shape[0]

    def col_extreme(self, x, direction):
        _check_direction(direction)
        x = _check_query(x, self.n_rows)
        vals = x @ self.matrix
        j = int(np.argmax(vals) if direction == "max" else np.argmin(vals))
        return ColumnHit((j,), self.matrix[:, j].copy(), float(vals[j]))

    def count_columns(self):
        return self.matrix.shape[1]

    def column(self, action_sequence):
        return self.matrix[:, action_sequence[0]].copy()

    def column_norm_bound(self):
        return float(np.linalg.norm(self.matrix, axis=0).max())


class KnapsackOracle:
    """Knapsack-generated simple matrix with a vectorized Bellman search."""

    def __init__(self, spec):
        self.spec = spec
        self.n_rows = spec.n_rows
        # Per stage, _gather[s][x, a] indexes a continuation padded in front
        # by one infeasible entry: 1 + the budget x - a*h_s left after
        # action a, or 0 where that is negative.
        budgets = np.arange(spec.budget + 1)[:, None]
        gather = []
        for b, h in zip(spec.bounds, spec.costs):
            left = budgets - h * np.arange(b + 1)
            gather.append(np.where(left < 0, 0, left + 1))
        self._gather = tuple(gather)
        offsets = np.cumsum((0,) + spec.block_dims)
        self._query_slices = tuple(slice(offsets[s], offsets[s + 1])
                                   for s in range(spec.horizon))
        self._budgets = np.arange(spec.budget + 1)

    def col_extreme(self, x, direction):
        _check_direction(direction)
        x = _check_query(x, self.n_rows)
        spec = self.spec
        H = spec.budget
        maximize = direction == "max"
        upad = np.zeros(H + 2)  # upad[1 + x] = optimal continuation from budget x
        upad[0] = -np.inf if maximize else np.inf
        argpos = [None] * spec.horizon
        for s in range(spec.horizon - 1, -1, -1):
            cand = upad.take(self._gather[s])   # (H+1, bounds+1)
            cand += spec.outputs[s] @ x[self._query_slices[s]]
            # first occurrence of the optimum = smallest a: lexicographic tie-break
            argpos[s] = cand.argmax(axis=1) if maximize else cand.argmin(axis=1)
            upad[1:] = cand[self._budgets, argpos[s]]
        # forward pass from the full budget
        state, actions = H, []
        for s in range(spec.horizon):
            a = int(argpos[s][state])
            actions.append(a)
            state -= a * spec.costs[s]
        column = np.concatenate([spec.outputs[s][a] for s, a in enumerate(actions)])
        return ColumnHit(tuple(actions), column, float(upad[H + 1]))

    def count_columns(self):
        spec = self.spec
        H = spec.budget
        counts = [1] * (H + 1)  # exact big-integer accumulators
        for s in range(spec.horizon - 1, -1, -1):
            h = spec.costs[s]
            new = [0] * (H + 1)
            for xi in range(H + 1):
                total = 0
                for a in range(min(spec.bounds[s], xi // h) + 1):
                    total += counts[xi - a * h]
                new[xi] = total
            counts = new
        return counts[H]

    def column(self, action_sequence):
        return np.concatenate(
            [self.spec.outputs[s][a] for s, a in enumerate(action_sequence)]
        )

    def column_norm_bound(self):
        # sqrt(sum_s max_a ||f_s(a)||^2) upper-bounds every column norm
        return float(np.sqrt(sum(
            (np.linalg.norm(o, axis=1) ** 2).max() for o in self.spec.outputs
        )))


class DpOracle:
    """Simple matrix generated by a general finite DP system."""

    def __init__(self, system):
        self.system = system
        self.n_rows = system.n_rows

    def col_extreme(self, x, direction):
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


def bellman_forward(dp, tables):
    """Recover the optimal action sequence from backward tables."""
    actions, _, _ = _forward_with_start(dp, tables)
    return tuple(actions)


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


def count_columns(oracle):
    """Exact column count (Python big integer for knapsack/DP kinds)."""
    return oracle.count_columns()


def enumerate_columns(oracle, limit=10 ** 6):
    """Materialize all columns: (list of action sequences, K x L matrix).

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

    def walk(s, state, acts, parts):
        if s == dp.horizon:
            seqs.append(tuple(acts))
            cols.append(np.concatenate(parts))
            return
        for pos, a in enumerate(dp.actions[s][state]):
            nxt = int(dp.transitions[s][state][pos]) if s < dp.horizon - 1 else -1
            walk(s + 1, nxt, acts + [int(a)], parts + [dp.outputs[s][state][pos]])

    for start in dp.start_states:
        walk(0, start, [], [])
    return seqs, np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# loading

def knapsack_from_json(obj):
    """Build a KnapsackSpec from a dict or a JSON file path/handle."""
    if isinstance(obj, str):
        with open(obj) as fp:
            obj = json.load(fp)
    elif hasattr(obj, "read"):
        obj = json.load(obj)
    return KnapsackSpec(
        bounds=tuple(obj["bounds"]),
        costs=tuple(obj["costs"]),
        budget=int(obj["budget"]),
        outputs=tuple(np.asarray(t, dtype=float) for t in obj["outputs"]),
    )


def dp_from_json(obj):
    """Build a DpSystem from a dict with explicit per-state tables."""
    if isinstance(obj, str):
        with open(obj) as fp:
            obj = json.load(fp)
    elif hasattr(obj, "read"):
        obj = json.load(obj)
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


def dense_from_csv(path):
    return DenseMatrixOracle(np.loadtxt(path, delimiter=",", ndmin=2))
