"""Simple-matrix column oracles: dense, knapsack-generated and DP-generated.

A "simple" matrix is represented implicitly: the only operation it must
support is finding the column maximizing or minimizing the inner product
with a query vector.  For knapsack- and DP-generated matrices that search
runs by backward/forward Bellman recurrences over a small state space,
while the number of columns can be astronomically large.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import reprlib
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = [
    "ColumnHit",
    "KnapsackSpec",
    "DpSystem",
    "BellmanTables",
    "DenseMatrixOracle",
    "KnapsackOracle",
    "DpOracle",
    "bellman_backward",
    "dp_from_knapsack",
    "enumerate_columns",
    "knapsack_from_json",
]


class ColumnHit:
    """A column hit by an oracle query, a plain record: action_sequence is
    its pure-strategy index (the column number of a dense matrix, the
    action vector of a knapsack/DP), value = <x, column> for the query x
    (plus a dense offset's entry), start_state a DP's (None elsewhere)."""

    __slots__ = ("action_sequence", "column", "value", "start_state")

    def __init__(self, action_sequence, column, value, start_state=None):
        self.action_sequence, self.column = action_sequence, column
        self.value, self.start_state = value, start_state

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
    and per-stage output tables mapping load r -> vector in R^{r_s}.  The
    counts go through `integers` and `integer`, each output table through
    `reals`, so the spec owns read-only copies of its tables."""

    bounds: tuple          # \bar p_s, nonnegative integers
    costs: tuple           # h_s, positive integers
    budget: int            # H, positive integer (0 allowed for the degenerate case)
    outputs: tuple         # per stage: array of shape (bounds[s] + 1, r_s)

    def __post_init__(self):
        bounds = tuple(integers(self.bounds, "bounds").tolist())
        costs = tuple(integers(self.costs, "costs").tolist())
        budget = integer(self.budget, "budget")
        outputs = tuple(reals(o, f"outputs[{s}]", 2)
                        for s, o in enumerate(entries(self.outputs, "outputs")))
        if not 0 < len(bounds) == len(costs) == len(outputs):
            raise ValueError("bounds, costs and outputs must have one entry per stage, "
                             "for at least one stage")
        if any(b < 0 for b in bounds):
            raise ValueError("bounds must be nonnegative integers")
        if any(h <= 0 for h in costs):
            raise ValueError("costs must be positive integers")
        if budget < 0:
            raise ValueError("budget must be nonnegative")
        for s, (b, o) in enumerate(zip(bounds, outputs)):
            if o.shape[0] != b + 1:
                raise ValueError(f"stage {s}: output table needs {b + 1} rows, got {o.shape[0]}")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "budget", budget)
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
    ascending list of action ids; transitions[s][state] maps action
    positions to next-stage states (absent for the last stage);
    outputs[s][state] is an (n_actions, r_s) table of stage outputs.
    start_states restricts where trajectories may begin.  The fields may
    be plain (JSON) lists: counts, states and action ids must be integers
    (see `integers`), and are stored as ints and int arrays, the outputs
    as float arrays (see `reals`), all of them copies that the system owns.

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
        n_states = tuple(integers(self.n_states, "n_states").tolist())
        m = len(n_states)
        if m == 0:
            raise ValueError("system needs at least one stage")
        stages = {name: entries(getattr(self, name), name, m - (name == "transitions"))
                  for name in ("actions", "outputs", "transitions")}

        def states(name, s):  # (name, entry) of each state of stage s of a table
            return [(f"{name}[{s}][{st}]", v)
                    for st, v in enumerate(entries(stages[name][s], f"{name}[{s}]"))]

        actions, transitions, outputs, padded = [], [], [], []
        for s, n in enumerate(n_states):
            last = s == m - 1
            # copies: `integers` passes an int64 array through, and the spec owns its tables
            acts = tuple(integers(v, at).copy() for at, v in states("actions", s))
            outs = tuple(reals(v, at, 2) for at, v in states("outputs", s))
            nexts = () if last else tuple(integers(v, at).copy()
                                          for at, v in states("transitions", s))
            if n < 1 or len(acts) != n or len(outs) != n or not last and len(nexts) != n:
                raise ValueError(f"stage {s} needs n_states[{s}] = {n} >= 1 entries in each "
                                 f"of its tables")
            r, width = outs[0].shape[1], max(map(len, acts))
            out = np.zeros((n, width, r))
            nxt = np.zeros((n, width), dtype=int)
            pad = np.ones((n, width), dtype=bool)
            for state, a in enumerate(acts):
                if len(a) == 0:
                    raise ValueError(f"empty action set at stage {s}, state {state}")
                if np.any(a[1:] <= a[:-1]):
                    raise ValueError(f"actions[{s}][{state}] must ascend, not {a.tolist()}")
                if outs[state].shape != (len(a), r):
                    raise ValueError(f"outputs must align with actions at stage {s}, "
                                     f"state {state}")
                out[state, :len(a)] = outs[state]
                pad[state, :len(a)] = False
                if not last:
                    if len(nexts[state]) != len(a):
                        raise ValueError("transitions must align with actions")
                    if np.any(nexts[state] < 0) or np.any(nexts[state] >= n_states[s + 1]):
                        raise ValueError(f"transition out of range at stage {s}, state {state}")
                    nxt[state, :len(a)] = nexts[state]
            actions.append(acts)
            outputs.append(outs)
            if not last:
                transitions.append(nexts)
            padded.append((out, nxt, pad))
        starts = tuple(integers(self.start_states, "start_states").tolist())
        if not starts:
            raise ValueError("at least one start state required")
        for st in starts:
            # a negative state would index from the end of stage 0's tables
            if not 0 <= st < n_states[0]:
                raise ValueError(f"start state {st} is not a state of stage 0, "
                                 f"range({n_states[0]})")
        for name, value in (("n_states", n_states), ("actions", tuple(actions)),
                            ("transitions", tuple(transitions)), ("outputs", tuple(outputs)),
                            ("start_states", starts), ("_padded", tuple(padded))):
            object.__setattr__(self, name, value)

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


def integer(value, name):
    """int(value) for an integer, numpy's included; ValueError naming `name`
    and the value for anything else (a bool, or a float such as 2.7, which
    int() would silently truncate)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


def integers(values, name):
    """A 1-d sequence of integers as an int64 array, each entry checked by
    `integer` as name[i]; a 1-d integer array needs no check, and an int64
    one is returned uncopied.  ValueError naming `name` for a value that is
    not a list, a tuple or an array (see `entries`), and for an entry
    beyond int64."""
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind == "i":
        return values.astype(np.int64, copy=False)
    values = entries(values.tolist() if isinstance(values, np.ndarray) else values, name)
    try:
        return np.array([integer(v, f"{name}[{i}]") for i, v in enumerate(values)],
                        dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{name} has an entry beyond the int64 range") from None


def reals(value, name, ndim=1):
    """`value` as an owned, read-only float array, copied in its memory
    layout (order "K": a transposed matrix stays F-ordered), with leading
    unit dimensions added up to `ndim` as np.atleast_2d adds them.
    ValueError naming `name`, and the first bad entry where there is one,
    for anything else: a scalar, a ragged list, more than `ndim`
    dimensions, no entries, an entry that is not a real number (a boolean,
    a string, None, a dict), NaN and Inf."""
    try:
        raw = np.asarray(value)
    except ValueError:  # a ragged nest of lists
        raw = np.empty(0)
    if not 1 <= raw.ndim <= ndim or raw.size == 0:
        what = "matrix of real numbers (a list of equal-length rows)" if ndim == 2 else (
            "list of real numbers")
        shown = value.tolist() if isinstance(value, np.ndarray) else value
        raise ValueError(f"{name} must be a {what}, not {reprlib.repr(shown)}")
    # an array of booleans, objects or strings is checked entry by entry, and
    # so is a list of numbers with a boolean among them: numpy reads True as
    # 1, so only a list with an entry that reads 0 or 1 is searched for one
    checked = raw.dtype.kind not in "iuf"
    if not checked and not isinstance(value, np.ndarray) and ((raw == 0) | (raw == 1)).any():
        types = set(map(type, np.array(value, dtype=object).flat))
        checked = not types.isdisjoint((bool, np.bool_))
    if checked:
        objects = raw if raw.dtype.kind == "O" else np.array(value, dtype=object)
        for index, v in zip(np.ndindex(raw.shape), objects.ravel().tolist()):
            if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real):
                raise ValueError(f"{name}{_at(index)} must be a real number, not {v!r}")
    out = np.array(raw, dtype=float, order="K", ndmin=ndim)
    finite = np.isfinite(out)
    if not finite.all():
        index = np.unravel_index(finite.argmin(), out.shape)  # the first in C order
        raise ValueError(f"{name}{_at(index[ndim - raw.ndim:])} must be finite, "
                         f"not {out[index]}")
    out.flags.writeable = False
    return out


def entries(value, name, count=None):
    """The entries of a list, a tuple or an array as a tuple, `count` of them
    if given; ValueError naming `name` otherwise."""
    if not isinstance(value, (list, tuple)) and getattr(value, "ndim", 0) == 0:
        raise ValueError(f"{name} must be a list, not {reprlib.repr(value)}")
    if count is not None and len(value) != count:
        raise ValueError(f"{name} must have {count} entries, not {len(value)}")
    return tuple(value)


def _at(index):
    return "".join(f"[{i}]" for i in index)


def _check_query(x, n_rows):
    x = np.asarray(x, dtype=float)
    if x.shape != (n_rows,):
        raise ValueError(f"query dimension {x.shape} does not match row count {n_rows}")
    return x


def _named(name, fn, *args):
    """fn(*args), whose ValueError is raised again with `name`, the spec
    field that it concerns, in front."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _norm_bound(compute, name):
    """compute(), a norm bound that squares entries of `name`, as a float
    computed with floating-point overflow ignored; ValueError naming
    `name` where it is not finite: entries near 1e200 pass `reals`, but
    their squares overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        bound = float(compute())
    if not math.isfinite(bound):
        raise ValueError(f"{name} has entries too large for a finite norm bound ({bound})")
    return bound


def _check_direction(direction):
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")


# ---------------------------------------------------------------------------
# oracle kinds

class DenseMatrixOracle:
    """Explicit K x L matrix; columns indexed 0..L-1.  An optional offset
    (one entry per column) makes column j score <x, column_j> + offset[j]:
    the hit's value includes the offset, its column does not.  Matrix and
    offset go through `reals`, so they are finite read-only copies taken
    here, in the caller's layout.  A query must be finite too: a non-finite
    query entry makes every column's score non-finite, so the hit's value
    tells.  A hit's column and column(key) are read-only views of the
    matrix."""

    def __init__(self, matrix, offset=None):
        self.matrix = reals(matrix, "matrix", 2)
        self.n_rows = self.matrix.shape[0]
        self.offset = None if offset is None else reals(offset, "offset")
        if self.offset is not None and self.offset.shape != (self.matrix.shape[1],):
            raise ValueError(f"offset has shape {self.offset.shape}, expected one entry "
                             f"per column ({self.matrix.shape[1]})")

    def col_extreme(self, x, direction):
        _check_direction(direction)
        x = _check_query(x, self.n_rows)
        # ndarray.dot: the BLAS product of `x @ matrix` without the matmul dispatch
        try:
            vals = x.dot(self.matrix)
            if self.offset is not None:
                vals += self.offset
        except RuntimeWarning:  # a floating-point flag, when warnings are errors:
            # it may come from a column that is not picked, so only the check below decides
            with np.errstate(over="ignore", invalid="ignore"):
                vals = x.dot(self.matrix)
                if self.offset is not None:
                    vals += self.offset
        j = int(vals.argmax() if direction == "max" else vals.argmin())
        value = float(vals[j])
        if not math.isfinite(value):
            raise ValueError("query has non-finite entries" if not np.isfinite(x).all()
                             else f"column score {value} overflows")
        return ColumnHit((j,), self.matrix[:, j], value)

    def count_columns(self):
        return self.matrix.shape[1]

    def column(self, key):
        n = self.matrix.shape[1]
        if len(key) != 1 or not 0 <= integer(key[0], "column index") < n:
            raise ValueError(f"column key {tuple(key)} is not one index in range({n})")
        return self.matrix[:, key[0]]

    def column_norm_bound(self):
        return _norm_bound(lambda: np.linalg.norm(self.matrix, axis=0).max(), "the matrix")


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
        self._setup(spec, _KnapsackShape(spec))

    def _setup(self, spec, shape):
        """Build the tables of `spec`, taking those that depend only on its
        bounds, costs, budget and block dims from `shape`."""
        self.spec, self._shape = spec, shape
        self.n_rows = spec.n_rows
        self._action_slices, self._rows = shape.action_slices, shape.rows
        self._last_cap, self._first_left = shape.last_cap, shape.first_left
        # x @ _stack = (outputs[s] @ x_s for every stage s), concatenated
        stack = np.zeros((self.n_rows, shape.n_actions))
        for s, o in enumerate(spec.outputs):
            stack[shape.row_slices[s], self._action_slices[s]] = o.T
        self._stack = stack
        self._flat = np.concatenate([o.ravel() for o in spec.outputs])
        # middle stages: _middle[s] = (row, tables).  A query's class at stage s
        # is the sign of x[row] times the direction's (+1 for "max"), and
        # tables[class] = (gather, rows, actions) over the class's ascending
        # candidate actions: gather = full[:, actions] for the stage's budget
        # table `full` (see _KnapsackShape), and rows[y] + j is entry (y, j)
        # of the flattened (H+1, len(actions)) table
        self._middle = {}
        for s in range(1, spec.horizon - 1):
            full, tables = shape.full[spec.bounds[s], spec.costs[s]], {}
            for classes, actions in _record_classes(spec.outputs[s]):
                tables.update(dict.fromkeys(classes, (
                    full.take(actions, axis=1), shape.row_table(len(actions)), actions)))
            self._middle[s] = shape.row_slices[s].start, tables

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
        values = x.dot(self._stack)
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
        return self._flat.take([start + stride * actions[stage]
                                for start, stride, stage in self._rows])

    def count_columns(self):
        return self._shape.columns

    def column(self, action_sequence):
        spec = self.spec
        actions = [integer(a, f"action[{s}]") for s, a in enumerate(action_sequence)]
        if len(actions) != spec.horizon or not all(
                0 <= a <= b for a, b in zip(actions, spec.bounds)):
            raise ValueError(f"action sequence {tuple(action_sequence)} is not within the "
                             f"stage bounds {spec.bounds}")
        if sum(a * h for a, h in zip(actions, spec.costs)) > spec.budget:
            raise ValueError(f"action sequence {tuple(action_sequence)} costs more than "
                             f"the budget {spec.budget}")
        return self._column(actions)

    def column_norm_bound(self):
        # sqrt(sum_s max_a ||f_s(a)||^2) upper-bounds every column norm; each
        # row norm is np.linalg.norm(o, axis=1)'s own formula, without its wrapper
        return _norm_bound(lambda: np.sqrt(sum(
            (np.sqrt(np.add.reduce(o * o, axis=1)) ** 2).max() for o in self.spec.outputs
        )), "outputs")


class _KnapsackShape:
    """The tables of a KnapsackOracle that depend only on its spec's bounds,
    costs, budget and block dims, all read-only, and its column count, so
    that oracles of specs that agree in these share them (see
    `_knapsack_oracles`)."""

    def __init__(self, spec):
        H, m = spec.budget, spec.horizon
        dims, bounds, costs = spec.block_dims, spec.bounds, spec.costs
        self.bounds, self.costs, self.budget = bounds, costs, H
        row_off = np.cumsum((0,) + dims).tolist()
        act_off = np.cumsum((0,) + tuple(b + 1 for b in bounds)).tolist()
        self.n_actions = act_off[-1]
        self.row_slices = tuple(slice(row_off[s], row_off[s + 1]) for s in range(m))
        self.action_slices = tuple(slice(act_off[s], act_off[s + 1]) for s in range(m))
        # row i of the column of actions a is _flat[start + stride * a[stage]]
        # for (start, stride, stage) = rows[i], as Python ints
        rows, start = [], 0
        for s, (b, r) in enumerate(zip(bounds, dims)):
            rows += [(start + i, r, s) for i in range(r)]
            start += (b + 1) * r
        self.rows = tuple(rows)
        # last stage: the largest affordable action from each budget 0..H
        self.last_cap = _frozen(np.minimum(bounds[-1], np.arange(H + 1) // costs[-1]))
        # first stage: the budget H - a*h_0 left by each affordable action a
        self.first_left = _frozen(H - costs[0] * np.arange(min(bounds[0], H // costs[0]) + 1))
        # middle stages of bound b and cost h: full[b, h][y, a] indexes a
        # continuation padded in front by one infeasible entry, 1 + the budget
        # y - a*h left, or 0 where that is negative
        self.full = {}
        for b, h in set(zip(bounds[1:m - 1], costs[1:m - 1])):
            left = np.subtract.outer(np.arange(1, H + 2), h * np.arange(b + 1))
            self.full[b, h] = _frozen(np.maximum(left, 0, out=left))
        self._budgets, self._row_tables = np.arange(H + 1), {}

    @functools.cached_property
    def columns(self):
        """The column count, an exact big integer, counted at the first read."""
        H = self.budget
        counts = [1] * (H + 1)  # exact big integers: completions from each budget
        for b, h in zip(reversed(self.bounds), reversed(self.costs)):
            window = (b + 1) * h
            # prefix sums along each residue class of the budget mod h; the
            # count from y sums counts[y - a*h] over a = 0..min(b, y // h)
            prefix = counts[:]
            for r in range(min(h, H + 1)):
                prefix[r::h] = accumulate(counts[r::h])
            counts = prefix[:window] + list(map(operator.sub, prefix[window:], prefix))
        return counts[H]

    def row_table(self, n):
        """arange(H + 1) * n: the row starts of a flattened (H + 1, n) table."""
        table = self._row_tables.get(n)
        if table is None:
            table = self._row_tables[n] = _frozen(self._budgets * n)
        return table


def _knapsack_oracles(specs):
    """One oracle per spec, each as KnapsackOracle(spec) builds it; specs
    that agree in bounds, costs, budget and block dims share the tables of
    one _KnapsackShape, built once here."""
    shapes, oracles = {}, []
    for spec in specs:
        key = spec.bounds, spec.costs, spec.budget, spec.block_dims
        if key not in shapes:
            shapes[key] = _KnapsackShape(spec)
        oracle = object.__new__(KnapsackOracle)
        oracle._setup(spec, shapes[key])
        oracles.append(oracle)
    return oracles


def _frozen(array):
    array.flags.writeable = False
    return array


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
    keep = np.empty(len(g), dtype=bool)
    keep[0] = True
    np.greater(g[1:], np.maximum.accumulate(g)[:-1], out=keep[1:])
    return keep.nonzero()[0]


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

    def column(self, key):
        """The column of `key`, a `ColumnHit.key`: (start state, action sequence)."""
        try:
            start, actions = key
            actions = tuple(actions)
        except (TypeError, ValueError):
            raise ValueError(f"column key {key!r} is not a (start state, action sequence) "
                             f"pair") from None
        try:  # a float such as 2.0 would compare equal to a start state
            known = integer(start, "start state") in self.system.start_states
        except ValueError:
            known = False
        if not known:
            raise ValueError(f"start state {start!r} is not one of {self.system.start_states}")
        return _column_from_trajectory(self.system, int(start), [
            integer(a, f"action[{s}]") for s, a in enumerate(actions)])

    def column_norm_bound(self):
        dp = self.system
        total = 0.0
        for s in range(dp.horizon):
            best = 0.0
            for st in range(dp.n_states[s]):
                best = max(best, float((np.linalg.norm(dp.outputs[s][st], axis=1) ** 2).max()))
            total += best
        return float(np.sqrt(total))


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
    xs = np.split(_check_query(x, dp.n_rows), np.cumsum(dp.block_dims[:-1]))
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


def enumerate_columns(oracle):
    """Materialize all columns: (list of column keys, K x L matrix).

    The keys are those of `ColumnHit.key`: the action sequence, paired
    with the start state for a DP.  A knapsack is walked as its DP
    (`dp_from_knapsack`), whose one start state the keys leave out.
    Intended for desk-scale instances and brute-force checks; raises,
    before walking any column, when the column count exceeds 10^6.
    """
    count = oracle.count_columns()
    if count > 10 ** 6:
        raise ValueError(f"column count {count} exceeds enumeration limit 1000000")
    if isinstance(oracle, DenseMatrixOracle):
        return [(j,) for j in range(oracle.matrix.shape[1])], oracle.matrix.copy()

    knapsack = isinstance(oracle, KnapsackOracle)
    dp = dp_from_knapsack(oracle.spec) if knapsack else oracle.system
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
    if knapsack:  # one start state, the budget: the key is the action sequence
        seqs = [actions for _, actions in seqs]
    return seqs, np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# loading

def matrix_side(obj, name):
    """Oracle for the matrix `name` of a spec: knapsack if a dict with a
    budget, else dense; a knapsack's errors are prefixed with `name`."""
    if isinstance(obj, dict) and "budget" in obj:
        return _named(name, lambda: KnapsackOracle(knapsack_from_json(obj)))
    return DenseMatrixOracle(reals(obj, name, 2))


def knapsack_from_json(obj):
    """KnapsackSpec from a parsed JSON object {"bounds", "costs", "budget",
    "outputs"}; the spec converts and checks the fields."""
    return KnapsackSpec(bounds=obj["bounds"], costs=obj["costs"], budget=obj["budget"],
                        outputs=obj["outputs"])
