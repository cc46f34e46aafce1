"""In-memory span tracing around the lmodecomp layer boundaries.

Spans are recorded by replacing a function where its caller looks it up
(a module global or a class attribute) with a wrapper that opens a span,
calls the original and closes the span.  Each span is a list
``[name, start, end, parent_index, solve_id]``; spans stay in memory and
are written out once, after the traced pass.  Tracing is installed only
for the traced pass, so timed runs execute the unmodified functions.
"""

import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.solve_id = None
        self.distinct_hits = set()
        self._stack = []
        self._patches = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.solve_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def solve(self, solve_id, fn, *args, **kwargs):
        """Call fn inside a root span "solve" tagged with solve_id."""
        self.solve_id = solve_id
        idx = self._open("solve")
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)
            self.solve_id = None

    def wrap(self, owner, attr, name, on_result=None):
        """Trace owner.attr under `name`; owner is a module or a class that
        defines attr itself.  on_result(args, result) sees every return."""
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(args, out)
            return out

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, raw))

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _record_hit(self, args, hit):
        self.distinct_hits.add((self.solve_id, id(args[0]), hit.action_sequence))

    def install_layers(self):
        """Wrap the public entry points of every lmodecomp layer."""
        from lmodecomp import blotto, certificates, oracles, saddle, solvers, vi

        for cls in (oracles.DenseMatrixOracle, oracles.KnapsackOracle, oracles.DpOracle):
            self.wrap(cls, "col_extreme", "oracles.col_extreme", self._record_hit)
            self.wrap(cls, "count_columns", "oracles.count_columns")
        self.wrap(certificates.ExecutionProtocol, "from_lists", "certificates.from_lists")
        for name in ("optimize_certificate", "ellipsoid_cut"):
            self.wrap(solvers, name, f"solvers.{name}")
        for module in (solvers, vi):
            self.wrap(module, "residual_ball_product", "certificates.residual_ball_product")
        for module in (saddle, vi):
            self.wrap(module, "ellipsoid_run", "solvers.ellipsoid_run")
        self.wrap(saddle, "primal_value_grad", "saddle.primal_value_grad")
        for cls in (vi.DenseSkewSystem, vi.NashSkewSystem):
            self.wrap(cls, "eta_argmin", "vi.eta_argmin")
        self.wrap(blotto, "build_blotto", "blotto.build_blotto")

    def summary(self):
        """Per span name: calls, busy seconds and self seconds.  Self time
        is a span's duration minus the durations of its direct children,
        which run one after another inside it."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["busy_s"] += end - start
            rec["self_s"] += end - start - child_time[i]
        return out

    def dump(self, path):
        with open(path, "w") as fp:
            for name, start, end, parent, solve_id in self.spans:
                fp.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "solve": solve_id}) + "\n")
