"""Smoke tests of the benchmark itself: python3 -m pytest perfbench"""

import dataclasses
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def tiny(name, seed=None):
    wl = workloads.WORKLOADS[name](tiny=True)
    return wl, wl.build(run.DEFAULT_SEEDS[name] if seed is None else seed)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [None, 99])
def test_workload_runs_tiny(name, seed):
    wl, pool = tiny(name, seed)
    samples, outcomes, refs = worker.closed_loop(wl, pool, seconds=0.0)
    assert len(samples) == len(outcomes) == len(refs) == 1
    assert all(s > 0 for s in samples)
    assert outcomes[0].failures == []
    assert all(o.gap_bound > 0 and o.protocol_len > 0 and o.support > 0 for o in outcomes)


PERTURBATIONS = {
    "blotto-large": lambda r: dataclasses.replace(r, dims=(r.dims[0] - 1, r.dims[1])),
    "dense-games": lambda r: dataclasses.replace(r, value_estimate=r.value_estimate + 1e-3),
    "nash-knapsack": lambda r: dataclasses.replace(
        r, eta_atoms={k: 0.9 * w for k, w in r.eta_atoms.items()}),
}


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_perturbed_result_counts_as_failed(name):
    wl, pool = tiny(name)
    result = wl.solve(pool[0])
    assert wl.check(pool[0], result).failures == []
    assert wl.check(pool[0], PERTURBATIONS[name](result)).failures


def test_understated_gap_bound_counts_as_failed():
    wl, pool = tiny("dense-games")
    sol = wl.solve(pool[0])
    low = dataclasses.replace(sol, gap_bound=sol.gap_exact - 1e-6)
    assert any("exceeds bound" in f for f in wl.check(pool[0], low).failures)


def test_raising_solve_counts_as_failed(monkeypatch):
    wl, pool = tiny("dense-games")

    def broken(_):
        raise FloatingPointError("injected")

    monkeypatch.setattr(wl, "solve", broken)
    samples, outcomes, _ = worker.closed_loop(wl, pool, seconds=0.0)
    assert len(samples) == 1 and outcomes[0].failures


@pytest.mark.parametrize("name", ["dense-games", "nash-knapsack"])
def test_spans_nest(name):
    from lmodecomp import oracles, solvers

    original = vars(oracles.DenseMatrixOracle)["col_extreme"], solvers.optimize_certificate
    wl, pool = tiny(name)
    tracer = Tracer()
    tracer.install_layers()
    try:
        tracer.solve(0, wl.solve, pool[0])
    finally:
        tracer.uninstall()
    assert (vars(oracles.DenseMatrixOracle)["col_extreme"], solvers.optimize_certificate) == original

    spans = tracer.spans
    names = {s[0] for s in spans}
    assert {"solve", "solvers.ellipsoid_run", "solvers.optimize_certificate",
            "oracles.col_extreme"} <= names
    child_time = [0.0] * len(spans)
    for i, (span_name, start, end, parent, solve_id) in enumerate(spans):
        assert end is not None and end >= start and solve_id == 0
        if span_name == "solve":
            assert parent is None
            continue
        assert parent is not None and parent < i
        _, p_start, p_end, _, _ = spans[parent]
        assert p_start <= start and end <= p_end
        child_time[parent] += end - start
    for (_, start, end, _, _), children in zip(spans, child_time):
        assert children <= end - start
    assert all(rec["self_s"] >= 0.0 for rec in tracer.summary().values())


def test_tail_percentile():
    assert run.tail([float(i) for i in range(10)]) is None
    assert run.tail([float(i) for i in range(11)]) == (0.0, 100.0 / 11)
    xs = [float(i) for i in range(1, 21)]
    value, pct = run.tail(xs)
    assert value == 10.0 and pct == 50.0
    assert sum(x > value for x in xs) == 10


def test_refuses_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "dense-games", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
