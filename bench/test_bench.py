"""Self-tests of the benchmark: op streams, oracle, digest and span sums.

    python3 -m pytest -q bench/test_bench.py
"""

import math
import time

import pytest

import gen
import run
from ops import Runner, score
from spans import NAMES, ROOT, Tracer

MODULES = run.load_maflow()


def test_one_seed_gives_one_op_list():
    for workload in gen.WORKLOADS:
        first = [gen.round_ops(workload, 5, r) for r in range(3)]
        again = [gen.round_ops(workload, 5, r) for r in range(3)]
        other = [gen.round_ops(workload, 6, r) for r in range(3)]
        assert first == again
        assert first != other


@pytest.mark.parametrize("expected_exit, correct", [(1, True), (0, False)])
def test_oracle_scores_an_injected_failure(expected_exit, correct):
    op = {"kind": "cli", "points": 10, "expect": {"exit": expected_exit, "n_checks": 15},
          "argv": ["selftest", "--inject-failure", "--samples", "10", "--json"]}
    latency, code, output, error = Runner(MODULES).run(op, time.perf_counter)
    assert code == 1 and error is None
    assert (score(op, code, output, error) == []) is correct


def test_oracle_flags_a_wrong_check_verdict():
    op = gen.round_ops("planar-1k", 1, 0, samples=10)[0]
    assert op["argv"][0] == "triple"
    latency, code, output, error = Runner(MODULES).run(op, time.perf_counter)
    assert score(op, code, output, error) == []
    wrong = dict(op, expect=dict(op["expect"], all_checks=False))
    assert score(wrong, code, output, error)


def test_self_times_sum_to_the_cli_span():
    tracer = Tracer()
    runner = Runner(MODULES)
    ops = gen.round_ops("cold-mix", 2, 3, samples=5)
    run.OUT.mkdir(exist_ok=True)
    for op in ops:
        op = run.prepare(op, str(run.OUT / "lattice-selftest.csv"))
        tracer.run_op(op["id"], lambda: runner.run(op, time.perf_counter))
    assert not tracer.unresolved
    root, cli = NAMES.index(ROOT), NAMES.index("cli")
    for op in ops:
        calls, self_s = tracer.stats[op["id"]]
        slots = [i for i, s in enumerate(tracer.spans) if s[4] == op["id"]]
        root_slot = next(i for i in slots if tracer.spans[i][0] == root)
        cli_spans = [tracer.spans[i] for i in slots
                     if tracer.spans[i][0] == cli and tracer.spans[i][3] == root_slot]
        assert len(cli_spans) == 1 and calls[cli] == 1
        duration = cli_spans[0][2] - cli_spans[0][1]
        layers = sum(s for i, s in enumerate(self_s) if i != root)
        assert math.isclose(layers, duration, rel_tol=1e-9, abs_tol=1e-12)


def test_tracer_restores_every_binding():
    from maflow import catalog, cli
    from maflow.fieldexpr import ScalarField, parse

    before = (cli.parse_field, catalog.parse_field, parse.parse_field, ScalarField.eval)
    tracer = Tracer()
    tracer.install()
    assert cli.parse_field is not before[0] and catalog.parse_field is not before[1]
    tracer.uninstall()
    assert (cli.parse_field, catalog.parse_field, parse.parse_field, ScalarField.eval) == before


def test_two_runs_on_one_seed_agree(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "cold-mix", {"chunk": 1, "fixed_rounds": 1})
    monkeypatch.chdir(run.ROOT)
    run.OUT.mkdir(exist_ok=True)
    results = []
    for _ in range(2):
        bench = run.Run("cold-mix", 9, 0.0, True, MODULES)
        bench.measure()
        calls = bench.per_layer()
        results.append((bench.digest.hexdigest(), bench.fixed_ids,
                        {k: v["value"] for k, v in calls.items() if k.endswith(".calls")}))
        assert not bench.failed
    assert results[0] == results[1]
