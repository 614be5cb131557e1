"""The benchmark's traced run must keep working on the current engine:
every function it traces still resolves, and its call-site wrappers still
count what cProfile counts.  A rename of a traced function, or a shared
wrapper hiding one, fails here and not only in the benchmark."""

import importlib
import sys
from pathlib import Path

import pytest

from persplit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """perfbench's tracer, workloads and run modules, imported for this test."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("tracer", "workloads", "run")
    saved = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    yield tuple(importlib.import_module(name) for name in names)
    for name in names:
        sys.modules.pop(name, None)
    sys.modules.update(saved)


def test_traced_ops_match_cprofile(bench, tmp_path):
    tracer_mod, workloads, run = bench
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for name, module_name, attr in tracer_mod.TARGETS:
            module = importlib.import_module(module_name)
            owner, _, key = attr.rpartition(".")
            target = (getattr(module, owner).__dict__[key] if owner
                      else getattr(module, key))
            # install() put a wrapper of the original in its place
            assert getattr(target, "__wrapped__", None) in tracer.originals[name], attr
        for workload in ("split-sparse", "verify-dense"):
            w = workloads.WORKLOADS[workload]
            case = workloads.make_one(w, 5, "selfcheck", tmp_path)
            outcome = []

            def op(prof):
                result, record = run.run_op(cli, case.argv, tracer, prof)
                outcome.append(result)
                return record

            record, problems = tracer_mod.profiled_op(tracer, op)
            assert problems == [], (workload, problems)
            assert run.check_output(w, case, outcome[0]) is None
            calls = tracer_mod.span_totals([record])
            # equal counts of zero calls would show nothing
            assert all(calls[span][0] for span in tracer_mod.PROFILED), workload
            if workload == "verify-dense":
                assert "--pairing" in case.argv and calls["duality.orthogonal"][0]
    finally:
        tracer.uninstall()
    assert not tracer.bindings
