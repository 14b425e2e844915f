"""The benchmark's output checks and trace hooks, run once per workload.

One traced iteration of instance 0 of each ``phasebench`` workload, as
``phasebench/run.py --trace 1`` runs it, so that a change which breaks the
checks or a name the tracer wraps fails here and not only in a benchmark run.
"""

from types import SimpleNamespace

import pytest

from phasestab import cli
from phasestab.config import save_config

from phasebench import spans, workloads


@pytest.mark.parametrize("workload", ["default", "thin_interface", "rho_ensemble"])
def test_traced_iteration_passes_the_checks(workload, tmp_path):
    cfg_path = tmp_path / "config.json"
    save_config(workloads.config_for(workload, 0), cfg_path)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    tracer = spans.Tracer()
    api = SimpleNamespace(
        solve_care=tracer.wrap(workloads.solve_care), simulate=tracer.wrap(workloads.simulate)
    )
    with tracer.patched(cli, spans.TRACED):
        runner = workloads.Runner(workload, 0, cfg_path)
        raw = runner.work(run_dir, api)
    assert runner.ref is not None
    result = runner.check(raw, run_dir)
    assert result.outcomes
    assert [(o.op, o.failure) for o in result.outcomes if o.failure] == []
    assert tracer.spans and all(s["end"] is not None for s in tracer.spans)
    simulate_spans = [s for s in tracer.spans if s["name"] == "sim.simulate"]
    assert simulate_spans and all(s["steps"] > 0 and s["rows"] > 0 for s in simulate_spans)
