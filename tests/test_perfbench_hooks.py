"""The per-layer tracer in perfbench/ must find every name it hooks.

perfbench/spans.py wraps names in dickeqb's module namespaces (for example
``dickeqb.dynamics.CsrExpm.apply``).  A hook whose target is renamed or
moved is only logged and its metrics read null, so a refactor would
silently blank them; these tests fail instead.
"""

import importlib.util
from pathlib import Path

import pytest

from dickeqb.dynamics import PropagationConfig, propagate
from dickeqb.model import ModelParams

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module_name, attr, span", spans.HOOKS,
                         ids=[span for _, _, span in spans.HOOKS])
def test_hook_target_resolves(module_name, attr, span):
    tracer = spans.Tracer()
    try:
        tracer.install([(module_name, attr, span)])
    finally:
        tracer.uninstall()
    assert tracer.missing == []


def test_kernel_hook_sees_every_exponential():
    # The stepper must look CsrExpm up when it is built, so the hooked
    # class is the one whose apply runs.
    p = ModelParams(N=1, g=0.5, Omega=1.0, N_ph=2)
    cfg = PropagationConfig(t_max=0.2, dt=0.1, sample_stride=1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traj = propagate(p, cfg)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.metrics()["kernels.exp_calls"] == traj.steps > 0
