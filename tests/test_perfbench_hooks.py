"""The benchmark tracer's hook names still exist in the program.

``perfbench/spans.py`` times layers by replacing functions at the module
or class attribute their callers look up.  A rename in ``src/`` makes
:meth:`Tracer.install` fail with ``AttributeError``; this test catches
that in the ordinary test run, and checks that :meth:`Tracer.uninstall`
puts every original object back.
"""

import importlib
from pathlib import Path

from repro.exec import engine
from repro.service import service

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: the hooks the engine and the service keep by name for the tracer
NAMED_HOOKS = {
    (engine, "run_units_inprocess"),
    (engine, "run_pair_job"),
    (engine, "calibrate_facet"),
    (engine, "run_phase1"),
    (engine, "write_campaign_csvs"),
    (engine.CampaignExecutor, "prepare"),
    (engine.CampaignExecutor, "finish"),
    (service, "run_units_inprocess"),
    (service, "run_pair_job"),
}


def test_install_wraps_and_uninstall_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        for owner, name, original in patched:
            assert getattr(owner, name) is not original, (owner, name)
    finally:
        tracer.uninstall()
    assert NAMED_HOOKS <= {(owner, name) for owner, name, _ in patched}
    for owner, name, original in patched:
        assert getattr(owner, name) is original, (owner, name)
