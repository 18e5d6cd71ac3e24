"""Content keys are canonical: invariant under process history.

The journal's campaign fingerprint and the calibration-cache key are
digests of values, not of object graphs (:mod:`repro.core.fingerprint`).
The GPU specs are process-wide singletons whose lazily cached lookup
memos fill up once any campaign runs; a key that saw those memos would
differ between a cold and a warm process, and a journaled campaign could
not be resumed in the process that recorded it — which is exactly what
the campaign service does on restart.
"""

from functools import cached_property

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import make_machine, run_campaign
from repro.core import config as config_module
from repro.core.calibcache import CALIB_CACHE_VERSION, calibration_fingerprint
from repro.core.config import LatestConfig
from repro.core.journal import JOURNAL_VERSION, campaign_fingerprint
from repro.errors import CampaignInterrupted
from repro.exec.jobs import SupervisionPolicy
from repro.gpusim.spec import GPU_MODELS, GpuSpec
from tests.conftest import fast_config
from tests.test_exec_engine import _campaign_fingerprint, _csv_bytes

#: swept values of a small campaign, per model and axis
_LADDERS = {
    "A100": {
        "sm_core": (705.0, 1095.0, 1410.0),
        "memory": (1215.0, 810.0, 405.0),
        "power": (400.0, 330.0, 270.0),
    },
    "GH200": {
        "sm_core": (705.0, 1410.0, 1980.0),
        "memory": (2619.0, 1593.0, 810.0),
        "power": (700.0, 560.0, 450.0),
    },
}

_MODELS = st.sampled_from(sorted(_LADDERS))
_AXES = st.sampled_from(["sm_core", "memory", "power"])


def _config(model, axis, **overrides):
    return fast_config(_LADDERS[model][axis], axis=axis, **overrides)


def _cold_specs():
    """Drop every lazily cached GPU-spec property, as in a fresh process."""
    lazy = [
        name
        for name, attr in vars(GpuSpec).items()
        if isinstance(attr, cached_property)
    ]
    for spec in GPU_MODELS.values():
        for name in lazy:
            spec.__dict__.pop(name, None)


def _keys(model, seed, axis):
    config = _config(model, axis)
    blueprint = make_machine(model, seed=seed).blueprint
    return (
        campaign_fingerprint(config, blueprint),
        calibration_fingerprint(
            config, blueprint, 0, None, blueprint.start_time
        ),
    )


def test_content_keys_are_pinned():
    """Literal keys of one fixed A100 campaign.

    Journals resume and calibration-cache entries hit only while these
    digests hold; a config-field edit that moves either one orphans every
    journal and cache written before it.  Change the literals only
    together with ``JOURNAL_VERSION`` / ``CALIB_CACHE_VERSION``.
    """
    config = LatestConfig(frequencies=(705.0, 1095.0, 1410.0))
    blueprint = make_machine("A100", seed=3).blueprint
    assert campaign_fingerprint(config, blueprint) == (
        "98af907ab5629b1705bb6ff2b343597a3bb986155538a2e8dff8c3b4c80628f0"
    )
    assert calibration_fingerprint(
        config, blueprint, 0, None, blueprint.start_time
    ) == "e335f5c309ac24c6388daf787ee4618dacaaba45f5addb684d1617827f0198b1"


#: the methodology's fixed internals (module constants of
#: :mod:`repro.core.config`, not config fields) at the versions they
#: were keyed under
_PINNED_CONSTANTS = {
    "SWITCH_WINDOW_FACTOR": 10.0,
    "PROBE_PAIR_COUNT": 3,
    "WINDOW_GROWTH_FACTOR": 10.0,
    "MAX_WINDOW_RETRIES": 2,
    "MAX_SETTLE_S": 3.0,
    "CONFIDENCE": 0.95,
    "DETECTION_SIGMAS": 2.0,
    "TOLERANCE_REL": 0.02,
    "MIN_CONFIRM_TAIL": 30,
    "MAX_WORKLOAD_GROWTH": 2,
    "WORKLOAD_GROWTH_FACTOR": 2.0,
    "PTP_ROUNDS": 16,
    "THROTTLE_CHECK_EVERY": 5,
    "THROTTLE_BACKOFF_S": 10.0,
    "THROTTLE_DISCARD_COUNT": 5,
    "MAX_CONSECUTIVE_FAILURES": 12,
}


def test_fixed_internals_are_pinned_with_the_key_versions():
    """The content keys hash config fields, not these constants.

    Editing a constant changes results without moving any key, so a
    journal or cache entry written before the edit would resume or hit
    with stale results.  Change a value here only together with bumping
    ``JOURNAL_VERSION`` and ``CALIB_CACHE_VERSION``.
    """
    current = {name: getattr(config_module, name) for name in _PINNED_CONSTANTS}
    versions = (JOURNAL_VERSION, CALIB_CACHE_VERSION)
    assert (current, versions) == (_PINNED_CONSTANTS, (3, 3)), (
        "a fixed methodology constant or a key version changed: bump "
        "JOURNAL_VERSION and CALIB_CACHE_VERSION, then update this pin"
    )
    constants = {name for name in vars(config_module) if name.isupper()}
    assert constants == set(_PINNED_CONSTANTS), "pin every new constant"


@given(
    model=_MODELS,
    seed=st.integers(0, 2**16),
    axis=_AXES,
    prior=st.lists(
        st.tuples(_MODELS, _AXES),
        min_size=1,
        max_size=2,
    ),
)
@example(model="A100", seed=3, axis="sm_core", prior=[("A100", "sm_core")])
@settings(max_examples=6, deadline=None)
def test_keys_invariant_under_prior_campaigns(model, seed, axis, prior):
    _cold_specs()
    before = _keys(model, seed, axis)
    for prior_model, prior_axis in prior:
        run_campaign(
            make_machine(prior_model, seed=seed + 1),
            _config(prior_model, prior_axis, min_measurements=2),
        )
    assert _keys(model, seed, axis) == before


@pytest.mark.parametrize("model", sorted(_LADDERS))
def test_in_process_resume_after_warming_memos(model, tmp_path):
    # Record the journal from a cold process, run other campaigns in the
    # same process (warming every spec memo), then resume right here.
    _cold_specs()
    journal_dir = str(tmp_path / "journal")
    with pytest.raises(CampaignInterrupted):
        run_campaign(
            make_machine(model, seed=3),
            _config(model, "sm_core"),
            workers=1,
            journal=journal_dir,
            policy=SupervisionPolicy(inject_faults="interrupt@2"),
        )
    golden = run_campaign(
        make_machine(model, seed=3),
        _config(model, "sm_core"),
        workers=1,
        output_dir=str(tmp_path / "gold"),
    )
    resumed = run_campaign(
        make_machine(model, seed=3),
        _config(model, "sm_core"),
        workers=1,
        journal=journal_dir,
        resume=True,
        output_dir=str(tmp_path / "res"),
    )
    assert _campaign_fingerprint(resumed) == _campaign_fingerprint(golden)
    assert resumed.wall_virtual_s == golden.wall_virtual_s
    assert _csv_bytes(tmp_path / "res") == _csv_bytes(tmp_path / "gold")
