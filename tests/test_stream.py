"""The campaign event stream: ordering contract, sinks, and tiers.

Every execution tier emits the same typed event stream
(:mod:`repro.core.stream`); these tests pin the contract the sinks rely
on.  The headline property (a hypothesis sweep over campaign seeds, on
all three measurement axes): the completion-order terminal pair events
of the process-pool engine and the in-process engine, reordered by flat
grid index, name exactly the grid ``config.facet_plan()`` ×
``config.pairs()`` in order, and carry identical measurement payloads
in both runs.
"""

from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_machine, run_campaign
from repro.core.csvio import (
    CsvStreamSink,
    summary_interrupted,
    write_campaign_csvs,
)
from repro.core.results import ResultAccumulator
from repro.core.stream import (
    CampaignFinished,
    CampaignStarted,
    FacetPrepared,
    PairMeasured,
    PairRetried,
    PairSkipped,
    ProgressSink,
    RecordingSink,
    StreamDispatcher,
)
from repro.errors import CampaignInterrupted, MeasurementError
from tests.conftest import fast_config
from tests.test_exec_engine import _campaign_fingerprint, _csv_bytes

_AXES = {
    "sm_core": dict(frequencies=(705.0, 1095.0, 1410.0)),
    "memory": dict(frequencies=(1215.0, 810.0, 405.0), axis="memory"),
    "power": dict(frequencies=(400.0, 330.0, 270.0), axis="power"),
}


def _axis_config(axis, **overrides):
    kw = dict(_AXES[axis])
    freqs = kw.pop("frequencies")
    kw.update(overrides)
    return fast_config(freqs, **kw)


def _terminal_events(rec: RecordingSink):
    return rec.of_type(PairMeasured, PairSkipped)


def _identity(event):
    """The grid-position identity of a terminal pair event."""
    pair = event.pair
    return (
        event.index,
        pair.init_mhz,
        pair.target_mhz,
        pair.memory_mhz,
        pair.locked_sm_mhz,
        pair.axis,
    )


def _grid_identities(config):
    """The identities the grid ``facet_plan() × pairs()`` must produce."""
    grid = config.memory_frequencies is not None
    pairs = config.pairs()
    return [
        (
            facet_index * len(pairs) + pair_index,
            float(init),
            float(target),
            facet if grid else None,
            None if grid or facet is None else float(facet),
            config.axis,
        )
        for facet_index, facet in enumerate(config.facet_plan())
        for pair_index, (init, target) in enumerate(pairs)
    ]


def _payload(event):
    """Full measurement payload — engine runs must agree bit-for-bit."""
    pair = event.pair
    return _identity(event) + (
        isinstance(event, PairSkipped),
        pair.skipped,
        event.elapsed_virtual_s,
        getattr(event, "replayed", False),
        tuple(
            (m.latency_s, m.ts_acc, m.te_acc, m.n_valid_sm, m.window_iterations)
            for m in pair.measurements
        ),
    )


class TestCompletionOrderReordering:
    """Engine events, sorted by grid index, reproduce the grid order."""

    @pytest.mark.parametrize("axis", sorted(_AXES))
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=2, deadline=None)
    def test_reordered_events_match_serial_grid_order(self, axis, seed):
        cfg = _axis_config(axis)
        engine_rec = RecordingSink()
        run_campaign(
            make_machine("A100", seed=seed),
            cfg,
            workers=2,
            sinks=(engine_rec,),
        )
        inproc_rec = RecordingSink()
        run_campaign(
            make_machine("A100", seed=seed),
            cfg,
            workers=1,
            sinks=(inproc_rec,),
        )

        engine_sorted = sorted(
            _terminal_events(engine_rec), key=lambda event: event.index
        )
        inproc_sorted = sorted(
            _terminal_events(inproc_rec), key=lambda event: event.index
        )
        grid_ids = _grid_identities(cfg)
        assert [_identity(event) for event in engine_sorted] == grid_ids
        assert [_identity(event) for event in inproc_sorted] == grid_ids
        # Both engine runs agree on the full measurement payload.
        assert [_payload(event) for event in engine_sorted] == [
            _payload(event) for event in inproc_sorted
        ]


class TestOrderingContract:
    @pytest.fixture(scope="class")
    def facet_sweep_campaign(self):
        """A two-facet (locked-SM sweep) campaign and its stream."""
        rec = RecordingSink()
        cfg = _axis_config("memory", locked_sm_mhz=(1410.0, 1095.0))
        result = run_campaign(make_machine("A100", seed=31), cfg, sinks=(rec,))
        return rec.events, result

    def test_started_first_finished_last_exactly_once(self, facet_sweep_campaign):
        events, _ = facet_sweep_campaign
        assert isinstance(events[0], CampaignStarted)
        assert isinstance(events[-1], CampaignFinished)
        assert sum(isinstance(e, CampaignStarted) for e in events) == 1
        assert sum(isinstance(e, CampaignFinished) for e in events) == 1

    def test_one_terminal_event_per_grid_index(self, facet_sweep_campaign):
        events, _ = facet_sweep_campaign
        started = events[0]
        terminal = [
            e for e in events if isinstance(e, (PairMeasured, PairSkipped))
        ]
        expected = len(started.facet_plan) * started.n_pairs
        assert sorted(e.index for e in terminal) == list(range(expected))

    def test_facet_prepared_precedes_its_pair_events(self, facet_sweep_campaign):
        events, _ = facet_sweep_campaign
        started = events[0]
        prepared_at = {}
        for pos, event in enumerate(events):
            if isinstance(event, FacetPrepared):
                prepared_at[event.facet_index] = pos
        assert set(prepared_at) == set(range(len(started.facet_plan)))
        for pos, event in enumerate(events):
            if isinstance(event, (PairMeasured, PairSkipped)):
                facet_index = event.index // started.n_pairs
                assert prepared_at[facet_index] < pos

    def test_accumulator_rebuilds_identical_result(
        self, facet_sweep_campaign, tmp_path
    ):
        events, result = facet_sweep_campaign
        acc = ResultAccumulator()
        for event in events:
            acc.on_event(event)
        rebuilt = acc.result()
        assert _campaign_fingerprint(rebuilt) == _campaign_fingerprint(result)
        assert rebuilt.wall_virtual_s == result.wall_virtual_s
        write_campaign_csvs(tmp_path / "direct", result)
        write_campaign_csvs(tmp_path / "rebuilt", rebuilt)
        assert _csv_bytes(tmp_path / "direct") == _csv_bytes(tmp_path / "rebuilt")


class TestDispatcherAndSinks:
    def test_dispatcher_drops_none_and_preserves_order(self):
        log = []

        class Tagged:
            def __init__(self, tag):
                self.tag = tag

            def on_event(self, event):
                log.append((self.tag, event))

        dispatch = StreamDispatcher(Tagged("a"), None, Tagged("b"))
        assert len(dispatch.sinks) == 2
        first, second = CampaignFinished(1.0), CampaignFinished(2.0)
        dispatch.emit_all([first, second])
        assert log == [
            ("a", first), ("b", first), ("a", second), ("b", second)
        ]

    def test_accumulator_requires_complete_stream(self):
        acc = ResultAccumulator()
        with pytest.raises(MeasurementError, match="CampaignStarted"):
            acc.result()

    def test_progress_sink_counts_and_completion_line(self):
        out = StringIO()
        sink = ProgressSink(out=out)
        rec = RecordingSink()
        run_campaign(
            make_machine("A100", seed=5),
            _axis_config("sm_core"),
            sinks=(sink, rec),
        )
        n_pairs = len(rec.of_type(PairMeasured))
        text = out.getvalue()
        assert f"{n_pairs}/{n_pairs} pairs" in text
        assert f"({n_pairs} measured" in text
        assert "done in" in text and text.endswith("virtual s\n")

    def test_progress_sink_reports_retries(self):
        out = StringIO()
        sink = ProgressSink(out=out)
        sink.on_event(PairRetried(indices=(0,), attempt=1, cause="crash"))
        assert "1 retried" in out.getvalue()


class TestCsvStreamSink:
    def test_incremental_files_byte_identical_to_batch_writer(self, tmp_path):
        cfg = _axis_config("sm_core")
        sink = CsvStreamSink(tmp_path / "stream")
        result = run_campaign(make_machine("A100", seed=77), cfg, sinks=(sink,))
        write_campaign_csvs(tmp_path / "batch", result)
        stream_bytes = _csv_bytes(tmp_path / "stream")
        assert stream_bytes == _csv_bytes(tmp_path / "batch")
        assert any(name.startswith("summary_") for name in stream_bytes)

    def test_engine_completion_order_writes_same_bytes(self, tmp_path):
        cfg = _axis_config("memory")
        sink = CsvStreamSink(tmp_path / "stream")
        result = run_campaign(
            make_machine("A100", seed=77), cfg, workers=2, sinks=(sink,)
        )
        write_campaign_csvs(tmp_path / "batch", result)
        assert _csv_bytes(tmp_path / "stream") == _csv_bytes(tmp_path / "batch")

    def test_sinks_do_not_perturb_measurements(self, tmp_path):
        # Emitting events advances no virtual clock and draws no RNG:
        # the stock sinks attached or not, the campaign is the same.
        cfg = _axis_config("sm_core")
        plain = run_campaign(make_machine("A100", seed=77), cfg)
        sinks = (
            ProgressSink(out=StringIO()),
            CsvStreamSink(tmp_path / "stream"),
            RecordingSink(),
        )
        with_sinks = run_campaign(make_machine("A100", seed=77), cfg, sinks=sinks)
        assert _campaign_fingerprint(with_sinks) == _campaign_fingerprint(plain)
        assert with_sinks.wall_virtual_s == plain.wall_virtual_s

    def test_interrupted_campaign_writes_marked_partial_summary(self, tmp_path):
        sink = CsvStreamSink(tmp_path / "stream")
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                make_machine("A100", seed=77),
                _axis_config("sm_core", inject_faults="interrupt@2"),
                workers=1,
                sinks=(sink,),
            )
        names = sorted(p.name for p in (tmp_path / "stream").glob("*.csv"))
        assert len(names) >= 2  # pair CSVs plus the partial summary
        summaries = [n for n in names if n.startswith("summary_")]
        assert len(summaries) == 1
        # The partial summary is explicitly marked: the "# interrupted"
        # footer tells --resume tooling this was a clean interrupt, not
        # a crash mid-summary-write (which leaves no summary at all).
        assert summary_interrupted(tmp_path / "stream" / summaries[0])

    def test_completed_summary_carries_no_interrupt_footer(self, tmp_path):
        sink = CsvStreamSink(tmp_path / "stream")
        run_campaign(
            make_machine("A100", seed=77), _axis_config("sm_core"),
            sinks=(sink,),
        )
        [summary] = (tmp_path / "stream").glob("summary_*.csv")
        assert not summary_interrupted(summary)


class TestResumeReplay:
    def test_replayed_events_flagged_and_precede_live(self, tmp_path):
        journal = tmp_path / "journal"
        cfg = _axis_config("sm_core")
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                make_machine("A100", seed=4242),
                _axis_config("sm_core", inject_faults="interrupt@2"),
                workers=1,
                journal=journal,
            )
        rec = RecordingSink()
        resumed = run_campaign(
            make_machine("A100", seed=4242),
            cfg,
            workers=1,
            journal=journal,
            resume=True,
            sinks=(rec,),
        )
        assert rec.events and rec.of_type(CampaignStarted)[0].resumed
        measured = rec.of_type(PairMeasured)
        replay_flags = [event.replayed for event in measured]
        n_replayed = sum(replay_flags)
        assert n_replayed >= 2
        # Every replayed event precedes every live one, in index order.
        assert replay_flags == [True] * n_replayed + [False] * (
            len(measured) - n_replayed
        )
        replayed_indices = [e.index for e in measured if e.replayed]
        assert replayed_indices == sorted(replayed_indices)
        # And the resumed result matches an uninterrupted run.
        golden = run_campaign(
            make_machine("A100", seed=4242), cfg, workers=1
        )
        assert _campaign_fingerprint(resumed) == _campaign_fingerprint(golden)
        assert resumed.wall_virtual_s == golden.wall_virtual_s
