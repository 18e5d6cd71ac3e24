"""Group commit: one journal fsync per recorded batch, proven at crash points.

The engine records landed pair results in batches of up to
``RECORD_BATCH`` (shrunk here so a small A100 grid spans several
groups).  The journal writes and flushes every record at once but
fsyncs once per group, and the sinks registered after it (the CSV sink,
a recording sink) see a group's events only after that fsync.

Each hypothesis example stops a campaign at a drawn point and resumes
it against its journal:

* an ``interrupt@K`` driver fault (a real SIGINT after K landed pairs),
  resumed into the same CSV directory; or
* a finished run whose ``pairs.log`` is truncated at a drawn byte offset
  past one fsync and before the next, the bytes a power loss can take.

The resumed CSV bytes and ``wall_virtual_s`` must equal an
uninterrupted run's, and at most one group may be measured twice.
"""

from __future__ import annotations

import math
import os
import pickle
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_machine, run_campaign
from repro.core.csvio import CsvStreamSink
from repro.core.stream import CampaignSink, PairMeasured
from repro.errors import CampaignInterrupted
from repro.exec import engine
from tests.conftest import fast_config

FREQUENCIES = (705.0, 900.0, 1095.0, 1410.0, 1215.0)
#: records per group for these tests: 20 pairs make 7 groups
BATCH = 3
_FRAME = struct.Struct("<II")


def _config(**overrides):
    return fast_config(FREQUENCIES, max_measurements=4, **overrides)


def _machine():
    return make_machine("A100", seed=4242)


def _indices(data: bytes) -> list[int]:
    """Grid indices of the intact frames a load of ``data`` would see."""
    out, pos = [], 0
    while pos + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, pos)
        blob = data[pos + _FRAME.size : pos + _FRAME.size + length]
        if len(blob) < length or zlib.crc32(blob) != crc:
            break
        out.append(pickle.loads(blob)[0])
        pos += _FRAME.size + length
    return out


def _csv_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


class _Probe:
    """Watches one campaign: journal fsyncs, pair measurements, delivery.

    ``sizes`` holds the ``pairs.log`` size at each fsync that made new
    bytes durable; ``measured`` the grid index of every pair measured
    in this process.  ``sink`` is registered after the journal and
    fails the run if it ever receives a live ``PairMeasured`` whose
    record is not yet fsync'd.
    """

    def __init__(self, journal_dir: Path) -> None:
        self.log = journal_dir / "pairs.log"
        self.sizes: list[int] = []
        self.measured: list[int] = []
        self.undurable: list[int] = []
        probe = self

        class AfterJournal(CampaignSink):
            def on_event(self, event) -> None:
                if isinstance(event, PairMeasured) and not event.replayed:
                    size = probe.sizes[-1] if probe.sizes else 0
                    synced = probe.log.read_bytes()[:size]
                    if event.index not in _indices(synced):
                        probe.undurable.append(event.index)

        self.sink = AfterJournal()

    def install(self, mp: pytest.MonkeyPatch) -> None:
        real_fsync, real_job = os.fsync, engine.run_pair_job

        def fsync(fd):
            real_fsync(fd)
            if os.path.exists(self.log) and os.path.samestat(
                os.fstat(fd), os.stat(self.log)
            ):
                size = os.fstat(fd).st_size
                if not self.sizes or size > self.sizes[-1]:
                    self.sizes.append(size)

        def run_pair_job(job, *args):
            self.measured.append(job.index)
            return real_job(job, *args)

        mp.setattr(os, "fsync", fsync)
        mp.setattr(engine, "run_pair_job", run_pair_job)
        mp.setattr(engine, "RECORD_BATCH", BATCH, raising=False)

    def groups(self) -> list[list[int]]:
        """Grid indices per durable group, in commit order."""
        data = self.log.read_bytes()
        out, before = [], set()
        for size in self.sizes:
            now = _indices(data[:size])
            out.append([i for i in now if i not in before])
            before.update(now)
        return out


def _run(tmp: Path, name: str, *, faults=None, resume=False, journal=None):
    """One journaled campaign with a CSV sink; returns (result, probe)."""
    journal = journal or tmp / f"{name}-journal"
    probe = _Probe(journal)
    sinks = (CsvStreamSink(tmp / f"{name}-csv"), probe.sink)
    with pytest.MonkeyPatch.context() as mp:
        probe.install(mp)
        try:
            result = run_campaign(
                _machine(),
                _config(inject_faults=faults),
                workers=1,
                journal=journal,
                resume=resume,
                sinks=sinks,
            )
        except CampaignInterrupted:
            result = None
    assert probe.undurable == [], "a sink saw a pair the journal could lose"
    return result, probe


@pytest.fixture(scope="module")
def golden():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        result, probe = _run(tmp, "golden")
        yield result, _csv_bytes(tmp / "golden-csv"), probe.groups()


def test_one_fsync_per_group_of_landed_results(golden):
    result, _, groups = golden
    n_measured = sum(1 for _ in result.iter_measured())
    assert n_measured == len(FREQUENCIES) * (len(FREQUENCIES) - 1)
    assert len(groups) == math.ceil(n_measured / BATCH)
    assert [len(g) for g in groups[:-1]] == [BATCH] * (len(groups) - 1)
    assert sorted(i for g in groups for i in g) == sorted(range(n_measured))


def _resume_and_check(tmp, golden, csv_name, before_crash, lost_group):
    """Resume; compare with the golden run; bound the re-measured pairs.

    ``before_crash`` lists the pairs measured before the stop, and
    ``lost_group`` the one group whose pairs may be measured again.
    """
    result, csv, _ = golden
    resumed, probe = _run(
        tmp, csv_name, resume=True, journal=tmp / "run-journal"
    )
    assert resumed.wall_virtual_s == result.wall_virtual_s
    assert _csv_bytes(tmp / f"{csv_name}-csv") == csv
    again = set(probe.measured) & set(before_crash)
    assert again <= set(lost_group)
    assert len(again) <= BATCH


@settings(max_examples=12, deadline=None)
@given(k=st.integers(min_value=1, max_value=19))
def test_interrupt_at_k_resumes_bit_identical(golden, k):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        result, probe = _run(tmp, "run", faults=f"interrupt@{k}")
        assert result is None
        # Every landed pair was recorded and fsync'd before the interrupt.
        assert sorted(_indices(probe.log.read_bytes())) == sorted(
            probe.measured
        )
        assert len(probe.measured) >= k
        _resume_and_check(tmp, golden, "run", probe.measured, lost_group=())


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_power_loss_after_any_fsync_loses_at_most_one_group(golden, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _, probe = _run(tmp, "run")
        sizes = [0] + probe.sizes
        groups = probe.groups()
        g = data.draw(st.integers(0, len(groups) - 1), label="lost group")
        cut = data.draw(
            st.integers(sizes[g], sizes[g + 1] - 1), label="truncate at"
        )
        log = probe.log.read_bytes()
        # The crash hit while group g was written but not yet fsync'd.
        before_crash = _indices(log[: sizes[g + 1]])
        probe.log.write_bytes(log[:cut])
        _resume_and_check(tmp, golden, "resumed", before_crash, groups[g])


def test_resume_cuts_a_torn_tail_so_new_records_stay_readable(tmp_path):
    _, probe = _run(tmp_path, "run")
    log = probe.log.read_bytes()
    probe.log.write_bytes(log[: probe.sizes[0] + _FRAME.size + 5])
    _run(tmp_path, "resumed", resume=True, journal=tmp_path / "run-journal")
    assert sorted(_indices(probe.log.read_bytes())) == list(
        range(len(FREQUENCIES) * (len(FREQUENCIES) - 1))
    )
