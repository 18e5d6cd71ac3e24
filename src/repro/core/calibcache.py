"""Persistent, content-addressed cache of per-facet calibrations.

Every campaign pays for phase-1 frequency characterization and the probe
window-sizing stage once per facet before a single pair is measured —
and for campaign-as-a-service workloads (ROADMAP item 1) repeat requests
against the same board/config are the *common* case.  This module caches
the complete calibration product of one facet — the
:class:`~repro.core.phase1.Phase1Result`, the
:class:`~repro.core.campaign.ProbeInfo` window estimate and the virtual
seconds the calibration consumed — so a warm campaign skips straight to
phase 2/3 while staying bit-identical to a cold run.

Key derivation
--------------
Every engine campaign calibrates each facet on a blueprint replica
(:func:`repro.exec.worker.calibrate_facet`), a pure function of
``(blueprint, config, facet_index, facet, start_time)``.
:func:`calibration_fingerprint` is the canonical content digest
(:mod:`repro.core.fingerprint`) of exactly those inputs, minus the
config fields phase 1 and the probe never read: the execution-only
fields plus the per-pair measurement knobs (stopping rule, per-pair
window policy, per-pair resilience, outlier labelling).  So worker-count
changes, journal resumes and phase-2/3 tuning all still hit, and a
reused machine mid-timeline simply keys under its later start time.

Durability
----------
Entries are one file per key under the cache directory, written with the
journal's length+CRC32 framing to a temp file and atomically
``os.replace``\\ d into place.  A torn, truncated, bit-flipped, stale
(version or key mismatch) or otherwise unreadable entry degrades to a
cache *miss* — never an error; the calibration simply re-runs and the
entry is rewritten.  An in-memory LRU fronts the directory so repeated
lookups inside one process never re-read disk.  Hits and misses are
observable on the campaign event stream: every
:class:`~repro.core.stream.FacetPrepared` event carries ``cache_hit``,
which the CLI's cache summary line counts.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.core.fingerprint import (
    EXECUTION_ONLY_FIELDS,
    config_fields,
    content_digest,
)
from repro.core.journal import _FRAME

__all__ = [
    "CALIB_CACHE_VERSION",
    "CalibrationCache",
    "FacetCalibration",
    "calibration_fingerprint",
]

#: cache entry format version (bump on incompatible entry or key changes;
#: 2 = replica-only calibration keyed by its start time)
CALIB_CACHE_VERSION = 2

#: config fields that cannot affect the phase-1 characterization, the
#: probe window-sizing stage, or the fixed per-pass duration: the
#: execution-only fields plus the knobs only the per-pair phase-2/3
#: measurement loop reads.  Everything else — frequencies, axis, facet
#: coordinates, workload sizing, the detection criterion the probe
#: evaluates switches with, settle and timer-sync parameters — stays in
#: the key.
_CALIBRATION_EXCLUDED = EXECUTION_ONLY_FIELDS | frozenset(
    {
        # per-pair RSE stopping rule (phase 2/3 only)
        "rse_threshold",
        "min_measurements",
        "max_measurements",
        "rse_check_every",
        # per-pair window sizing (the probe uses probe_window_s directly)
        "switch_window_factor",
        "window_policy",
        # per-pair measurement-loop resilience
        "throttle_check_every",
        "throttle_backoff_s",
        "throttle_discard_count",
        "max_consecutive_failures",
        # per-pair outlier labelling (Algorithm 3)
        "outlier_config",
    }
)


@dataclass(frozen=True)
class FacetCalibration:
    """The complete, cacheable calibration product of one facet.

    ``elapsed_virtual_s`` is the virtual time the calibration consumed
    (facet-clock preparation + phase 1 + probe); a warm run advances the
    driver clock by it instead of re-measuring, so the campaign epoch —
    and therefore every pair result and ``wall_virtual_s`` — is
    bit-identical to the cold run.  ``prepared=False`` records a facet
    whose clock could not be locked (the failed settle attempt still
    consumed ``elapsed_virtual_s``).
    """

    facet_index: int
    facet: float | None
    prepared: bool
    phase1: "Phase1Result | None"  # noqa: F821 - annotation only
    probe: "ProbeInfo | None"  # noqa: F821 - annotation only
    elapsed_virtual_s: float


def calibration_fingerprint(
    config,
    blueprint,
    facet_index: int,
    facet: float | None,
    start_time: float,
) -> str:
    """Content digest identifying one facet's calibration inputs.

    Two calibrations share a fingerprint iff they are guaranteed to
    produce a bit-identical :class:`FacetCalibration`: same
    calibration-affecting config fields, same machine blueprint, same
    facet position and coordinate, same calibration start time.
    """
    return content_digest(
        CALIB_CACHE_VERSION,
        config_fields(config, _CALIBRATION_EXCLUDED),
        blueprint,
        int(facet_index),
        None if facet is None else float(facet),
        float(start_time),
    )


class CalibrationCache:
    """Disk-backed calibration store with an in-memory LRU front.

    ``get`` returns a cached :class:`FacetCalibration` or ``None`` —
    corrupt, stale, or unreadable entries count as misses, never raise.
    ``install`` writes an entry durably (framed, CRC'd, atomic rename);
    a failed write is swallowed too (the cache is an accelerator, not a
    correctness dependency).
    """

    def __init__(
        self, directory: "str | Path", max_memory_entries: int = 64
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_memory_entries = int(max_memory_entries)
        self._memory: "OrderedDict[str, FacetCalibration]" = OrderedDict()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.calib"

    def _remember(self, key: str, entry: FacetCalibration) -> None:
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    # ------------------------------------------------------------------
    def get(self, key: str) -> FacetCalibration | None:
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            return entry
        entry = self._read(key)
        if entry is not None:
            self._remember(key, entry)
        return entry

    def _read(self, key: str) -> FacetCalibration | None:
        try:
            raw = self._path(key).read_bytes()
            length, crc = _FRAME.unpack(raw[: _FRAME.size])
            blob = raw[_FRAME.size : _FRAME.size + length]
            if len(blob) < length or zlib.crc32(blob) != crc:
                return None
            version, stored_key, entry = pickle.loads(blob)
        except Exception:
            # Missing, unreadable, truncated or unpicklable: a miss.
            return None
        # A stale format or a file renamed under a foreign key is a miss,
        # not an error — the entry will be recomputed and rewritten.
        fresh = (
            version == CALIB_CACHE_VERSION
            and stored_key == key
            and isinstance(entry, FacetCalibration)
        )
        return entry if fresh else None

    def install(self, key: str, entry: FacetCalibration) -> None:
        blob = pickle.dumps(
            (CALIB_CACHE_VERSION, key, entry),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        framed = _FRAME.pack(len(blob), zlib.crc32(blob)) + blob
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=".calib-tmp-"
            )
            with os.fdopen(fd, "wb") as fh:
                fh.write(framed)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._path(key))
            tmp = None
        except OSError:
            # A read-only or full cache directory must not fail the
            # campaign; the entry just is not persisted this run.
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        self._remember(key, entry)
