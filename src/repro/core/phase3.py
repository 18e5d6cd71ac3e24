"""Phase 3: per-SM evaluation of the switching latency (Algorithm 2, 9-24).

For every SM independently, scanning only iterations that started after the
(converted) frequency-change timestamp ``t_s``:

1. find the first iteration whose execution time falls inside the target
   frequency's acceptance band — mean +/- two standard deviations from
   phase 1 (Sec. V-A);
2. recompute mean/std over the *remaining* iterations of that SM and test
   them against the phase-1 target statistics (difference CI including
   zero, or mean difference within tolerance) — this rejects detections
   that landed inside the band while the clock was merely passing through
   during the adaptation period;
3. on success the SM's latency is ``t_e - t_s`` with ``t_e`` the end
   timestamp of the detected iteration.

The pair's switching latency is the **maximum** over all valid SMs; if no
SM is viable, phases two and three are repeated by the campaign loop.

The confirmation step runs as array-wide Welch CI math over all candidate
SMs at once (suffix statistics from shared cumulative-sum buffers, critical
values from the rounded-dof cache in :mod:`repro.stats.intervals`); the
original one-SampleStats-per-SM loop is retained as
:func:`evaluate_switch_reference` for equivalence testing, mirroring the
vectorized/reference split of :mod:`repro.gpusim.sm`.

The FTaLaT-style confidence-interval criterion is retained behind
``detection_criterion="confidence-interval"`` for the Sec. V-A ablation:
with millions of samples its band collapses below the device timer
granularity and detection starves.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.config import LatestConfig
from repro.core.phase2 import RawSwitchData
from repro.errors import ConfigError
from repro.stats.descriptive import SampleStats
from repro.stats.intervals import (
    difference_ci,
    difference_ci_batch,
    two_sigma_band,
)

__all__ = [
    "SmStatus",
    "SwitchEvaluation",
    "evaluate_switch",
    "evaluate_switch_block_deferred",
    "evaluate_switch_reference",
    "detection_band",
]


#: reusable block-sized scratch buffers, one per (thread, kind) — pass
#: blocks allocate multi-megabyte temporaries every few dozen passes, and
#: without reuse each round-trips through mmap.  Buffers are grown (never
#: shrunk) and handed out as leading-axis views; nothing returned to
#: callers aliases them (evaluations copy what they keep).  Storage is
#: thread-local: the service's worker fleet evaluates pair jobs on
#: concurrent threads, and a shared buffer would let one thread overwrite
#: another's in-flight temporaries.
_SCRATCH = threading.local()


def block_scratch(kind: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    cache: "dict[str, np.ndarray] | None" = getattr(_SCRATCH, "buffers", None)
    if cache is None:
        cache = _SCRATCH.buffers = {}
    size = math.prod(shape)
    buf = cache.get(kind)
    if buf is None or buf.size < size or buf.dtype != np.dtype(dtype):
        buf = np.empty(max(size, 1), dtype=dtype)
        cache[kind] = buf
    return buf[:size].reshape(shape)


class SmStatus(enum.IntEnum):
    """Per-SM evaluation outcome."""

    OK = 0
    NO_DETECTION = 1       # no post-switch iteration entered the band
    SHORT_TAIL = 2         # detection too close to the kernel end
    CONFIRMATION_FAILED = 3  # tail statistics do not match the target
    NO_POST_SWITCH = 4     # kernel ended before the switch call


@dataclass
class SwitchEvaluation:
    """Result of evaluating one phase-2 measurement."""

    latency_s: float | None
    te_acc: float | None
    per_sm_latency_s: np.ndarray
    sm_status: np.ndarray
    detection_indices: np.ndarray
    reason: str

    @property
    def ok(self) -> bool:
        return self.latency_s is not None

    @property
    def n_valid_sm(self) -> int:
        return int((self.sm_status == SmStatus.OK).sum())

    @property
    def window_too_short(self) -> bool:
        """True when growing the switch window is the right remedy."""
        bad = np.isin(
            self.sm_status,
            (SmStatus.NO_DETECTION, SmStatus.SHORT_TAIL, SmStatus.NO_POST_SWITCH),
        )
        return bool(bad.all())


def detection_band(
    target_stats: SampleStats, cfg: LatestConfig
) -> tuple[float, float]:
    """Acceptance band for "this iteration runs at the target frequency"."""
    if cfg.detection_criterion == "two-sigma":
        return two_sigma_band(target_stats, cfg.detection_sigmas)
    if cfg.detection_criterion == "confidence-interval":
        # FTaLaT's criterion: mean +/- 2 standard *errors*.  Shrinks to
        # nothing as n grows — kept for the Sec. V-A ablation.
        half = cfg.detection_sigmas * target_stats.stderr
        return target_stats.mean - half, target_stats.mean + half
    raise ConfigError(f"unknown detection criterion {cfg.detection_criterion!r}")


def _suffix_stats(diffs: np.ndarray, cut: np.ndarray, rows=None):
    """Per-row mean/std/count of ``diffs[i, cut[i]:]`` without Python loops.

    ``rows`` optionally restricts the computation to a row subset.  All
    array work happens on the sub-matrix from the earliest cut onward —
    the delay/detection prefix of the kernel (never part of any
    confirmation tail) pays for nothing here.  Within the sub-matrix the
    tail sums are totals minus gathered prefix cumulative sums, with the
    squares buffer shared between the totals and the cumulative sums.
    """
    if rows is None:
        rows = np.arange(diffs.shape[0])
    n_iter = diffs.shape[1]
    cut = np.clip(cut, 0, n_iter)
    n_tail = (n_iter - cut).astype(np.int64)
    safe_n = np.maximum(n_tail, 1)
    n_rows = len(rows)
    if n_rows == 0:
        zero = np.zeros(0)
        return zero, zero.copy(), n_tail

    c0 = int(cut.min())
    if c0 >= n_iter:  # every tail empty
        zero = np.zeros(n_rows)
        return zero, zero.copy(), n_tail

    tail_width = n_iter - c0
    if n_rows == diffs.shape[0]:
        # ``rows`` comes from ``flatnonzero`` (or is every row), so equal
        # length means every row in order: read the tail in place.
        sub = diffs[:, c0:]
    else:
        sub = block_scratch("suffix_sub", (n_rows, tail_width))
        np.take(diffs[:, c0:], rows, axis=0, out=sub)
    local_cut = cut - c0
    sq = block_scratch("suffix_sq", (n_rows, tail_width))
    np.multiply(sub, sub, out=sq)
    totals = sub.sum(axis=1)
    sq_totals = sq.sum(axis=1)

    # Prefix sums are only gathered at cut-1, so the cumulative buffers
    # stop at the largest cut — the confirmation tail (often most of the
    # window) never pays for them.
    n_prefix = int(local_cut.max())
    gather = np.maximum(local_cut - 1, 0)[:, None]
    if n_prefix:
        csum = np.cumsum(sub[:, :n_prefix], axis=1)
        csq = np.cumsum(sq[:, :n_prefix], axis=1)
        before = np.where(
            local_cut > 0,
            np.take_along_axis(csum, gather, axis=1).ravel(),
            0.0,
        )
        before_sq = np.where(
            local_cut > 0,
            np.take_along_axis(csq, gather, axis=1).ravel(),
            0.0,
        )
    else:
        before = np.zeros(n_rows)
        before_sq = np.zeros(n_rows)

    tail_sum = totals - before
    tail_sq = sq_totals - before_sq
    mean = tail_sum / safe_n
    var = np.maximum(tail_sq - safe_n * mean * mean, 0.0) / np.maximum(
        safe_n - 1, 1
    )
    return mean, np.sqrt(var), n_tail


def _detect(raw: RawSwitchData, target_stats: SampleStats, cfg: LatestConfig):
    """Shared detection stage: masks, first-detection indices, statuses."""
    starts = raw.timestamps.starts
    ends = raw.timestamps.ends
    diffs = ends - starts
    n_sm, n_iter = diffs.shape
    ts = raw.ts_acc

    lo, hi = detection_band(target_stats, cfg)

    after = starts > ts
    candidate = after & (diffs >= lo) & (diffs <= hi)

    status = np.full(n_sm, int(SmStatus.NO_DETECTION), dtype=np.int64)
    has_post = after.any(axis=1)
    status[~has_post] = int(SmStatus.NO_POST_SWITCH)

    detected = candidate.any(axis=1)
    first = np.where(detected, np.argmax(candidate, axis=1), n_iter)
    return diffs, ends, ts, status, has_post, detected, first


def _finish(
    n_sm: int,
    n_iter: int,
    ends: np.ndarray,
    ts: float,
    status: np.ndarray,
    has_post: np.ndarray,
    detected: np.ndarray,
    short: np.ndarray,
    first: np.ndarray,
    valid: np.ndarray,
) -> SwitchEvaluation:
    """Shared epilogue: per-SM latencies and the overall outcome."""
    status[valid] = int(SmStatus.OK)

    per_sm = np.full(n_sm, np.nan)
    rows = np.flatnonzero(valid)
    if rows.size:
        # Point-indexed gather: valid only ever holds detected rows, whose
        # first-index is in range.  (A take_along_axis over the full ends
        # matrix broke whenever only a strict subset of SMs confirmed.)
        te = ends[rows, first[rows]]
        per_sm[rows] = te - ts
        latency = float(np.nanmax(per_sm))
        te_overall = float(ts + latency)
        reason = "ok"
    else:
        latency = None
        te_overall = None
        if not has_post.any():
            reason = "no-post-switch-iterations"
        elif not detected.any():
            reason = "no-detection"
        elif (detected & ~short).any():
            reason = "confirmation-failed"
        else:
            reason = "short-tail"

    return SwitchEvaluation(
        latency_s=latency,
        te_acc=te_overall,
        per_sm_latency_s=per_sm,
        sm_status=status,
        detection_indices=np.where(first < n_iter, first, -1),
        reason=reason,
    )


def evaluate_switch(
    raw: RawSwitchData,
    target_stats: SampleStats,
    cfg: LatestConfig,
) -> SwitchEvaluation:
    """Run the phase-3 evaluation over all recorded SMs (vectorized)."""
    diffs, ends, ts, status, has_post, detected, first = _detect(
        raw, target_stats, cfg
    )
    n_sm, n_iter = diffs.shape

    # Tail statistics start after the detected iteration; tail length is
    # known without computing any statistics.
    cut = first + 1
    n_tail = (n_iter - np.clip(cut, 0, n_iter)).astype(np.int64)

    short = detected & (n_tail < cfg.min_confirm_tail)
    status[detected] = int(SmStatus.CONFIRMATION_FAILED)
    status[short] = int(SmStatus.SHORT_TAIL)

    # Confirmation: difference CI of (tail - target) includes zero, or the
    # mean difference is inside the relative tolerance (Algorithm 2 l. 20),
    # evaluated for every candidate SM at once.  Only candidate rows pay
    # for suffix statistics.
    confirm_rows = np.flatnonzero(detected & ~short)
    valid = np.zeros(n_sm, dtype=bool)
    if confirm_rows.size:
        tail_mean, tail_std, tail_n = _suffix_stats(
            diffs, cut[confirm_rows], rows=confirm_rows
        )
        # Variance via std*std (not the raw variance) to match the scalar
        # reference path, which round-trips through SampleStats.
        lb, hb = difference_ci_batch(
            tail_mean, tail_std * tail_std, tail_n, target_stats, cfg.confidence
        )
        tol = cfg.tolerance_rel * target_stats.mean
        ok = ((lb < 0.0) & (0.0 < hb)) | (
            np.abs(tail_mean - target_stats.mean) < tol
        )
        valid[confirm_rows[ok]] = True

    return _finish(
        n_sm, n_iter, ends, ts, status, has_post, detected, short, first, valid
    )


#: detection scans run in column chunks of this many iterations with an
#: early exit once every (pass, SM) row found its first in-band iteration
_DETECT_CHUNK = 512


def evaluate_switch_block_deferred(
    start0: np.ndarray,
    ends: np.ndarray,
    ts_acc: "list[float]",
    target_stats: SampleStats,
    cfg: LatestConfig,
) -> list[SwitchEvaluation]:
    """Block evaluation straight from converted end boundaries.

    With back-to-back iterations every start except the first per SM *is*
    the previous end, so the post-switch mask and the execution-time
    matrix are built by shifting ``ends`` — the same subtractions and
    comparisons, on the same floats, as materializing a full starts
    matrix first.  ``start0`` is the converted iteration-0 start per
    (pass, SM); ``ends`` is ``(n_pass, n_sm, n_iter)``.

    Detection is a prefix scan for the *first* in-band post-switch
    iteration per row, so it runs over column chunks and stops as soon as
    every row has found one — typically a few hundred columns into a
    multi-thousand-column kernel.  The chunked scan visits candidates in
    the same order as a whole-matrix ``argmax``, so the detection indices
    are identical; only never-detected rows (failed passes) pay for the
    full sweep.
    """
    n_pass, n_sm, n_iter = ends.shape
    ts = np.asarray(ts_acc)
    ts3 = ts[:, None, None]

    diffs = block_scratch("diffs", ends.shape)
    np.subtract(ends[:, :, 0], start0, out=diffs[:, :, 0])
    np.subtract(ends[:, :, 1:], ends[:, :, :-1], out=diffs[:, :, 1:])

    # Converted starts are non-decreasing along a row, so the post-switch
    # mask is a per-row suffix: "any post-switch iteration" is exactly
    # "the last iteration starts post-switch".
    if n_iter > 1:
        has_post = ends[:, :, -2] > ts[:, None]
    else:
        has_post = start0 > ts[:, None]

    lo, hi = detection_band(target_stats, cfg)
    found = np.zeros((n_pass, n_sm), dtype=bool)
    first = np.full((n_pass, n_sm), n_iter, dtype=np.int64)
    for c0 in range(0, n_iter, _DETECT_CHUNK):
        c1 = min(c0 + _DETECT_CHUNK, n_iter)
        width = c1 - c0
        d = diffs[:, :, c0:c1]
        after = block_scratch("after", (n_pass, n_sm, width), dtype=bool)
        if c0 == 0:
            after[:, :, 0] = start0 > ts[:, None]
            np.greater(ends[:, :, : c1 - 1], ts3, out=after[:, :, 1:])
        else:
            np.greater(ends[:, :, c0 - 1 : c1 - 1], ts3, out=after)
        cand = block_scratch("cand", (n_pass, n_sm, width), dtype=bool)
        np.greater_equal(d, lo, out=cand)
        cand &= after
        np.less_equal(d, hi, out=after)
        cand &= after
        hit = cand.any(axis=2)
        new = hit & ~found
        if new.any():
            first[new] = c0 + np.argmax(cand, axis=2)[new]
            found |= hit
        if found.all():
            break

    return _confirm_and_finish(
        diffs, ends, list(ts_acc), has_post, found, first,
        target_stats, cfg,
    )


def _confirm_and_finish(
    diffs: np.ndarray,
    ends: np.ndarray,
    ts_list: "list[float]",
    has_post: np.ndarray,
    detected: np.ndarray,
    first: np.ndarray,
    target_stats: SampleStats,
    cfg: LatestConfig,
) -> list[SwitchEvaluation]:
    """Confirmation + per-pass epilogue over block arrays.

    Reuses scratch buffers; callers must not retain ``diffs`` across the
    call.  ``detected``/``first``/``has_post`` come from the chunked
    prefix-scan detection front end in
    :func:`evaluate_switch_block_deferred`.
    """
    n_pass, n_sm, n_iter = diffs.shape

    status = np.full((n_pass, n_sm), int(SmStatus.NO_DETECTION), dtype=np.int64)
    status[~has_post] = int(SmStatus.NO_POST_SWITCH)

    cut = first + 1
    n_tail = (n_iter - np.clip(cut, 0, n_iter)).astype(np.int64)
    short = detected & (n_tail < cfg.min_confirm_tail)
    status[detected] = int(SmStatus.CONFIRMATION_FAILED)
    status[short] = int(SmStatus.SHORT_TAIL)

    # Suffix statistics run per pass with exactly the per-pass row set and
    # matrix slice the scalar ``evaluate_switch`` uses — the sub-matrix
    # anchor (the pass-wide earliest cut) is part of the float-op sequence,
    # so a block-wide anchor would produce ulp-different tail moments and
    # break the bit-identity contract.  Only the Welch CI lookup, which is
    # row-pure, batches across the whole block.
    confirm = detected & ~short
    per_pass_rows = [np.flatnonzero(confirm[b]) for b in range(n_pass)]
    stats = [
        _suffix_stats(diffs[b], cut[b][rows_b], rows=rows_b)
        for b, rows_b in enumerate(per_pass_rows)
        if rows_b.size
    ]
    valid = np.zeros((n_pass, n_sm), dtype=bool)
    if stats:
        tail_mean = np.concatenate([s[0] for s in stats])
        tail_std = np.concatenate([s[1] for s in stats])
        tail_n = np.concatenate([s[2] for s in stats])
        lb, hb = difference_ci_batch(
            tail_mean, tail_std * tail_std, tail_n, target_stats, cfg.confidence
        )
        tol = cfg.tolerance_rel * target_stats.mean
        ok = ((lb < 0.0) & (0.0 < hb)) | (
            np.abs(tail_mean - target_stats.mean) < tol
        )
        offset = 0
        for b, rows_b in enumerate(per_pass_rows):
            if rows_b.size:
                valid[b, rows_b[ok[offset : offset + rows_b.size]]] = True
                offset += rows_b.size

    return [
        _finish(
            n_sm,
            n_iter,
            ends[b],
            ts_list[b],
            status[b],
            has_post[b],
            detected[b],
            short[b],
            first[b],
            valid[b],
        )
        for b in range(n_pass)
    ]


def evaluate_switch_reference(
    raw: RawSwitchData,
    target_stats: SampleStats,
    cfg: LatestConfig,
) -> SwitchEvaluation:
    """Scalar reference: one SampleStats + Welch CI per candidate SM.

    This is the original formulation of the confirmation step.  It is kept
    (like :func:`repro.gpusim.sm.integrate_iterations_reference`) so the
    equivalence tests can assert that the vectorized path produces
    identical statuses, latencies and reasons.
    """
    diffs, ends, ts, status, has_post, detected, first = _detect(
        raw, target_stats, cfg
    )
    n_sm, n_iter = diffs.shape

    tail_mean, tail_std, n_tail = _suffix_stats(diffs, first + 1)

    short = detected & (n_tail < cfg.min_confirm_tail)
    status[detected] = int(SmStatus.CONFIRMATION_FAILED)
    status[short] = int(SmStatus.SHORT_TAIL)

    confirm_rows = np.flatnonzero(detected & ~short)
    valid = np.zeros(n_sm, dtype=bool)
    tol = cfg.tolerance_rel * target_stats.mean
    for i in confirm_rows:
        tail = SampleStats(
            n=int(n_tail[i]),
            mean=float(tail_mean[i]),
            std=float(tail_std[i]),
            minimum=0.0,
            maximum=0.0,
        )
        lb, hb = difference_ci(tail, target_stats, cfg.confidence)
        if (lb < 0.0 < hb) or abs(tail.mean - target_stats.mean) < tol:
            valid[i] = True

    return _finish(
        n_sm, n_iter, ends, ts, status, has_post, detected, short, first, valid
    )
