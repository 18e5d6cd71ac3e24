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
values from the rounded-dof cache in :mod:`repro.stats.intervals`).  The
equivalence tests compare it with a one-SampleStats-per-SM oracle in
``tests/oracles.py``.

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
from repro.stats.intervals import difference_ci_batch, two_sigma_band

__all__ = [
    "SmStatus",
    "SwitchEvaluation",
    "evaluate_switch",
    "evaluate_switch_block_deferred",
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


def _suffix_stats(
    diffs: np.ndarray, cut: "list[int]", rows: "list[int]"
) -> "tuple[list[float], list[float], list[int]]":
    """Mean/std/count of ``diffs[i, cut[k]:]`` for each listed row ``i = rows[k]``.

    All array work happens on the sub-matrix from the earliest cut onward
    — the delay/detection prefix of the kernel (never part of any
    confirmation tail) pays for nothing here, and the anchor is part of
    the float-op sequence.  Within the sub-matrix the tail sums are the
    row totals (numpy's pairwise sums) minus the prefix cumulative sums
    gathered at ``cut - 1``, with the squares buffer shared between the
    totals and the cumulative sums.  The per-row remainder is a dozen
    float operations, done on Python floats (the same float64 steps the
    array form applies elementwise).
    """
    n_iter = diffs.shape[1]
    cut = [min(max(c, 0), n_iter) for c in cut]
    n_tail = [n_iter - c for c in cut]
    n_rows = len(rows)
    c0 = min(cut, default=n_iter)
    if c0 >= n_iter:  # every tail empty (or no rows)
        return [0.0] * n_rows, [0.0] * n_rows, n_tail

    tail_width = n_iter - c0
    if n_rows == diffs.shape[0]:
        # ``rows`` comes from ``flatnonzero`` (or is every row), so equal
        # length means every row in order: read the tail in place.
        sub = diffs[:, c0:]
    else:
        sub = block_scratch("suffix_sub", (n_rows, tail_width))
        np.take(diffs[:, c0:], rows, axis=0, out=sub)
    sq = block_scratch("suffix_sq", (n_rows, tail_width))
    np.multiply(sub, sub, out=sq)
    # np.add.reduce is what ndarray.sum runs, minus its Python wrapper.
    totals = np.add.reduce(sub, axis=1).tolist()
    sq_totals = np.add.reduce(sq, axis=1).tolist()

    # Prefix sums are only gathered at cut-1, so the cumulative buffers
    # stop at the largest cut — the confirmation tail (often most of the
    # window) never pays for them.
    local_cut = [c - c0 for c in cut]
    n_prefix = max(local_cut)
    if n_prefix:
        csum = np.cumsum(sub[:, :n_prefix], axis=1)
        csq = np.cumsum(sq[:, :n_prefix], axis=1)
    mean, std = [], []
    for i, (lc, n) in enumerate(zip(local_cut, n_tail)):
        if lc > 0:
            tail_sum = totals[i] - csum.item(i, lc - 1)
            tail_sq = sq_totals[i] - csq.item(i, lc - 1)
        else:
            tail_sum = totals[i] - 0.0
            tail_sq = sq_totals[i] - 0.0
        safe_n = max(n, 1)
        m = tail_sum / safe_n
        var = max(tail_sq - safe_n * m * m, 0.0) / max(safe_n - 1, 1)
        mean.append(m)
        std.append(math.sqrt(var))
    return mean, std, n_tail


def _detect(raw: RawSwitchData, target_stats: SampleStats, cfg: LatestConfig):
    """Single-pass detection: masks and first-detection indices."""
    starts = raw.timestamps.starts
    ends = raw.timestamps.ends
    diffs = ends - starts
    n_iter = diffs.shape[1]

    lo, hi = detection_band(target_stats, cfg)

    ts = raw.ts_acc
    after = starts > ts
    candidate = after & (diffs >= lo) & (diffs <= hi)
    has_post = after.any(axis=1)
    detected = candidate.any(axis=1)
    first = np.where(detected, np.argmax(candidate, axis=1), n_iter)
    return diffs, ends, ts, has_post, detected, first


def _classify(
    has_post: np.ndarray,
    detected: np.ndarray,
    first: np.ndarray,
    n_iter: int,
    cfg: LatestConfig,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Pre-confirmation SM statuses, short-tail mask and tail cuts.

    Tail statistics start after the detected iteration, so the tail
    length — and with it the short-tail verdict — is known without
    computing any statistics.  Works on any leading shape.
    """
    status = np.full(has_post.shape, int(SmStatus.NO_DETECTION), dtype=np.int64)
    status[~has_post] = int(SmStatus.NO_POST_SWITCH)
    cut = first + 1
    n_tail = n_iter - np.clip(cut, 0, n_iter)
    short = detected & (n_tail < cfg.min_confirm_tail)
    status[detected] = int(SmStatus.CONFIRMATION_FAILED)
    status[short] = int(SmStatus.SHORT_TAIL)
    return status, short, cut


def _finish(
    ends: np.ndarray,
    ts_list: "list[float]",
    status: np.ndarray,
    has_post: np.ndarray,
    detected: np.ndarray,
    short: np.ndarray,
    first: np.ndarray,
    valid: np.ndarray,
) -> list[SwitchEvaluation]:
    """Shared epilogue: per-SM latencies and each pass's outcome.

    Block arrays have a leading pass axis (a single evaluation passes a
    block of one).  The per-SM arrays are filled block-wide; the
    per-pass maximum and verdict run on Python floats and booleans.
    """
    n_pass, n_sm, n_iter = ends.shape
    status[valid] = int(SmStatus.OK)

    per_sm = np.full((n_pass, n_sm), np.nan)
    latencies: list[list[float]] = [[] for _ in range(n_pass)]
    b_idx, s_idx = np.nonzero(valid)
    if b_idx.size:
        # Point-indexed gather: valid only ever holds detected rows, whose
        # first-index is in range.
        te = ends[b_idx, s_idx, first[b_idx, s_idx]]
        te -= np.asarray(ts_list)[b_idx]
        per_sm[b_idx, s_idx] = te
        for b, latency in zip(b_idx.tolist(), te.tolist()):
            latencies[b].append(latency)
    detection = np.where(first < n_iter, first, -1)
    any_post = has_post.any(axis=1).tolist()
    any_detected = detected.any(axis=1).tolist()
    any_long = (detected & ~short).any(axis=1).tolist()

    evaluations = []
    for b in range(n_pass):
        if latencies[b]:
            latency = max(latencies[b])
            te_overall = ts_list[b] + latency
            reason = "ok"
        else:
            latency = None
            te_overall = None
            if not any_post[b]:
                reason = "no-post-switch-iterations"
            elif not any_detected[b]:
                reason = "no-detection"
            elif any_long[b]:
                reason = "confirmation-failed"
            else:
                reason = "short-tail"
        evaluations.append(
            SwitchEvaluation(
                latency_s=latency,
                te_acc=te_overall,
                per_sm_latency_s=per_sm[b],
                sm_status=status[b],
                detection_indices=detection[b],
                reason=reason,
            )
        )
    return evaluations


def evaluate_switch(
    raw: RawSwitchData,
    target_stats: SampleStats,
    cfg: LatestConfig,
) -> SwitchEvaluation:
    """Run the phase-3 evaluation over all recorded SMs (vectorized).

    Detection runs on the single pass; confirmation and the epilogue are
    the block path's, on a block of one.
    """
    diffs, ends, ts, has_post, detected, first = _detect(raw, target_stats, cfg)
    return _confirm_and_finish(
        diffs[None], ends[None], [ts], has_post[None], detected[None],
        first[None], target_stats, cfg,
    )[0]


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
    :func:`evaluate_switch_block_deferred` (or from :func:`_detect`, as a
    block of one).
    """
    n_pass, n_sm, n_iter = diffs.shape
    status, short, cut = _classify(has_post, detected, first, n_iter, cfg)

    # Confirmation: difference CI of (tail - target) includes zero, or the
    # mean difference is inside the relative tolerance (Algorithm 2 l. 20).
    # Suffix statistics run per pass with exactly the per-pass row set and
    # matrix slice of a single evaluation — the sub-matrix anchor (the
    # pass's earliest cut) is part of the float-op sequence, so a
    # block-wide anchor would produce ulp-different tail moments.  Only
    # the Welch CI lookup, which is row-pure, batches across the block.
    # Only candidate rows pay for suffix statistics.
    b_idx, s_idx = np.nonzero(detected & ~short)
    valid = np.zeros((n_pass, n_sm), dtype=bool)
    if b_idx.size:
        rows_by_pass: dict[int, list[int]] = {}
        for b, row in zip(b_idx.tolist(), s_idx.tolist()):
            rows_by_pass.setdefault(b, []).append(row)
        cuts = cut.tolist()
        tail_mean: list[float] = []
        tail_var: list[float] = []
        tail_n: list[int] = []
        for b, rows in rows_by_pass.items():
            mean, std, n = _suffix_stats(
                diffs[b], [cuts[b][r] for r in rows], rows
            )
            tail_mean += mean
            # Variance via std*std (not the raw variance) to match the
            # scalar oracle, which round-trips through SampleStats.
            tail_var += [x * x for x in std]
            tail_n += n
        lb, hb = difference_ci_batch(
            tail_mean, tail_var, tail_n, target_stats, cfg.confidence
        )
        tol = cfg.tolerance_rel * target_stats.mean
        ok = ((lb < 0.0) & (0.0 < hb)) | (
            np.abs(np.asarray(tail_mean) - target_stats.mean) < tol
        )
        valid[b_idx, s_idx] = ok

    return _finish(ends, ts_list, status, has_post, detected, short, first, valid)
