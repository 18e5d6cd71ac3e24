"""CSV persistence with the LATEST naming convention (paper Sec. VI).

"After each frequency pair measurement, the switching latencies are output
to a .csv file.  The .csv filename contains the initial, the target
frequency, the hostname, and the index of the benchmarked GPU."

Core×memory campaigns write ``swlatm_`` files carrying the locked memory
clock as an extra field between the target frequency and the hostname.
The distinct prefix keeps parsing unambiguous in both directions: a
``swlat_`` name can never yield a memory clock (even for pre-extension
archives whose unsanitized hostname happens to start with ``mem<digits>_``),
and a ``swlatm_`` name always carries one.

Non-default *axis* campaigns (:mod:`repro.core.axis`) reuse the same
prefix convention: each registered axis owns a prefix (``swlatmem_`` for
memory-clock pairs, ``swlatpow_`` for power-limit pairs in watts); the
locked SM clock of a single-facet campaign lives in the campaign summary,
not the file name.  Multi-facet sweeps (several locked SM clocks) append
``f`` to the axis prefix and carry the facet clock as an extra field —
mirroring how ``swlatm_`` extends ``swlat_``: ``swlatmemf_1215_810_1410_…``
is the 1215→810 MHz memory pair measured at a locked 1410 MHz SM clock.
The prefix family is the axis/facet tag, so every name round-trips to the
right :class:`~repro.core.results.PairResult` axis without side-band
metadata; the prefix table is built from the axis registry, so a new axis
gets a parseable name family for free.

Hostnames are sanitized on write (only ``[A-Za-z0-9.-]`` survives — a
hostname containing ``/`` or leading dots must not be able to escape the
output directory or collide with the ``swlat_`` field layout) and names are
validated on read: anything that does not match the convention raises
:class:`~repro.errors.MeasurementError` instead of silently recovering
wrong frequencies.
"""

from __future__ import annotations

import csv
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.axis import AXES, axis_by_name
from repro.core.results import (
    CampaignResult,
    OutlierLabels,
    PairResult,
    ResultAccumulator,
    SwitchingLatencyMeasurement,
)
from repro.core.stream import (
    CampaignFinished,
    CampaignSink,
    CampaignStarted,
    PairMeasured,
)
from repro.errors import MeasurementError

__all__ = [
    "CsvStreamSink",
    "PairCsvName",
    "pair_csv_name",
    "parse_pair_csv_name",
    "parse_pair_csv_name_full",
    "sanitize_hostname",
    "summary_interrupted",
    "write_pair_csv",
    "read_pair_csv",
    "write_campaign_csvs",
    "write_summary_csv",
]

_FIELDS = [
    "index",
    "latency_ms",
    "ts_acc_s",
    "te_acc_s",
    "n_valid_sm",
    "window_iterations",
    "cluster_label",
    "is_outlier",
    "ground_truth_ms",
    "ground_truth_outlier",
]
_HEADER = ",".join(_FIELDS) + "\r\n"

#: characters allowed to survive in a hostname embedded in a file name
_HOST_UNSAFE_RE = re.compile(r"[^A-Za-z0-9.-]")

#: a frequency/limit field of a pair CSV name
_FIELD = r"[0-9.eE+-]+"
#: name body after the prefix; the host part is greedy so hostnames may
#: contain underscores (the numeric fields sit at fixed positions)
_PAIR_BODY_RE = re.compile(
    rf"^(?P<init>{_FIELD})_(?P<target>{_FIELD})"
    rf"_(?P<host>.+)_gpu(?P<index>\d+)$"
)
#: body of prefixes that carry a facet field (``swlatm`` grid names, and
#: every ``<axis prefix>f`` multi-facet name)
_FACET_BODY_RE = re.compile(
    rf"^(?P<init>{_FIELD})_(?P<target>{_FIELD})_(?P<facet>{_FIELD})"
    rf"_(?P<host>.+)_gpu(?P<index>\d+)$"
)


def _prefix_table() -> dict[str, tuple[str, bool]]:
    """``prefix -> (axis name, carries facet field)``, registry-driven.

    Built on demand from :data:`repro.core.axis.AXES` so a newly
    registered axis parses without touching this module.  The two legacy
    prefixes keep their historical meaning: ``swlat`` (fixed-memory SM
    pairs) and ``swlatm`` (SM pairs at a locked memory clock).
    """
    table: dict[str, tuple[str, bool]] = {
        "swlat": ("sm_core", False),
        "swlatm": ("sm_core", True),
    }
    for ax in AXES.values():
        if ax.is_default:
            continue
        table[ax.csv_prefix] = (ax.name, False)
        table[ax.csv_prefix + "f"] = (ax.name, True)
    return table


def sanitize_hostname(hostname: str) -> str:
    """Make a hostname safe to embed in a pair CSV file name.

    Path separators, ``..`` runs and anything outside ``[A-Za-z0-9.-]``
    are replaced/stripped; an empty result falls back to ``"host"`` so the
    name always keeps its field count.
    """
    cleaned = _HOST_UNSAFE_RE.sub("-", hostname).lstrip(".")
    return cleaned or "host"


def pair_csv_name(
    init_mhz: float,
    target_mhz: float,
    hostname: str,
    device_index: int,
    memory_mhz: float | None = None,
    axis: str = "sm_core",
    locked_sm_mhz: float | None = None,
) -> str:
    """Standardized per-pair file name (hostname sanitized).

    The prefix encodes the axis/facet kind: ``swlat`` for legacy SM
    pairs, ``swlatm`` for SM pairs at a locked memory clock (the extra
    field), the axis's own prefix (``swlatmem``, ``swlatpow``, ...) for
    non-default-axis pairs — with an ``f`` suffix and the locked-SM facet
    as the extra field when the pair belongs to a multi-facet sweep.
    """
    if axis != "sm_core":
        if memory_mhz is not None:
            raise MeasurementError(
                f"{axis}-axis pairs carry no memory facet field (the "
                "locked complement is the SM clock)"
            )
        prefix = axis_by_name(axis).csv_prefix
        facet = ""
        if locked_sm_mhz is not None:
            prefix += "f"
            facet = f"{locked_sm_mhz:g}_"
    else:
        if locked_sm_mhz is not None:
            raise MeasurementError(
                "locked-SM facet fields only apply to non-default axes "
                "(the sm_core axis sweeps the SM clock itself)"
            )
        prefix = "swlat" if memory_mhz is None else "swlatm"
        facet = "" if memory_mhz is None else f"{memory_mhz:g}_"
    return (
        f"{prefix}_{init_mhz:g}_{target_mhz:g}_{facet}"
        f"{sanitize_hostname(hostname)}_gpu{device_index}.csv"
    )


@contextmanager
def _atomic_write(path: Path, binary: bool = False):
    """Write-then-rename so readers never see a half-written CSV.

    A campaign killed mid-write (crash, SIGKILL, power loss) must not
    leave a truncated file under the standardized name — downstream
    analysis would parse it as a short-but-valid campaign.  The temp file
    lives in the same directory so ``os.replace`` stays atomic (same
    filesystem); on error it is removed and the original, if any,
    survives untouched.  ``binary`` yields a bytes handle, which opens
    faster than a text one.
    """
    tmp = f"{path}.tmp"
    fh = open(tmp, "wb") if binary else open(tmp, "w", newline="")
    try:
        yield fh
        fh.close()
        os.replace(tmp, path)
    except BaseException:
        fh.close()
        try:
            os.unlink(tmp)
        except FileNotFoundError:  # pragma: no cover
            pass
        raise


def write_pair_csv(
    directory: str | Path,
    pair: PairResult,
    hostname: str,
    device_index: int,
) -> Path:
    """Write one pair's measurements; returns the file path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return _write_pair_csv(directory, pair, hostname, device_index)


def _write_pair_csv(
    directory: Path, pair: PairResult, hostname: str, device_index: int
) -> Path:
    """:func:`write_pair_csv` into an existing directory, in one write."""
    path = directory / pair_csv_name(
        pair.init_mhz, pair.target_mhz, hostname, device_index,
        memory_mhz=pair.memory_mhz, axis=pair.axis,
        locked_sm_mhz=pair.locked_sm_mhz,
    )
    with _atomic_write(path, binary=True) as fh:
        fh.write(_pair_csv_text(pair).encode())
    return path


def _pair_csv_text(pair: PairResult) -> str:
    """One pair's CSV, byte for byte what ``csv.DictWriter`` writes.

    The excel dialect ends lines with ``\\r\\n`` and quotes only fields
    holding a delimiter, quote or line break, which no numeric field
    does; a missing ground truth is an empty field.
    """
    labels = (
        pair.outliers.labels.tolist()
        if pair.outliers is not None
        else [0] * len(pair.measurements)
    )
    lines = [_HEADER]
    for i, m in enumerate(pair.measurements):
        label = int(labels[i])
        truth = (
            "" if m.ground_truth_s is None else f"{m.ground_truth_s * 1e3:.6f}"
        )
        lines.append(
            f"{i},{m.latency_s * 1e3:.6f},{m.ts_acc:.9f},{m.te_acc:.9f},"
            f"{m.n_valid_sm},{m.window_iterations},{label},"
            f"{int(label == -1)},{truth},{int(m.ground_truth_outlier)}\r\n"
        )
    return "".join(lines)


@dataclass(frozen=True)
class PairCsvName:
    """Every field recovered from a standardized pair CSV file name."""

    init_mhz: float
    target_mhz: float
    memory_mhz: float | None
    axis: str
    #: locked-SM facet of a multi-facet swept-axis name (``None`` for
    #: single-facet and default-axis names)
    locked_sm_mhz: float | None = None


def parse_pair_csv_name_full(name: str) -> PairCsvName:
    """Recover all fields (including the axis) from a pair CSV file name.

    Raises :class:`MeasurementError` when the name does not follow the
    convention — silent misparses would attribute measurements to wrong
    frequencies downstream.
    """
    stem = Path(name).stem
    prefix, sep, body = stem.partition("_")
    kind = _prefix_table().get(prefix)
    if not sep or kind is None:
        raise MeasurementError(f"not a pair CSV: {name}")
    axis, has_facet = kind
    match = (_FACET_BODY_RE if has_facet else _PAIR_BODY_RE).match(body)
    if match is None:
        raise MeasurementError(f"not a pair CSV: {name}")
    try:
        init_mhz = float(match["init"])
        target_mhz = float(match["target"])
        facet = float(match["facet"]) if has_facet else None
    except ValueError:
        raise MeasurementError(
            f"malformed frequency fields in pair CSV name: {name}"
        ) from None
    grid = axis == "sm_core" and has_facet
    return PairCsvName(
        init_mhz=init_mhz,
        target_mhz=target_mhz,
        memory_mhz=facet if grid else None,
        axis=axis,
        locked_sm_mhz=facet if (has_facet and not grid) else None,
    )


def parse_pair_csv_name(name: str) -> tuple[float, float, float | None]:
    """Recover ``(init, target, memory)`` from a pair CSV file name.

    The tuple form predates measurement axes; use
    :func:`parse_pair_csv_name_full` to also recover the axis a
    ``swlatmem_`` name carries.
    """
    parsed = parse_pair_csv_name_full(name)
    return parsed.init_mhz, parsed.target_mhz, parsed.memory_mhz


def read_pair_csv(path: str | Path) -> PairResult:
    """Load a per-pair CSV back into a :class:`PairResult`.

    The frequencies (and memory clock, when present) are recovered from
    the standardized file name; cluster labels are restored as an
    :class:`~repro.core.results.OutlierLabels` record (the DBSCAN descent
    trace is not persisted), so outlier filtering and a re-write are
    byte-stable against the original.

    One caveat the frozen CSV format cannot avoid: a pair persisted
    *before* clustering ever ran (``outliers=None``) writes the same
    all-zero label column as a genuine single-cluster/no-outlier result,
    so it reads back with ``n_clusters == 1`` rather than 0.  Masks,
    filtered latencies, and re-written bytes are identical either way.
    """
    path = Path(path)
    parsed = parse_pair_csv_name_full(path.name)

    measurements: list[SwitchingLatencyMeasurement] = []
    labels: list[int] = []
    with path.open() as fh:
        for row in csv.DictReader(fh):
            gt = row.get("ground_truth_ms", "")
            labels.append(int(row.get("cluster_label", 0) or 0))
            measurements.append(
                SwitchingLatencyMeasurement(
                    latency_s=float(row["latency_ms"]) * 1e-3,
                    ts_acc=float(row["ts_acc_s"]),
                    te_acc=float(row["te_acc_s"]),
                    n_valid_sm=int(row["n_valid_sm"]),
                    window_iterations=int(row["window_iterations"]),
                    ground_truth_s=float(gt) * 1e-3 if gt else None,
                    ground_truth_outlier=bool(int(row["ground_truth_outlier"])),
                )
            )
    outliers = (
        OutlierLabels(labels=np.asarray(labels, dtype=np.int64))
        if measurements
        else None
    )
    return PairResult(
        init_mhz=parsed.init_mhz,
        target_mhz=parsed.target_mhz,
        measurements=measurements,
        outliers=outliers,
        memory_mhz=parsed.memory_mhz,
        axis=parsed.axis,
        locked_sm_mhz=parsed.locked_sm_mhz,
    )


class CsvStreamSink(CampaignSink):
    """Incremental CSV output driven by the campaign event stream.

    Writes each measured pair's CSV the moment its
    :class:`~repro.core.stream.PairMeasured` event arrives — including
    journal replays on resume; registered after a journal, that is right
    after the journal has fsync'd the pair's group — instead of waiting
    for the campaign to finish, and the campaign summary on
    :class:`~repro.core.stream.CampaignFinished`.  Because
    :func:`write_pair_csv` is a pure function of the pair (and the
    atomic write-then-rename makes re-writes idempotent), the final
    directory contents are byte-identical to a single
    :func:`write_campaign_csvs` call on the completed result, for every
    execution tier and completion order.

    An interrupted campaign leaves the pair CSVs written so far (each
    complete and valid — the durable observable counterpart of the
    journal) plus a *partial* summary terminated by a ``# interrupted``
    footer row (written from the :meth:`on_interrupt` hook).  The footer
    disambiguates the three terminal states ``--resume`` tooling can
    meet: a summary without the footer is a completed campaign, a
    summary *with* it is a cleanly-interrupted one, and pair CSVs with
    no summary at all mean the driver died mid-write (the atomic
    write-then-rename never leaves a truncated summary).
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.paths: list[Path] = []
        self._accumulator = ResultAccumulator()
        self._hostname = "host"
        self._device_index = 0
        self._made_directory = False

    def on_event(self, event) -> None:
        self._accumulator.on_event(event)
        if isinstance(event, CampaignStarted):
            self._hostname = event.hostname
            self._device_index = event.device_index
        elif isinstance(event, PairMeasured):
            pair = event.pair
            if not pair.skipped and pair.n_measurements > 0:
                if not self._made_directory:
                    self.directory.mkdir(parents=True, exist_ok=True)
                    self._made_directory = True
                self.paths.append(
                    _write_pair_csv(
                        self.directory,
                        pair,
                        self._hostname,
                        self._device_index,
                    )
                )
        elif isinstance(event, CampaignFinished):
            self.paths.append(
                write_summary_csv(self.directory, self._accumulator.result())
            )

    def on_interrupt(self) -> None:
        """Write the partial summary with its ``# interrupted`` footer.

        No-op before ``CampaignStarted`` (nothing is known about the
        campaign yet, and no pair CSV was written either).
        """
        try:
            result = self._accumulator.partial_result()
        except MeasurementError:
            return
        self.paths.append(
            write_summary_csv(self.directory, result, interrupted=True)
        )


def summary_interrupted(path: str | Path) -> bool:
    """Whether a summary CSV carries the ``# interrupted`` footer.

    ``--resume`` tooling uses this to tell a cleanly-interrupted
    campaign (partial summary, footer present) from a completed one
    (summary, no footer); a missing summary means the driver crashed
    before the interrupt hook could run.
    """
    last = ""
    with Path(path).open() as fh:
        for line in fh:
            if line.strip():
                last = line.strip()
    return last.startswith("# interrupted")


def write_campaign_csvs(directory: str | Path, result: CampaignResult) -> list[Path]:
    """Write every measured pair plus the campaign summary."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = [
        _write_pair_csv(directory, pair, result.hostname, result.device_index)
        for pair in result.iter_measured()
    ]
    paths.append(write_summary_csv(directory, result))
    return paths


def write_summary_csv(
    directory: str | Path,
    result: CampaignResult,
    interrupted: bool = False,
) -> Path:
    """One row per pair: status and headline statistics.

    Core×memory campaigns add a ``memory_mhz`` column; non-default-axis
    campaigns add an ``axis`` column (and, single-facet, a
    ``#locked_sm_mhz`` metadata footer, grid-CSV style); multi-facet
    sweeps add a ``locked_sm_mhz`` column instead; legacy campaigns keep
    the original column set byte for byte.  ``interrupted=True`` writes
    a partial summary (only the pairs that streamed before the
    interrupt) terminated by a ``# interrupted`` footer row — see
    :class:`CsvStreamSink` for the three-way terminal-state contract.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (
        f"summary_{sanitize_hostname(result.hostname)}"
        f"_gpu{result.device_index}.csv"
    )
    has_memory = result.memory_frequencies is not None
    has_sm_facets = result.locked_sm_frequencies is not None
    tagged_axis = result.axis != "sm_core"
    with _atomic_write(path) as fh:
        writer = csv.writer(fh)
        header = ["init_mhz", "target_mhz"]
        if tagged_axis:
            header.append("axis")
        if has_memory:
            header.append("memory_mhz")
        if has_sm_facets:
            header.append("locked_sm_mhz")
        header += [
            "status",
            "n_measurements",
            "n_outliers",
            "min_ms",
            "mean_ms",
            "max_ms",
            "n_clusters",
        ]
        writer.writerow(header)
        for pair in result.pairs.values():
            prefix = [f"{pair.init_mhz:g}", f"{pair.target_mhz:g}"]
            if tagged_axis:
                prefix.append(pair.axis)
            if has_memory:
                prefix.append(
                    f"{pair.memory_mhz:g}" if pair.memory_mhz is not None else ""
                )
            if has_sm_facets:
                prefix.append(
                    f"{pair.locked_sm_mhz:g}"
                    if pair.locked_sm_mhz is not None
                    else ""
                )
            if pair.skipped or pair.n_measurements == 0:
                writer.writerow(
                    prefix + [pair.skip_reason or "empty", 0, 0, "", "", "", 0]
                )
                continue
            stats = pair.stats(without_outliers=True)
            n_out = (
                int(pair.outliers.outlier_mask.sum())
                if pair.outliers is not None
                else 0
            )
            writer.writerow(
                prefix
                + [
                    "ok",
                    pair.n_measurements,
                    n_out,
                    f"{stats.minimum * 1e3:.6f}",
                    f"{stats.mean * 1e3:.6f}",
                    f"{stats.maximum * 1e3:.6f}",
                    pair.n_clusters,
                ]
            )
        if tagged_axis and result.locked_sm_mhz is not None:
            writer.writerow(["#locked_sm_mhz", f"{result.locked_sm_mhz:g}"])
        if interrupted:
            writer.writerow(["# interrupted"])
    return path
