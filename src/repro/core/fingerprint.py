"""Canonical content keys shared by the journal and the calibration cache.

A content key must depend on *values* only.  Hashing a raw pickle leaks
object-graph identity into the digest: pickle memoizes shared objects,
and the GPU spec carries lazily populated lookup memos whose sharing
topology changes once any campaign has run in the process — equal
values, different bytes.  :func:`content_digest` therefore hashes the
:func:`canonical` form of its inputs instead: dataclasses reduce to
their declared fields (never ``__dict__``, where the memos live),
sequences and mappings to tagged tuples, and leaves to ``repr`` (exact
for floats).  Two structurally equal inputs always produce the same
digest, in any process and after any history.

:data:`EXECUTION_ONLY_FIELDS` names the config fields that provably
cannot change a measurement — output location, fault injection,
supervision knobs and the calibration cache location.  The executor's
bit-identity contract guarantees they only change scheduling, so every
content key leaves them out and a resumed or cached campaign may
legitimately vary them.
"""

from __future__ import annotations

import dataclasses
import hashlib

__all__ = [
    "EXECUTION_ONLY_FIELDS",
    "canonical",
    "config_fields",
    "content_digest",
]

#: config fields that cannot affect any measurement
EXECUTION_ONLY_FIELDS = frozenset(
    {
        "output_dir",
        "inject_faults",
        "job_timeout_s",
        "max_job_retries",
        "retry_backoff_s",
        "retry_backoff_max_s",
        "calibration_cache",
    }
)


def canonical(value):
    """Identity-insensitive canonical form of a content-key input."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, canonical(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, (tuple, list)):
        return ("seq", tuple(canonical(v) for v in value))
    if isinstance(value, dict):
        return (
            "map",
            tuple(sorted((repr(k), canonical(v)) for k, v in value.items())),
        )
    return repr(value)


def config_fields(config, excluded: frozenset) -> tuple:
    """``(name, value)`` for every config field not in ``excluded``."""
    return tuple(
        (f.name, getattr(config, f.name))
        for f in dataclasses.fields(config)
        if f.name not in excluded
    )


def content_digest(*parts) -> str:
    """sha256 hex digest of the canonical form of ``parts``."""
    return hashlib.sha256(repr(canonical(parts)).encode("utf-8")).hexdigest()
