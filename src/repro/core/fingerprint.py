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

Every :class:`~repro.core.config.LatestConfig` field can change a
result: the settings that only decide how a campaign runs (workers,
journal, supervision policy, CSV output, calibration cache location) are
executor parameters, not config fields.  So the journal key hashes every
config field, and a resumed or cached campaign may vary any execution
setting.  :func:`config_fields` lets the calibration key leave out the
knobs that only phases 2 and 3 read.
"""

from __future__ import annotations

import dataclasses
import hashlib

__all__ = [
    "canonical",
    "config_fields",
    "content_digest",
]


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


def config_fields(config, excluded: frozenset = frozenset()) -> tuple:
    """``(name, value)`` for every config field not in ``excluded``."""
    return tuple(
        (f.name, getattr(config, f.name))
        for f in dataclasses.fields(config)
        if f.name not in excluded
    )


def content_digest(*parts) -> str:
    """sha256 hex digest of the canonical form of ``parts``."""
    return hashlib.sha256(repr(canonical(parts)).encode("utf-8")).hexdigest()
