"""Campaign requests: the service's JSON-serializable unit of work.

A :class:`CampaignRequest` carries everything needed to rebuild a
campaign from scratch — the machine recipe (GPU model, seed, hostname,
GPU count) and the :class:`~repro.core.config.LatestConfig` keyword
overrides — plus the service-level tenancy fields (tenant name,
fair-share weight) and the campaign's CSV ``output_dir``.  Every other
execution setting (supervision policy, calibration cache) is the
service's own.  Because the request round-trips through JSON
losslessly (:meth:`CampaignRequest.to_json` /
:meth:`CampaignRequest.from_json`), the service persists each request
next to its journal (``request.json``) and can resume an in-flight
campaign after a crash from nothing but the journal directory.

Determinism note: JSON has no tuple type, so sequence-valued config
fields arrive back as lists.  :meth:`build_config` normalizes every
sequence to a tuple before constructing the config, so a resumed
campaign runs on exactly the config the original request built.  The
campaign fingerprint (:mod:`repro.core.fingerprint`) is canonical over
values and treats a list and a tuple alike, so resume validation does
not depend on that normalization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from repro.core.config import LatestConfig
from repro.errors import ConfigError
from repro.machine import Machine, make_machine

__all__ = ["CampaignRequest"]

#: config fields that carry non-JSON payloads and therefore cannot be
#: set through a service request
_UNSERIALIZABLE = {"ptp_link"}

_CONFIG_FIELDS = {f.name for f in fields(LatestConfig)}


def _normalize(value):
    """Lists (JSON's only sequence) become tuples, recursively."""
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(v) for v in value)
    return value


@dataclass(frozen=True)
class CampaignRequest:
    """One tenant's campaign: machine recipe + config overrides.

    ``config`` holds :class:`~repro.core.config.LatestConfig` keyword
    overrides exactly as a caller would pass them to the constructor.
    Construction builds the config once, so unknown keys, the non-JSON
    ``ptp_link`` and any value the config rejects fail at submit time
    (:class:`~repro.errors.ConfigError`), never mid-campaign.
    """

    #: fair-share queue the campaign bills against
    tenant: str = "default"
    #: relative fair share of the worker fleet (must be > 0)
    weight: float = 1.0
    gpu_model: str = "A100"
    n_gpus: int = 1
    seed: int = 0
    hostname: str = "simnode01"
    #: ``LatestConfig`` keyword overrides (JSON-serializable values only)
    config: dict = field(default_factory=dict)
    #: directory the campaign streams its CSV files into (``None``: none)
    output_dir: "str | None" = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ConfigError("request tenant must be a non-empty string")
        if not self.weight > 0:
            raise ConfigError(
                f"request weight must be > 0, got {self.weight}"
            )
        unknown = set(self.config) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(
                f"unknown config fields in request: {sorted(unknown)}"
            )
        banned = set(self.config) & _UNSERIALIZABLE
        if banned:
            raise ConfigError(
                f"config fields {sorted(banned)} are not JSON-serializable "
                "and cannot be set through a service request"
            )
        self.build_config()

    # ------------------------------------------------------------------
    def build_machine(self) -> Machine:
        """Fresh machine from the recipe."""
        return make_machine(
            gpu_model=self.gpu_model,
            n_gpus=self.n_gpus,
            seed=self.seed,
            hostname=self.hostname,
        )

    def build_config(self) -> LatestConfig:
        """The campaign config, sequences normalized to tuples."""
        return LatestConfig(
            **{key: _normalize(value) for key, value in self.config.items()}
        )

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize; ``from_json`` restores an equivalent request."""
        return json.dumps(
            {
                "tenant": self.tenant,
                "weight": self.weight,
                "gpu_model": self.gpu_model,
                "n_gpus": self.n_gpus,
                "seed": self.seed,
                "hostname": self.hostname,
                "config": self.config,
                "output_dir": self.output_dir,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignRequest":
        """Rebuild a request persisted by :meth:`to_json`."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigError("campaign request JSON must be an object")
        known = {
            "tenant", "weight", "gpu_model", "n_gpus", "seed",
            "hostname", "config", "output_dir",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown campaign request fields: {sorted(unknown)}"
            )
        return cls(**data)
