"""Content-addressed job specifications for the execution engine.

Every simulation a figure needs is described by a :class:`JobSpec` — a
frozen, hashable value object naming the workload (app, machine size,
per-PE elements, thread count) and everything that could change the
answer (machine policy switches, the RNG seed, and a fingerprint of the
full :class:`~repro.config.MachineConfig` including its timing model).

``JobSpec.key()`` is the content hash the on-disk cache files are named
after.  Two properties make it safe:

* **Completeness** — the hash covers the schema version, every workload
  parameter, and the machine fingerprint, so a change to any timing
  cost or policy default silently moves every job to a fresh key
  instead of serving stale numbers.
* **Stability** — the hash is computed from a canonical JSON encoding
  (sorted keys, no whitespace variance), so the same spec hashes the
  same across processes and Python versions.

:func:`expand_sweep` turns one thread sweep into jobs and :func:`dedupe`
drops repeats.  Which sweeps a figure needs is decided in
:mod:`repro.experiments.figures`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from ..config import MachineConfig
from ..errors import ConfigError

__all__ = [
    "SCHEMA_VERSION",
    "JobSpec",
    "machine_fingerprint",
    "dedupe",
    "spec_to_dict",
    "expand_sweep",
]

#: Bump when the meaning of a cached result changes (new RunRecord
#: fields, a recalibrated timing model, a simulator fix).  Every cached
#: entry under the old version becomes unreachable — version-based
#: invalidation instead of trusting mtimes.
SCHEMA_VERSION = 1

def machine_fingerprint(config: MachineConfig) -> str:
    """A short stable digest of every field of a machine config.

    Covers the nested :class:`~repro.config.TimingModel` too, so a
    recalibrated cycle cost invalidates cached results without anyone
    remembering to bump the schema version.  ``compiled`` is excluded:
    the cohort compiler is differentially proven byte-identical to the
    interpreter (see :mod:`repro.compile.differential`), so it is an
    execution strategy, not a semantics change, and a :class:`JobSpec`
    never sets it.  Leaving it out also keeps every historical key.
    """
    fields = asdict(config)
    fields.pop("compiled", None)
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True, order=True)
class JobSpec:
    """One simulation the engine may run, memoise, or fetch from disk."""

    app: str
    n_pes: int
    npp: int
    h: int
    em4_mode: bool = False
    network_model: str = "detailed"
    priority_replies: bool = False
    seed: int = 0

    def validate(self) -> None:
        """Raise on an unrunnable spec (unknown app or nonsense sizes)."""
        from ..api import app_names

        if self.app not in app_names():
            # ProgramError, as `repro.get_app` raises for an unknown app.
            from ..errors import ProgramError

            raise ProgramError(
                f"unknown app {self.app!r}; expected one of {', '.join(app_names())}"
            )
        if self.n_pes < 1 or self.npp < 1 or self.h < 1:
            raise ConfigError(f"n_pes/npp/h must be >= 1, got {self}")

    def config(self) -> MachineConfig:
        """The machine this job runs on."""
        return MachineConfig(
            n_pes=self.n_pes,
            em4_mode=self.em4_mode,
            network_model=self.network_model,
            priority_replies=self.priority_replies,
            seed=self.seed,
        )

    def key(self) -> str:
        """Content hash naming this job's cache entry (hex sha256)."""
        payload = {
            "schema": SCHEMA_VERSION,
            "app": self.app,
            "n_pes": self.n_pes,
            "npp": self.npp,
            "h": self.h,
            "seed": self.seed,
            "machine": machine_fingerprint(self.config()),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human-readable label for progress and error messages."""
        extras = []
        if self.em4_mode:
            extras.append("em4")
        if self.network_model != "detailed":
            extras.append(self.network_model)
        if self.priority_replies:
            extras.append("prio")
        if self.seed:
            extras.append(f"seed={self.seed}")
        suffix = f" [{','.join(extras)}]" if extras else ""
        return f"{self.app} P={self.n_pes} n/P={self.npp} h={self.h}{suffix}"


def dedupe(specs: Iterable[JobSpec]) -> list[JobSpec]:
    """Drop duplicate specs, preserving first-seen order."""
    return list(dict.fromkeys(specs))


def spec_to_dict(spec: JobSpec) -> dict:
    """A :class:`JobSpec` as a JSON-safe dict (the cache entry's ``spec``)."""
    return asdict(spec)


def expand_sweep(app: str, n_pes: int, npp: int, threads: Sequence[int]) -> list[JobSpec]:
    """One (app, P, n/P) thread sweep as jobs, skipping h > n/P.

    The skip mirrors the hardware constraint every figure applies: a PE
    cannot run more threads than it holds elements.
    """
    return [JobSpec(app=app, n_pes=n_pes, npp=npp, h=h) for h in threads if h <= npp]
