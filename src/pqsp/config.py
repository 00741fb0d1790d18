"""Experiment configuration, state loading, and run records.

Configs are validated up front (unknown fields rejected) so a batch job
fails before any simulation starts.  A RunRecord pairs the config snapshot
with the report and a content hash of the inputs; replaying the same config
and seed reproduces value and std_error bit for bit, with wall-clock
duration the only field excluded from that guarantee.
"""

from __future__ import annotations

import hashlib
import json
from typing import Literal, Optional, Union

from pydantic import BaseModel, ConfigDict, Field, field_validator, model_validator

from .errors import InputError
from .sim import DensityMatrix

__all__ = ["ExperimentConfig", "RunRecord", "resolve_state", "config_hash"]

PropertyName = Literal["trace", "renyi", "von-neumann", "partition"]


class ExperimentConfig(BaseModel):
    """One estimation task: what to measure, on which state, at what budget."""

    model_config = ConfigDict(extra="forbid")

    property: PropertyName
    state: str
    poly: Optional[str] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    k: int = Field(default=1, ge=1)
    epsilon: float = Field(default=0.05, gt=0.0)
    shots: Union[int, Literal["auto"], None] = None
    mode: Literal["exact", "sampled"] = "exact"
    seed: Optional[int] = None
    delta: Union[float, Literal["auto"]] = "auto"
    rank: Optional[int] = Field(default=None, ge=1)
    log2: bool = False
    out: Optional[str] = None
    csv: Optional[str] = None

    @field_validator("shots")
    @classmethod
    def _positive_shots(cls, v):
        if isinstance(v, int) and v < 1:
            raise ValueError(f"shots must be positive, got {v}")
        return v

    @model_validator(mode="after")
    def _property_fields(self) -> "ExperimentConfig":
        if self.property == "trace" and not self.poly:
            raise ValueError("property 'trace' needs --poly with the target polynomial")
        if self.property == "renyi" and self.alpha is None:
            raise ValueError("property 'renyi' needs --alpha")
        if self.property == "partition" and self.beta is None:
            raise ValueError("property 'partition' needs --beta")
        if self.mode == "sampled" and self.shots is None:
            raise ValueError("sampled mode needs --shots or --auto-shots")
        return self


def resolve_state(spec: str) -> DensityMatrix:
    """Named generator ("pure:D", "maximally_mixed:D", "diag:p1,p2,...",
    "random:D:seed") or a path to a density-matrix JSON file."""
    head, _, rest = spec.partition(":")
    try:
        if head == "pure":
            return DensityMatrix.pure(int(rest))
        if head == "maximally_mixed":
            return DensityMatrix.maximally_mixed(int(rest))
        if head == "diag":
            return DensityMatrix.diagonal([float(x) for x in rest.split(",")])
        if head == "random":
            dim_s, _, seed_s = rest.partition(":")
            return DensityMatrix.random_seeded(int(dim_s), int(seed_s or 0))
    except ValueError as exc:
        raise InputError(f"malformed state spec {spec!r}: {exc}") from exc
    try:
        with open(spec, encoding="utf-8") as fh:
            return DensityMatrix.from_dict(json.load(fh))
    except FileNotFoundError as exc:
        raise InputError(
            f"state {spec!r} is neither a known generator nor a readable file"
        ) from exc
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InputError(f"malformed density-matrix file {spec!r}: {exc}") from exc


def config_hash(config: dict) -> str:
    """Content hash of a config snapshot, independent of key order."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class RunRecord(BaseModel):
    """Config snapshot plus report; the replayable unit of an experiment."""

    model_config = ConfigDict(extra="forbid")

    config: dict
    report: dict
    duration_s: float
    version: str
    input_hash: str

    def to_json(self) -> str:
        return json.dumps(self.model_dump(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        return cls.model_validate(json.loads(text))

    def replay_equal(self, other: "RunRecord") -> bool:
        """Equality up to wall clock: same config, hash, and report."""
        return (
            self.config == other.config
            and self.report == other.report
            and self.version == other.version
            and self.input_hash == other.input_hash
        )
