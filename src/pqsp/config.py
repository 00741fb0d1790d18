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
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Literal, Optional, Union, get_args, get_origin, get_type_hints

from .errors import InputError
from .sim import DensityMatrix

__all__ = ["ExperimentConfig", "RunRecord", "resolve_state", "config_hash"]

PropertyName = Literal["trace", "renyi", "von-neumann", "partition"]


def _conform(name: str, value, hint):
    """value as its annotated type; numbers are coerced, nothing else is."""
    kinds = get_args(hint) if get_origin(hint) is Union else (hint,)
    for kind in kinds:
        if get_origin(kind) is Literal:
            if value in get_args(kind):
                return value
        elif kind is float and isinstance(value, numbers.Real):
            return float(value)
        elif kind is int and isinstance(value, numbers.Integral):
            return int(value)
        elif isinstance(value, kind):
            return value
    allowed = [
        " or ".join(map(repr, get_args(k))) if get_origin(k) is Literal
        else "None" if k is type(None) else k.__name__
        for k in kinds
    ]
    raise InputError(f"{name} must be {' or '.join(allowed)}, got {value!r}")


def _conform_fields(obj) -> None:
    hints = get_type_hints(type(obj))
    for f in fields(obj):
        setattr(obj, f.name, _conform(f.name, getattr(obj, f.name), hints[f.name]))


@dataclass
class ExperimentConfig:
    """One estimation task: what to measure, on which state, at what budget."""

    property: PropertyName
    state: str
    poly: Optional[str] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    k: int = 1
    epsilon: float = 0.05
    shots: Union[int, Literal["auto"], None] = None
    mode: Literal["exact", "sampled"] = "exact"
    seed: Optional[int] = None
    delta: Union[float, Literal["auto"]] = "auto"
    rank: Optional[int] = None
    log2: bool = False

    def __post_init__(self):
        _conform_fields(self)
        if self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        if not self.epsilon > 0.0:
            raise InputError(f"epsilon must be > 0, got {self.epsilon}")
        if self.rank is not None and self.rank < 1:
            raise InputError(f"rank must be >= 1, got {self.rank}")
        if isinstance(self.shots, int) and self.shots < 1:
            raise InputError(f"shots must be positive, got {self.shots}")
        if self.property == "trace" and not self.poly:
            raise InputError("property 'trace' needs --poly with the target polynomial")
        if self.property == "renyi" and self.alpha is None:
            raise InputError("property 'renyi' needs --alpha")
        if self.property == "partition" and self.beta is None:
            raise InputError("property 'partition' needs --beta")
        if self.mode == "sampled" and self.shots is None:
            raise InputError("sampled mode needs --shots or --auto-shots")
        if self.property == "trace" and self.mode == "sampled" and self.shots == "auto":
            raise InputError(
                "property 'trace' has no automatic budget: use --shots, not --auto-shots"
            )


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
    except InputError:
        raise  # a generator's own message names what it rejects; InputError is a ValueError
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


@dataclass
class RunRecord:
    """Config snapshot plus report; the replayable unit of an experiment."""

    config: dict
    report: dict
    duration_s: float
    version: str
    input_hash: str

    def __post_init__(self):
        _conform_fields(self)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        """Parse a record file; malformed JSON and unknown, missing or wrong-typed
        fields raise InputError."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"RunRecord: malformed JSON: {exc}") from exc
        names, got = {f.name for f in fields(cls)}, set(obj) if isinstance(obj, dict) else set()
        if got != names:
            raise InputError(f"RunRecord: missing {sorted(names - got)}, unknown {sorted(got - names)}")
        return cls(**obj)

    def replay_equal(self, other: "RunRecord") -> bool:
        """Equality up to wall clock: same config, hash, and report."""
        return (
            self.config == other.config
            and self.report == other.report
            and self.version == other.version
            and self.input_hash == other.input_hash
        )
