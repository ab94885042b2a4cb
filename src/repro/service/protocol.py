"""Wire protocol of the EAR service tier.

One transport, two dialects on a single port/socket:

* **JSON lines** — each request is one JSON object terminated by
  ``\\n`` with an ``op`` discriminator (``ping``/``submit``/``status``/
  ``tail``/``metrics``/``drain``/``shutdown``); each response is one
  JSON object with ``ok`` plus op-specific payload.  Connections are
  persistent: a client may pipeline many requests.
* **HTTP GET** — a connection whose first bytes spell ``GET `` is
  answered as a one-shot HTTP/1.1 exchange: ``/metrics`` (Prometheus
  text exposition), ``/events`` (JSONL tail), ``/status`` (JSON).
  This is what lets a stock Prometheus scraper or ``curl`` talk to the
  same endpoint the JSON clients use.

Everything here is transport-agnostic data plumbing; the asyncio
machinery lives in :mod:`repro.service.server`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from ..errors import ConfigError

__all__ = [
    "PROTOCOL_VERSION",
    "JobSpec",
    "encode",
    "decode",
    "int_arg",
    "ok",
    "error",
]

#: Bump when a request/response shape changes incompatibly.
PROTOCOL_VERSION = 1


@dataclass(frozen=True)
class JobSpec:
    """One streamed job submission, as it crosses the wire.

    ``workload`` (required: the empty default is refused) names an
    entry of the server's workload registry (the synthetic campaign mix
    plus the paper kernels); ``scale`` rescales its iteration count,
    exactly like ``TraceConfig.scale`` does for batch traces.
    ``submit_s`` pins the arrival on the *simulation* clock —
    submissions that reach the server before the clock passes that
    instant replay exactly like a batch trace; later ones are admitted
    at the clock's current time.  ``tag`` is an optional
    client-side ordering key: pending jobs are sorted by
    ``(submit_s, tag)`` before admission, which is what makes
    concurrent multi-client submission order-independent.

    The dataclass is the wire schema: :meth:`from_payload` accepts
    exactly its fields, its defaults are the only defaults, and
    ``__post_init__`` is the one place values are coerced and checked.
    A ``null`` stands for "absent" only where the default is ``None``.
    """

    workload: str = ""
    policy: str | None = None
    seed: int = 1
    scale: float = 1.0
    submit_s: float | None = None
    cluster: str = "default"
    tag: int | None = None
    est_margin: float = 1.3

    def __post_init__(self) -> None:
        for name, (kind, nullable) in _SCHEMA.items():
            value = getattr(self, name)
            if value is None:
                if nullable:
                    continue
                raise ConfigError(f"job-spec field {name!r} cannot be null")
            if type(value) is not kind:
                try:
                    value = kind(value)
                except (TypeError, ValueError, OverflowError):
                    raise ConfigError(
                        f"job-spec field {name!r} must be {kind.__name__}, got {value!r}"
                    ) from None
                object.__setattr__(self, name, value)
            if kind is float and not math.isfinite(value):
                raise ConfigError(f"job-spec field {name!r} must be finite")
        if not self.workload:
            raise ConfigError("a job spec needs a workload name")
        if self.scale <= 0:
            raise ConfigError("scale must be positive")
        if self.est_margin < 1.0:
            raise ConfigError("est_margin below 1 would make backfill optimistic")
        if self.submit_s is not None and self.submit_s < 0:
            raise ConfigError("submit_s cannot be negative")

    @classmethod
    def from_payload(cls, payload: dict) -> "JobSpec":
        """Build a spec from a decoded request, rejecting unknown keys."""
        unknown = payload.keys() - _SCHEMA.keys()
        if unknown:
            raise ConfigError(f"unknown job-spec fields: {sorted(unknown)}")
        return cls(**payload)


_SCALARS = {"str": str, "int": int, "float": float}
#: field name -> (coercing scalar type, whether null means "default");
#: the annotations are strings (``from __future__ import annotations``).
_SCHEMA = {
    f.name: (_SCALARS[f.type.removesuffix(" | None")], f.default is None)
    for f in fields(JobSpec)
}


def int_arg(request: dict, key: str, default: int) -> int:
    """Pop an integer request argument; ``ConfigError`` if it is not one."""
    value = request.pop(key, default)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def encode(message: dict) -> bytes:
    """One message as a compact JSON line (the wire unit)."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def decode(line: bytes | str) -> dict:
    """Parse one wire line; raise ``ConfigError`` on malformed input."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError as err:
        raise ConfigError(f"malformed request line: {err}") from None
    if not isinstance(message, dict):
        raise ConfigError("a request must be a JSON object")
    return message


def ok(**payload) -> dict:
    """A success response envelope."""
    return {"ok": True, **payload}


def error(code: str, message: str, **payload) -> dict:
    """A failure response envelope (``code`` is machine-matchable)."""
    return {"ok": False, "error": code, "message": message, **payload}
