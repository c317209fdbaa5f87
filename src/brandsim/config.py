"""Run configuration and the ``key = value`` config-file format.

A config file is flat UTF-8 text, one ``key = value`` per line, with ``#``
starting a comment.  Keys are exactly the :class:`SimConfig` field names;
unknown or duplicate keys are errors.  ``N``, ``K``, ``M``, ``mode`` and
``seed`` are required, everything else falls back to the documented default.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from pathlib import Path

from .dynamics import KernelParams, Mode
from .errors import ConfigurationError

_MODE_NAMES = {"equality": Mode.EQUALITY, "hierarchy": Mode.HIERARCHY}
_MAX_SEED = (1 << 64) - 1


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs besides the generator itself."""

    N: int
    K: int
    M: int
    mode: Mode
    seed: int
    p_copy: float = 1.0
    p_unknown: float = 0.25
    leader_count: int = 0
    leader_pupils: int = 0
    aligned_leader_brand: int | None = None
    shop_counts: tuple[int, ...] | None = None
    shop_teach_rate: float = 0.0
    epsilon: float = 1e-12
    max_sweeps: int = 1000
    record_every: int = 1

    def __post_init__(self) -> None:
        for name in ("N", "K", "M", "seed", "leader_count", "leader_pupils",
                     "max_sweeps", "record_every"):
            _coerce_int(self, name)
        for name in ("p_copy", "p_unknown", "shop_teach_rate", "epsilon"):
            _coerce_float(self, name)
        if self.aligned_leader_brand is not None:
            _coerce_int(self, "aligned_leader_brand")
        if not isinstance(self.mode, Mode):
            raise ConfigurationError(f"mode must be a Mode value, got {self.mode!r}")
        if self.N < 1:
            raise ConfigurationError(f"N must be >= 1, got {self.N}")
        if self.K < 2:
            raise ConfigurationError(f"K must be >= 2, got {self.K}")
        if self.M < 1:
            raise ConfigurationError(f"M must be >= 1, got {self.M}")
        if not 0 <= self.seed <= _MAX_SEED:
            raise ConfigurationError("seed must be an unsigned 64-bit integer")
        # the kernel rates' own checks live in KernelParams; only the K-dependent ones stay here
        KernelParams(self.p_copy, self.leader_pupils, self.shop_teach_rate)
        if not 0.0 <= self.p_unknown <= 1.0:
            raise ConfigurationError(
                f"p_unknown must lie in [0, 1], got {self.p_unknown}"
            )
        if not 0 <= self.leader_count < self.K:
            raise ConfigurationError(
                f"leader_count must lie in [0, K), got {self.leader_count}"
            )
        if self.leader_pupils > self.K - 1:
            raise ConfigurationError(
                f"leader_pupils must be at most K-1, got {self.leader_pupils}"
            )
        if self.leader_count > 0 and self.leader_pupils > self.K - self.leader_count:
            raise ConfigurationError(
                "leader_pupils cannot exceed the number of non-leaders "
                f"(K - leader_count = {self.K - self.leader_count})"
            )
        if self.aligned_leader_brand is not None and not (
            0 <= self.aligned_leader_brand < self.N
        ):
            raise ConfigurationError(
                f"aligned_leader_brand must lie in [0, N), got {self.aligned_leader_brand}"
            )
        if self.shop_counts is None:
            object.__setattr__(self, "shop_counts", (1,) * self.N)
        else:
            counts = tuple(int(s) for s in self.shop_counts)
            object.__setattr__(self, "shop_counts", counts)
            if len(counts) != self.N:
                raise ConfigurationError(
                    f"shop_counts must have N={self.N} entries, got {len(counts)}"
                )
            if any(s < 1 for s in counts):
                raise ConfigurationError("shop_counts entries must be >= 1")
        if not self.epsilon > 0.0:
            raise ConfigurationError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_sweeps < 1:
            raise ConfigurationError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if self.record_every < 1:
            raise ConfigurationError(
                f"record_every must be >= 1, got {self.record_every}"
            )


def _coerce_int(cfg: SimConfig, name: str) -> None:
    value = getattr(cfg, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    object.__setattr__(cfg, name, int(value))


def _coerce_float(cfg: SimConfig, name: str) -> None:
    value = getattr(cfg, name)
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    object.__setattr__(cfg, name, float(value))


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(f"{key} expects an integer, got {text!r}") from None


def _parse_float(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(f"{key} expects a number, got {text!r}") from None


def _parse_mode(key: str, text: str) -> Mode:
    mode = _MODE_NAMES.get(text.strip().lower())
    if mode is None:
        raise ConfigurationError(
            f"{key} must be one of {sorted(_MODE_NAMES)}, got {text!r}"
        )
    return mode


def _parse_int_list(key: str, text: str) -> tuple[int, ...]:
    return tuple(_parse_int(key, part.strip()) for part in text.split(","))


_PARSERS = {
    "N": _parse_int,
    "K": _parse_int,
    "M": _parse_int,
    "mode": _parse_mode,
    "seed": _parse_int,
    "p_copy": _parse_float,
    "p_unknown": _parse_float,
    "leader_count": _parse_int,
    "leader_pupils": _parse_int,
    "aligned_leader_brand": _parse_int,
    "shop_counts": _parse_int_list,
    "shop_teach_rate": _parse_float,
    "epsilon": _parse_float,
    "max_sweeps": _parse_int,
    "record_every": _parse_int,
}

_REQUIRED = ("N", "K", "M", "mode", "seed")

# the parser table and the dataclass must stay in sync
assert set(_PARSERS) == {f.name for f in fields(SimConfig)}


def parse_config_text(text: str) -> SimConfig:
    """Parse config-file content into a validated :class:`SimConfig`."""
    entries: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"line {lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ConfigurationError(f"line {lineno}: unknown config key {key!r}")
        if key in entries:
            raise ConfigurationError(f"line {lineno}: duplicate config key {key!r}")
        if not value:
            raise ConfigurationError(f"line {lineno}: empty value for {key!r}")
        entries[key] = _PARSERS[key](key, value)
    missing = [key for key in _REQUIRED if key not in entries]
    if missing:
        raise ConfigurationError(f"missing required config keys: {', '.join(missing)}")
    return SimConfig(**entries)


def load_config(path) -> SimConfig:
    """Read and validate a config file; missing files raise the usual OSError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    return parse_config_text(text)
