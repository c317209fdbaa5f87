"""Run configuration and the ``key = value`` config-file format.

A config file is flat UTF-8 text, one ``key = value`` per line, with ``#``
starting a comment.  Keys are exactly the :class:`SimConfig` field names;
unknown or duplicate keys are errors.  The field annotations define each
key's type in the file (a ``tuple[int, ...]`` is a comma list; ``None`` is
written by leaving the key out).  The keys of fields without a default are
required, everything else falls back to the documented default.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .dynamics import KernelParams, Mode, shop_event_count
from .errors import ConfigurationError
from .model import MAX_SUBENTRIES, _coerce_float, _coerce_int, check_shop_counts

_MAX_SEED = (1 << 64) - 1


@dataclass(frozen=True, kw_only=True)
class SimConfig(KernelParams):
    """Everything a run needs besides the generator itself.  The kernel rates are
    declared and checked in the base class :class:`~brandsim.dynamics.KernelParams`;
    the fields declared here are keyword-only."""

    N: int
    K: int
    M: int
    mode: Mode
    seed: int
    p_unknown: float = 0.25
    leader_count: int = 0
    aligned_leader_brand: int | None = None
    shop_counts: tuple[int, ...] | None = None
    epsilon: float = 1e-12
    max_sweeps: int = 1000
    record_every: int = 1

    def __post_init__(self) -> None:
        for name, (_, coerce, optional) in _FIELD_KINDS.items():
            value = getattr(self, name)
            if coerce is not None and not (optional and value is None):
                object.__setattr__(self, name, coerce(name, value))
        if not isinstance(self.mode, Mode):
            raise ConfigurationError(f"mode must be a Mode value, got {self.mode!r}")
        if self.N < 1:
            raise ConfigurationError(f"N must be >= 1, got {self.N}")
        if self.K < 2:
            raise ConfigurationError(f"K must be >= 2, got {self.K}")
        if self.M < 1:
            raise ConfigurationError(f"M must be >= 1, got {self.M}")
        # the widest array a run allocates has max(N, K) rows of at most 5 * M slots
        if max(self.N, self.K) * MAX_SUBENTRIES * self.M > sys.maxsize:
            raise ConfigurationError(
                f"N, K and M ask for arrays larger than any index can address: "
                f"max(N, K) * {MAX_SUBENTRIES} * M must stay at most {sys.maxsize}"
            )
        if not 0 <= self.seed <= _MAX_SEED:
            raise ConfigurationError("seed must be an unsigned 64-bit integer")
        # the kernel rates' own checks live in KernelParams; only the K-dependent ones stay here
        super().__post_init__()
        if not 0.0 <= self.p_unknown <= 1.0:
            raise ConfigurationError(
                f"p_unknown must lie in [0, 1], got {self.p_unknown}"
            )
        if not 0 <= self.leader_count < self.K:
            raise ConfigurationError(
                f"leader_count must lie in [0, K), got {self.leader_count}"
            )
        if self.leader_pupils > self.K - max(self.leader_count, 1):
            raise ConfigurationError(
                f"leader_pupils must be at most K - max(leader_count, 1) = "
                f"{self.K - max(self.leader_count, 1)}, got {self.leader_pupils}"
            )
        if self.aligned_leader_brand is not None and not (
            0 <= self.aligned_leader_brand < self.N
        ):
            raise ConfigurationError(
                f"aligned_leader_brand must lie in [0, N), got {self.aligned_leader_brand}"
            )
        counts = self.shop_counts
        if counts is None:
            try:
                counts = (1,) * self.N
            except MemoryError:
                raise ConfigurationError(
                    f"N = {self.N} brands need more memory than is available"
                ) from None
        object.__setattr__(self, "shop_counts", check_shop_counts(counts, self.N))
        # a sweep draws its shop events' uniforms as one (events, 4) array
        if self.shop_teach_rate > 0.0:
            try:
                shop_events = sum(
                    shop_event_count(self.shop_teach_rate, s) for s in self.shop_counts
                )
            except OverflowError:  # the product left the float range
                shop_events = sys.maxsize
            if 4 * shop_events > sys.maxsize:
                raise ConfigurationError(
                    "shop_teach_rate * shop_counts asks for more shop events per "
                    "sweep than one array can hold"
                )
        if not self.epsilon > 0.0:
            raise ConfigurationError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_sweeps < 1:
            raise ConfigurationError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if self.record_every < 1:
            raise ConfigurationError(
                f"record_every must be >= 1, got {self.record_every}"
            )


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
    try:
        return Mode(text.strip().lower())
    except ValueError:
        raise ConfigurationError(
            f"{key} must be one of {sorted(m.value for m in Mode)}, got {text!r}"
        ) from None


def _parse_int_list(key: str, text: str) -> tuple[int, ...]:
    return tuple(_parse_int(key, part.strip()) for part in text.split(","))


# per annotation, less any "| None": the config-file parser and the coercion
# SimConfig applies to a constructor value (None where its own checks do that)
_KINDS = {
    "int": (_parse_int, _coerce_int),
    "float": (_parse_float, _coerce_float),
    "Mode": (_parse_mode, None),
    "tuple[int, ...]": (_parse_int_list, None),
}
# per field: its parser, its coercion and whether it admits None; an
# annotation that no parser reads fails here, at import
_FIELD_KINDS = {f.name: (*_KINDS[f.type.removesuffix(" | None")], f.type.endswith(" | None"))
                for f in fields(SimConfig)}


def parse_value(key: str, text: str):
    """Parse one config-file value for ``key``, as a ``key = value`` line would."""
    return _FIELD_KINDS[key][0](key, text)


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
        if key not in _FIELD_KINDS:
            raise ConfigurationError(f"line {lineno}: unknown config key {key!r}")
        if key in entries:
            raise ConfigurationError(f"line {lineno}: duplicate config key {key!r}")
        if not value:
            raise ConfigurationError(f"line {lineno}: empty value for {key!r}")
        entries[key] = parse_value(key, value)
    missing = [f.name for f in fields(SimConfig)
               if f.default is MISSING and f.name not in entries]
    if missing:
        raise ConfigurationError(f"missing required config keys: {', '.join(missing)}")
    return SimConfig(**entries)


def load_config(path) -> SimConfig:
    """Read and validate a config file; missing files raise the usual OSError."""
    try:
        # utf-8-sig also reads the byte-order mark some editors write first
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    return parse_config_text(text)
