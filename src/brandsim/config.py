"""Every input rule: :class:`ConfigurationError`, which every input check raises,
:class:`Mode`, :class:`SimConfig`, the one config type, which a run and its kernels
both take, the coercions and bounds that :mod:`brandsim.model` applies too, and
the ``key = value`` config-file format.  The package's bottom layer: it imports
nothing from the package.  ``_KINDS`` gives each annotation its converter, the
wording of its parse error and its coercion.

A config file is flat UTF-8 text, one ``key = value`` per line, with ``#``
starting a comment.  Keys are exactly the :class:`SimConfig` field names;
unknown or duplicate keys are errors.  The field annotations define each
key's type in the file (a ``tuple[int, ...]`` is a comma list; ``None`` is
written by leaving the key out).  The keys of fields without a default are
required, everything else falls back to the documented default.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Sequence


class ConfigurationError(ValueError):
    """Raised when run parameters or inputs violate a documented precondition."""


#: Largest number of subentries a single need may carry.
MAX_SUBENTRIES = 5


class Mode(enum.Enum):
    """Which pair-interaction kernel a run uses."""

    EQUALITY = "equality"
    HIERARCHY = "hierarchy"


def _coerce_int(name: str, value) -> int:
    """``value`` as a Python int; anything but an integer (a bool, a float, a
    string) is a :class:`ConfigurationError` naming ``name``, never truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _coerce_float(name: str, value) -> float:
    """``value`` as a Python float; a bool or a non-real is a :class:`ConfigurationError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    return float(value)


def _coerce_ints(name: str, values) -> tuple[int, ...]:
    """:func:`_coerce_int` over ``values``, which must be iterable."""
    try:
        items = iter(values)
    except TypeError:
        raise ConfigurationError(f"{name} must be a sequence, got {values!r}") from None
    return tuple(_coerce_int(f"{name} entry", v) for v in items)


def check_shop_counts(shop_counts: Sequence[int], N: int) -> tuple[int, ...]:
    """The shop counts as a tuple of Python ints: one per brand, each >= 1.

    A tuple rather than an int64 array, so a count too large for 64 bits
    stays valid wherever no shop event is drawn (a teaching rate of 0).
    """
    counts = _coerce_ints("shop_counts", shop_counts)
    if len(counts) != N:
        raise ConfigurationError(
            f"shop_counts must have one entry per brand (N={N}), got {len(counts)}"
        )
    if any(s < 1 for s in counts):
        raise ConfigurationError("shop_counts entries must be >= 1")
    return counts


def shop_event_count(shop_teach_rate: float, shop_count: int) -> int:
    """Teaching events one brand performs per sweep (banker's rounding)."""
    return int(round(shop_teach_rate * shop_count))


def _fits(cells: int) -> bool:
    """Whether a float64 array of ``cells`` cells is within numpy's size limit in bytes."""
    return 8 * cells <= sys.maxsize


# per field annotation, "X | None" as X: its config-file converter, the wording
# of the error when that converter fails, and its constructor coercion
_KINDS = {
    "int": (int, "expects an integer", _coerce_int),
    "float": (float, "expects a number", _coerce_float),
    "Mode": (lambda text: Mode(text.strip().lower()),
             f"must be one of {sorted(m.value for m in Mode)}", None),
    "tuple[int, ...]": (lambda text: tuple(int(part) for part in text.split(",")),
                        "expects comma-separated integers", None),
}
_KINDS.update({f"{annotation} | None": kind for annotation, kind in _KINDS.items()})


@dataclass(frozen=True, kw_only=True)
class SimConfig:
    """Everything a run needs besides the generator itself, and the one config type:
    the kernels take a run's config as it is and read only its three rates,
    ``p_copy``, ``leader_pupils`` and ``shop_teach_rate``."""

    p_copy: float = 1.0
    leader_pupils: int = 0
    shop_teach_rate: float = 0.0
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
        # every int and float field, in field order; an annotation ending in "| None"
        # lets None through
        for f in fields(self):
            coerce = _KINDS[f.type][2]
            value = getattr(self, f.name)
            if coerce is not None and not (value is None and f.type.endswith(" | None")):
                object.__setattr__(self, f.name, coerce(f.name, value))
        # the kernel rates first, ahead of the mode and the sizes
        if not 0.0 <= self.p_copy <= 1.0:
            raise ConfigurationError(f"p_copy must lie in [0, 1], got {self.p_copy}")
        if self.leader_pupils < 0:
            raise ConfigurationError(f"leader_pupils must be >= 0, got {self.leader_pupils}")
        if not 0.0 <= self.shop_teach_rate < math.inf:
            raise ConfigurationError(
                f"shop_teach_rate must be finite and >= 0, got {self.shop_teach_rate}"
            )
        if not isinstance(self.mode, Mode):
            raise ConfigurationError(f"mode must be a Mode value, got {self.mode!r}")
        if self.N < 1:
            raise ConfigurationError(f"N must be >= 1, got {self.N}")
        if self.K < 2:
            raise ConfigurationError(f"K must be >= 2, got {self.K}")
        if self.M < 1:
            raise ConfigurationError(f"M must be >= 1, got {self.M}")
        # the widest array a run allocates has max(N, K) rows of at most 5 * M slots
        if not _fits(max(self.N, self.K) * MAX_SUBENTRIES * self.M):
            raise ConfigurationError(
                f"N, K and M ask for arrays larger than numpy can allocate: 8 bytes * "
                f"max(N, K) * {MAX_SUBENTRIES} * M must stay at most {sys.maxsize} bytes"
            )
        if not 0 <= self.seed < 1 << 64:
            raise ConfigurationError("seed must be an unsigned 64-bit integer")
        if not 0.0 <= self.p_unknown <= 1.0:
            raise ConfigurationError(f"p_unknown must lie in [0, 1], got {self.p_unknown}")
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
            if not _fits(4 * shop_events):
                raise ConfigurationError(
                    "shop_teach_rate * shop_counts asks for more shop events per sweep "
                    "than one array can hold: 8 bytes * 4 uniforms * events must stay "
                    f"at most {sys.maxsize} bytes"
                )
        if not self.epsilon > 0.0:
            raise ConfigurationError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_sweeps < 1:
            raise ConfigurationError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if self.record_every < 1:
            raise ConfigurationError(f"record_every must be >= 1, got {self.record_every}")


# per field: its converter and error wording; an annotation _KINDS lacks fails here, at import
_FIELD_KINDS = {f.name: _KINDS[f.type][:2] for f in fields(SimConfig)}


def parse_value(key: str, text: str):
    """Parse one config-file value for ``key``, as a ``key = value`` line would."""
    convert, wording = _FIELD_KINDS[key]
    try:
        return convert(text)
    except ValueError:
        raise ConfigurationError(f"{key} {wording}, got {text!r}") from None


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
