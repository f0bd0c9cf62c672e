"""Plain-text key-value configuration files.

Format: one ``key = value`` pair per line, ``#`` or ``;`` comments, blank
lines ignored.  Dotted keys group related values, e.g. ``steps_per_mm.x``.
Unknown keys are rejected so typos fail loudly.

Each section is one table of :class:`Key` rows (key name, parser, target
field).  The same table reads a file onto a base object field by field
(:func:`apply_pairs`) and writes an object back out (:func:`dump_pairs`), so
a dumped file loads back to the object it was written from.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from .gcode import Command, CommandKind, GCodeError, parse_line
from .planner import DEFAULT_PROFILE, PrinterProfile
from .tracesim import DEFAULT_NOISE, NoiseModel

__all__ = [
    "ConfigError",
    "Key",
    "keys",
    "mount",
    "PROFILE_KEYS",
    "NOISE_LEVEL_KEYS",
    "DETECTION_KEYS",
    "parse_bool",
    "parse_payload",
    "read_kv_file",
    "apply_pairs",
    "dump_pairs",
    "load_profile",
    "load_noise",
]


class ConfigError(ValueError):
    """Unusable configuration file."""


@dataclass(frozen=True)
class Key:
    """One config key: its name in the file, how its text becomes a value,
    and the field it sets, as a path of attribute names (or dict keys and
    tuple indices) from the object the table applies to."""

    name: str
    parse: Callable[[str], Any]
    path: tuple
    format: Callable[[Any], str] = str


def keys(parse: Callable[[str], Any], *names: str) -> tuple[Key, ...]:
    """Keys whose dotted name is also their field path, e.g. ``max_feed.x``."""
    return tuple(Key(name, parse, tuple(name.split("."))) for name in names)


def mount(table: tuple[Key, ...], path: tuple, prefix: str = "") -> tuple[Key, ...]:
    """A section's keys as seen from an enclosing object: the fields sit
    under ``path`` and the names gain ``prefix``."""
    return tuple(dataclasses.replace(k, name=prefix + k.name, path=(*path, *k.path)) for k in table)


def parse_bool(text: str) -> bool:
    value = text.lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def parse_payload(text: str) -> Command:
    """Parse an attack payload command given as a G-code line."""
    try:
        command = parse_line(text)
    except GCodeError as exc:
        raise ConfigError(f"bad payload {text!r}: {exc}") from None
    if command.kind is CommandKind.OTHER:
        raise ConfigError(f"payload {text!r} is not a supported command")
    return dataclasses.replace(command, raw_text=None)


PROFILE_KEYS = keys(
    float,
    *(f"{group}.{axis}" for group in ("steps_per_mm", "max_feed") for axis in "xyze"),
    "rated_phase_current",
    "default_feed",
)
NOISE_LEVEL_KEYS = keys(float, "idle_noise_sd", "phase_jitter_sd", "amplitude_noise_sd")
DETECTION_KEYS = keys(int, "smoothing_window") + keys(float, "margin") + keys(int, "run_requirement")


def read_kv_file(path: str | Path) -> dict[str, tuple[int, str]]:
    """Each key of the UTF-8 file (a byte-order mark is skipped), mapped to
    its line number and value text."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    pairs: dict[str, tuple[int, str]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{line_no}: empty key")
        if key in pairs:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        pairs[key] = (line_no, value)
    return pairs


def apply_pairs(
    base: Any, table: tuple[Key, ...], pairs: Mapping[str, tuple[int, str]], source: str
) -> Any:
    """A copy of ``base`` with each key in ``pairs`` (as :func:`read_kv_file`
    returns them) set; unset fields keep their base values.  An unknown key
    and a value that does not parse are reported at their line.  Each
    object is rebuilt, and so validated, once with all of its new fields, so
    a valid result never fails on a halfway state."""
    by_name = {key.name: key for key in table}
    changes = {}
    for name, (line_no, text) in pairs.items():
        key = by_name.get(name)
        if key is None:
            raise ConfigError(f"{source}:{line_no}: unknown key {name!r}")
        try:
            changes[key.path] = key.parse(text)
        except ValueError as exc:
            raise ConfigError(f"{source}:{line_no}: bad value for {name!r}: {exc}") from None
    try:
        return _replace(base, changes)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def dump_pairs(obj: Any, table: tuple[Key, ...]) -> str:
    """``key = value`` lines for ``obj`` in table order.  ``None`` values are
    left out, so loading keeps the default for them."""
    lines = []
    for key in table:
        value = _get(obj, key.path)
        if value is not None:
            lines.append(f"{key.name} = {key.format(value)}\n")
    return "".join(lines)


def _get(obj: Any, path: tuple) -> Any:
    for step in path:
        obj = obj[step] if isinstance(obj, (dict, tuple)) else getattr(obj, step)
    return obj


def _replace(obj: Any, changes: dict[tuple, Any]) -> Any:
    """A copy of ``obj`` with the value at each path in ``changes`` set."""
    if () in changes:
        return changes[()]
    by_step: dict[Any, dict[tuple, Any]] = {}
    for path, value in changes.items():
        by_step.setdefault(path[0], {})[path[1:]] = value
    if isinstance(obj, dict):
        return {**obj, **{step: _replace(obj[step], rest) for step, rest in by_step.items()}}
    if isinstance(obj, tuple):
        return tuple(_replace(v, by_step[i]) if i in by_step else v for i, v in enumerate(obj))
    return dataclasses.replace(
        obj, **{step: _replace(getattr(obj, step), rest) for step, rest in by_step.items()}
    )


def load_profile(path: str | Path) -> PrinterProfile:
    """Load a printer profile; missing keys fall back to the default profile."""
    return apply_pairs(DEFAULT_PROFILE, PROFILE_KEYS, read_kv_file(path), str(path))


def load_noise(path: str | Path) -> NoiseModel:
    """Load noise levels; a simulation's seed comes from ``--seed``, not the file."""
    return apply_pairs(DEFAULT_NOISE, NOISE_LEVEL_KEYS, read_kv_file(path), str(path))
