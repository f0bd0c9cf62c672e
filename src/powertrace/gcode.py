"""Minimal G-code dialect for desktop FDM prints.

Supports G0/G1 moves (X/Y/Z/E/F words) and M106/M107 fan control in
absolute-positioning mm / mm-per-minute units.  Everything else is kept as an
opaque passthrough line so that real slicer output survives a parse/serialize
round trip.  Layer boundaries are derived either from ``;LAYER:n`` slicer
comments (when present) or from Z increases.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

__all__ = [
    "GCodeError",
    "CommandKind",
    "Command",
    "GCodeProgram",
    "parse_line",
    "parse_gcode",
    "read_gcode",
    "make_program",
    "serialize",
    "command_text",
]

_LAYER_COMMENT_RE = re.compile(r"^;\s*LAYER\s*:\s*(-?\d+)", re.IGNORECASE)
_WORD_RE = re.compile(r"^([A-Za-z])([-+0-9.]*)$")

# Words accepted on supported commands.  G0 deliberately excludes E: a rapid
# move never extrudes in this dialect.
_MOVE_WORDS = frozenset("XYZEF")
_Z_EPS = 1e-9


class GCodeError(ValueError):
    """Malformed input on a supported command."""


class CommandKind(Enum):
    RAPID_MOVE = "G0"
    LINEAR_MOVE = "G1"
    SET_FAN_SPEED = "fan"
    OTHER = "other"


@dataclass(frozen=True)
class Command:
    """One G-code line.

    Coordinates are absolute millimetres, ``feed`` is mm/min and ``extrusion``
    is the absolute filament position E in mm.  ``raw_text`` preserves the
    original line; commands synthesised in code leave it ``None`` and are
    serialized canonically.
    """

    kind: CommandKind
    x: float | None = None
    y: float | None = None
    z: float | None = None
    extrusion: float | None = None
    feed: float | None = None
    fan_speed: float | None = None
    raw_text: str | None = None

    def __post_init__(self) -> None:
        if self.kind is CommandKind.RAPID_MOVE and self.extrusion is not None:
            raise GCodeError("a rapid move (G0) cannot carry extrusion")
        for name in ("x", "y", "z", "extrusion", "feed", "fan_speed"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise GCodeError(f"non-finite value for {name!r}: {value}")

    @property
    def is_move(self) -> bool:
        return self.kind in (CommandKind.RAPID_MOVE, CommandKind.LINEAR_MOVE)


@dataclass(frozen=True)
class GCodeProgram:
    """Parsed program: ordered commands plus layer index.

    ``layers[n]`` is the index of layer ``n``'s first command, strictly
    increasing.  Commands before the first boundary belong to the pre-layer
    preamble.
    """

    commands: tuple[Command, ...]
    layers: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.commands)

    def layer_slice(self, layer_index: int) -> tuple[int, int]:
        """Half-open global command range [start, end) of one layer."""
        if not 0 <= layer_index < len(self.layers):
            raise GCodeError(f"no such layer: {layer_index}")
        bounds = self.layers + (len(self.commands),)
        return bounds[layer_index], bounds[layer_index + 1]

    def command_index(self, layer_index: int, offset: int) -> int:
        """Global index of the command at ``offset`` within a layer."""
        start, end = self.layer_slice(layer_index)
        if not 0 <= offset < end - start:
            raise GCodeError(
                f"offset {offset} out of range for layer {layer_index} "
                f"({end - start} commands)"
            )
        return start + offset


def parse_line(line: str, line_no: int = 1) -> Command:
    """Parse a single line into a Command.

    Unsupported commands come back as OTHER passthrough; malformed parameters
    on a supported command raise :class:`GCodeError` naming the line.
    """
    raw = line.rstrip("\r")
    body = raw.split(";", 1)[0].strip()
    if not body:
        return Command(kind=CommandKind.OTHER, raw_text=raw)

    tokens = body.split()
    code = tokens[0].upper()
    if code in ("G0", "G00", "G1", "G01"):
        kind = CommandKind.RAPID_MOVE if code in ("G0", "G00") else CommandKind.LINEAR_MOVE
        words = _parse_words(tokens[1:], line_no, allowed=_MOVE_WORDS)
        if kind is CommandKind.RAPID_MOVE and "E" in words:
            raise GCodeError(f"line {line_no}: G0 does not accept an E word")
        return Command(
            kind=kind,
            x=words.get("X"),
            y=words.get("Y"),
            z=words.get("Z"),
            extrusion=words.get("E"),
            feed=words.get("F"),
            raw_text=raw,
        )
    if code == "M106":
        words = _parse_words(tokens[1:], line_no, allowed=frozenset("S"))
        # RepRap convention: a bare M106 means full speed.
        return Command(kind=CommandKind.SET_FAN_SPEED, fan_speed=words.get("S", 255.0), raw_text=raw)
    if code == "M107":
        if len(tokens) > 1:
            raise GCodeError(f"line {line_no}: M107 takes no parameters")
        return Command(kind=CommandKind.SET_FAN_SPEED, fan_speed=0.0, raw_text=raw)
    return Command(kind=CommandKind.OTHER, raw_text=raw)


def _parse_words(tokens: list[str], line_no: int, allowed: frozenset[str]) -> dict[str, float]:
    words: dict[str, float] = {}
    for token in tokens:
        match = _WORD_RE.match(token)
        if match is None:
            raise GCodeError(f"line {line_no}: malformed word {token!r}")
        letter = match.group(1).upper()
        if letter not in allowed:
            raise GCodeError(f"line {line_no}: unsupported word {letter!r}")
        text = match.group(2)
        if not text:
            raise GCodeError(f"line {line_no}: {letter!r} without value")
        try:
            value = float(text)
        except ValueError:
            raise GCodeError(f"line {line_no}: bad number {text!r} for {letter!r}") from None
        if not math.isfinite(value):
            raise GCodeError(f"line {line_no}: non-finite value for {letter!r}")
        if letter in words:
            raise GCodeError(f"line {line_no}: duplicate word {letter!r}")
        words[letter] = value
    return words


def parse_gcode(text: str) -> GCodeProgram:
    """Parse newline-delimited G-code into a program with layer boundaries."""
    if not text:
        return make_program(())
    commands = tuple(
        parse_line(line, line_no) for line_no, line in enumerate(text.split("\n"), start=1)
    )
    # A trailing newline produces one empty pseudo-line; drop it.
    if text.endswith("\n"):
        commands = commands[:-1]
    return make_program(commands)


def read_gcode(path: str | Path) -> GCodeProgram:
    """Read a UTF-8 G-code file, less any byte-order mark, and parse it;
    text that is not UTF-8 raises :class:`GCodeError` naming the path, and
    ``OSError`` propagates."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise GCodeError(f"{path}: {exc}") from None
    return parse_gcode(text)


def make_program(commands: tuple[Command, ...] | list[Command]) -> GCodeProgram:
    """Build a program from commands, re-deriving layer boundaries."""
    commands = tuple(commands)
    return GCodeProgram(commands=commands, layers=_derive_layers(commands))


def _derive_layers(commands: tuple[Command, ...]) -> tuple[int, ...]:
    """Each layer's first command index, layers numbered 0, 1, 2, … in order.

    ``;LAYER:n`` comments override the Z-increase heuristic whenever any are
    present (their ``n`` is not read).  Under the heuristic a new layer starts
    at each command that raises Z above every previous Z value; a program
    without Z motion is a single layer covering everything.
    """
    marker_starts = [
        i
        for i, cmd in enumerate(commands)
        if cmd.kind is CommandKind.OTHER
        and cmd.raw_text is not None
        and _LAYER_COMMENT_RE.match(cmd.raw_text.strip())
    ]
    if marker_starts:
        return tuple(marker_starts)

    starts: list[int] = []
    max_z = -math.inf
    for i, cmd in enumerate(commands):
        if cmd.is_move and cmd.z is not None and cmd.z > max_z + _Z_EPS:
            starts.append(i)
            max_z = cmd.z
    if not starts:
        return (0,) if commands else ()
    return tuple(starts)


def serialize(program: GCodeProgram) -> str:
    """Render a program back to text; passthrough lines are kept verbatim."""
    if not program.commands:
        return ""
    return "\n".join(command_text(cmd) for cmd in program.commands) + "\n"


def command_text(cmd: Command) -> str:
    """Render one command: its original line if any, else canonical text."""
    if cmd.raw_text is not None:
        return cmd.raw_text
    if cmd.kind is CommandKind.SET_FAN_SPEED:
        return f"M106 S{_fmt(cmd.fan_speed or 0.0)}"
    if cmd.kind is CommandKind.OTHER:
        return ""
    parts = [cmd.kind.value]
    for letter, value in (("X", cmd.x), ("Y", cmd.y), ("Z", cmd.z), ("E", cmd.extrusion), ("F", cmd.feed)):
        if value is not None:
            parts.append(f"{letter}{_fmt(value)}")
    return " ".join(parts)


def _fmt(value: float) -> str:
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    if text in ("", "-0"):
        return "0"
    return text
