"""Sabotage mutations of a benign G-code program.

Four minimal, deterministic edits: insert a command, delete a command,
reorder (swap) two commands within a layer, and void an extruding move by
replacing it with the equivalent travel.  Commands are addressed by
(layer, offset) so the same attack survives preamble differences between
files.  Layer boundaries are re-derived after every mutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .gcode import Command, CommandKind, GCodeError, GCodeProgram, make_program

__all__ = [
    "AttackError",
    "AttackKind",
    "AttackSpec",
    "inject_insert",
    "inject_delete",
    "inject_reorder",
    "inject_void",
    "apply_attack",
]


class AttackError(ValueError):
    """Attack spec does not apply to the given program."""


class AttackKind(Enum):
    INSERT = "insert"
    DELETE = "delete"
    REORDER = "reorder"
    VOID = "void"


@dataclass(frozen=True)
class AttackSpec:
    """Addressed mutation: ``position`` is the command offset within ``layer``.

    ``payload`` is required for INSERT, ``pair_offset`` (a second, distinct
    offset in the same layer) for REORDER; other kinds take neither.
    """

    kind: AttackKind
    layer: int
    position: int
    payload: Command | None = None
    pair_offset: int | None = None

    def __post_init__(self) -> None:
        if self.kind is AttackKind.INSERT and self.payload is None:
            raise AttackError("insert requires a payload command")
        if self.kind is AttackKind.REORDER:
            if self.pair_offset is None:
                raise AttackError("reorder requires pair_offset")
            if self.pair_offset == self.position:
                raise AttackError("reorder offsets must differ")
        if self.payload is not None and self.kind is not AttackKind.INSERT:
            raise AttackError(f"{self.kind.value} takes no payload (insert only)")
        if self.pair_offset is not None and self.kind is not AttackKind.REORDER:
            raise AttackError(f"{self.kind.value} takes no pair_offset (reorder only)")


def inject_insert(program: GCodeProgram, spec: AttackSpec) -> GCodeProgram:
    """Insert ``spec.payload`` before the command at (layer, position).

    ``position`` may equal the layer length, meaning "append at the end of
    the layer".  Every other command is unchanged and keeps its order.
    """
    _require_kind(spec, AttackKind.INSERT)
    start, end = _layer_slice(program, spec.layer)
    if not 0 <= spec.position <= end - start:
        raise AttackError(
            f"insert position {spec.position} out of range for layer {spec.layer}"
        )
    index = start + spec.position
    commands = list(program.commands)
    commands.insert(index, spec.payload)
    return make_program(commands)


def inject_delete(program: GCodeProgram, spec: AttackSpec) -> GCodeProgram:
    """Remove the command at (layer, position)."""
    _require_kind(spec, AttackKind.DELETE)
    index = _resolve(program, spec.layer, spec.position)
    commands = list(program.commands)
    del commands[index]
    return make_program(commands)


def inject_reorder(program: GCodeProgram, spec: AttackSpec) -> GCodeProgram:
    """Swap the commands at (layer, position) and (layer, pair_offset)."""
    _require_kind(spec, AttackKind.REORDER)
    first = _resolve(program, spec.layer, spec.position)
    second = _resolve(program, spec.layer, spec.pair_offset)
    commands = list(program.commands)
    commands[first], commands[second] = commands[second], commands[first]
    return make_program(commands)


def inject_void(program: GCodeProgram, spec: AttackSpec) -> GCodeProgram:
    """Replace an extruding linear move by the same travel without extrusion.

    Coordinates and feed rate (if any) are preserved; only the E word is
    dropped, so the motion plan of X/Y/Z is untouched.
    """
    _require_kind(spec, AttackKind.VOID)
    index = _resolve(program, spec.layer, spec.position)
    target = program.commands[index]
    if target.kind is not CommandKind.LINEAR_MOVE or target.extrusion is None:
        raise AttackError(
            f"void target at layer {spec.layer} offset {spec.position} "
            "is not an extruding linear move"
        )
    replacement = Command(
        kind=CommandKind.RAPID_MOVE,
        x=target.x,
        y=target.y,
        z=target.z,
        feed=target.feed,
    )
    commands = list(program.commands)
    commands[index] = replacement
    return make_program(commands)


_DISPATCH = {
    AttackKind.INSERT: inject_insert,
    AttackKind.DELETE: inject_delete,
    AttackKind.REORDER: inject_reorder,
    AttackKind.VOID: inject_void,
}


def apply_attack(program: GCodeProgram, spec: AttackSpec) -> GCodeProgram:
    return _DISPATCH[spec.kind](program, spec)


def _require_kind(spec: AttackSpec, kind: AttackKind) -> None:
    if spec.kind is not kind:
        raise AttackError(f"expected {kind.value} spec, got {spec.kind.value}")


def _layer_slice(program: GCodeProgram, layer: int) -> tuple[int, int]:
    try:
        return program.layer_slice(layer)
    except GCodeError as exc:
        raise AttackError(str(exc)) from None


def _resolve(program: GCodeProgram, layer: int, offset: int) -> int:
    try:
        return program.command_index(layer, offset)
    except GCodeError as exc:
        raise AttackError(str(exc)) from None
