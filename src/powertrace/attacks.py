"""Sabotage mutations of a benign G-code program.

Four minimal, deterministic edits, all made by :func:`apply_attack`: insert
a command, delete a command, reorder (swap) two commands within a layer,
and void an extruding move by replacing it with the equivalent travel.
Commands are addressed by (layer, offset) so the same attack survives
preamble differences between files.  Layer boundaries are re-derived after
every mutation.  ``inject_insert`` and ``inject_void`` are the same edit
for one kind only.
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


def apply_attack(program: GCodeProgram, spec: AttackSpec) -> GCodeProgram:
    """The program with ``spec``'s one edit made at (layer, position).

    INSERT puts ``spec.payload`` before that command; ``position`` may equal
    the layer length, meaning "append at the end of the layer".  DELETE
    removes the command, and REORDER swaps it with the one at
    ``pair_offset``.  VOID replaces an extruding linear move by the same
    travel without extrusion: coordinates and feed rate (if any) are kept
    and only the E word is dropped, so the motion plan of X/Y/Z is
    untouched.  Every other command is unchanged and keeps its order.
    """
    try:
        if spec.kind is AttackKind.INSERT:
            start, end = program.layer_slice(spec.layer)
            if not 0 <= spec.position <= end - start:
                raise AttackError(
                    f"insert position {spec.position} out of range for layer {spec.layer}"
                )
            index = start + spec.position
        else:
            index = program.command_index(spec.layer, spec.position)
        if spec.kind is AttackKind.REORDER:
            second = program.command_index(spec.layer, spec.pair_offset)
    except GCodeError as exc:
        raise AttackError(str(exc)) from None
    commands = list(program.commands)
    if spec.kind is AttackKind.INSERT:
        commands.insert(index, spec.payload)
    elif spec.kind is AttackKind.DELETE:
        del commands[index]
    elif spec.kind is AttackKind.REORDER:
        commands[index], commands[second] = commands[second], commands[index]
    else:
        target = commands[index]
        if target.kind is not CommandKind.LINEAR_MOVE or target.extrusion is None:
            raise AttackError(
                f"void target at layer {spec.layer} offset {spec.position} "
                "is not an extruding linear move"
            )
        commands[index] = Command(
            kind=CommandKind.RAPID_MOVE,
            x=target.x,
            y=target.y,
            z=target.z,
            feed=target.feed,
        )
    return make_program(commands)


def inject_insert(program: GCodeProgram, spec: AttackSpec) -> GCodeProgram:
    """:func:`apply_attack` for an insert spec only."""
    _require_kind(spec, AttackKind.INSERT)
    return apply_attack(program, spec)


def inject_void(program: GCodeProgram, spec: AttackSpec) -> GCodeProgram:
    """:func:`apply_attack` for a void spec only."""
    _require_kind(spec, AttackKind.VOID)
    return apply_attack(program, spec)


def _require_kind(spec: AttackSpec, kind: AttackKind) -> None:
    if spec.kind is not kind:
        raise AttackError(f"expected {kind.value} spec, got {spec.kind.value}")
