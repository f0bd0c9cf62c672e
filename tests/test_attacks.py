import dataclasses

import pytest
from hypothesis import given, strategies as st

from powertrace.attacks import (
    AttackError,
    AttackKind,
    AttackSpec,
    apply_attack,
    inject_insert,
    inject_void,
)
from powertrace.gcode import Command, CommandKind, parse_gcode, serialize

PAYLOAD = Command(kind=CommandKind.RAPID_MOVE, x=34.0, feed=1200.0)


def _semantic(command):
    """The command without its original line text."""
    return dataclasses.replace(command, raw_text=None)


def _signatures(program):
    return [_semantic(c) for c in program.commands]


class TestInsert:
    def test_adds_exactly_one_command(self, tiny_program):
        spec = AttackSpec(kind=AttackKind.INSERT, layer=1, position=1, payload=PAYLOAD)
        mutated = inject_insert(tiny_program, spec)
        assert len(mutated) == len(tiny_program) + 1
        index = tiny_program.command_index(1, 1)
        assert _semantic(mutated.commands[index]) == PAYLOAD
        removed = list(mutated.commands[:index] + mutated.commands[index + 1 :])
        assert [_semantic(c) for c in removed] == _signatures(tiny_program)

    def test_insert_at_layer_start(self):
        program = parse_gcode("G1 X5 E0.1\nG1 Y5 E0.2\n")
        spec = AttackSpec(kind=AttackKind.INSERT, layer=0, position=0, payload=PAYLOAD)
        mutated = inject_insert(program, spec)
        start, _ = mutated.layer_slice(0)
        assert _semantic(mutated.commands[start]) == PAYLOAD

    def test_insert_before_a_z_boundary_lands_in_prior_layer(self, tiny_program):
        # Layer starts are re-derived after the edit: a non-Z payload placed
        # before the Z lift that opens layer 0 belongs to the preamble.
        spec = AttackSpec(kind=AttackKind.INSERT, layer=0, position=0, payload=PAYLOAD)
        mutated = inject_insert(tiny_program, spec)
        old_start = tiny_program.layers[0]
        assert _semantic(mutated.commands[old_start]) == PAYLOAD
        assert mutated.layers[0] == old_start + 1

    def test_insert_then_delete_restores_program(self, tiny_program):
        spec = AttackSpec(kind=AttackKind.INSERT, layer=1, position=1, payload=PAYLOAD)
        mutated = inject_insert(tiny_program, spec)
        back = apply_attack(mutated, AttackSpec(kind=AttackKind.DELETE, layer=1, position=1))
        assert _signatures(back) == _signatures(tiny_program)

    def test_position_out_of_range(self, tiny_program):
        spec = AttackSpec(kind=AttackKind.INSERT, layer=0, position=99, payload=PAYLOAD)
        with pytest.raises(AttackError, match="out of range"):
            inject_insert(tiny_program, spec)

    def test_missing_layer(self, tiny_program):
        spec = AttackSpec(kind=AttackKind.INSERT, layer=9, position=0, payload=PAYLOAD)
        with pytest.raises(AttackError):
            inject_insert(tiny_program, spec)

    def test_payload_required(self):
        with pytest.raises(AttackError, match="payload"):
            AttackSpec(kind=AttackKind.INSERT, layer=0, position=0)


class TestDelete:
    def test_removes_exactly_one_command(self, tiny_program):
        spec = AttackSpec(kind=AttackKind.DELETE, layer=1, position=1)
        mutated = apply_attack(tiny_program, spec)
        assert len(mutated) == len(tiny_program) - 1
        index = tiny_program.command_index(1, 1)
        expected = _signatures(tiny_program)
        del expected[index]
        assert _signatures(mutated) == expected

    def test_deleting_the_only_layer_command_rederives_boundaries(self):
        program = parse_gcode("G1 Z0.2\nG1 X5\nG1 Z0.4\nG1 Z0.6\nG1 X0\n")
        assert len(program.layers) == 3
        # Layer 1 holds only its Z move; removing it merges the surrounding layers.
        mutated = apply_attack(program, AttackSpec(kind=AttackKind.DELETE, layer=1, position=0))
        assert len(mutated.layers) == 2

    def test_out_of_range(self, tiny_program):
        with pytest.raises(AttackError):
            apply_attack(tiny_program, AttackSpec(kind=AttackKind.DELETE, layer=0, position=99))


class TestReorder:
    def test_swaps_exactly_two_commands(self, tiny_program):
        spec = AttackSpec(kind=AttackKind.REORDER, layer=1, position=1, pair_offset=3)
        mutated = apply_attack(tiny_program, spec)
        before = _signatures(tiny_program)
        after = _signatures(mutated)
        assert sorted(map(str, before)) == sorted(map(str, after))
        differing = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
        i, j = tiny_program.command_index(1, 1), tiny_program.command_index(1, 3)
        assert differing == [i, j]
        assert after[i] == before[j] and after[j] == before[i]

    def test_reorder_twice_restores_program(self, tiny_program):
        spec = AttackSpec(kind=AttackKind.REORDER, layer=1, position=1, pair_offset=3)
        assert _signatures(apply_attack(apply_attack(tiny_program, spec), spec)) == _signatures(
            tiny_program
        )

    def test_swapping_identical_commands_is_semantically_noop(self):
        program = parse_gcode("G1 Z0.2\nG1 X5 E0.1\nG1 X5 E0.1\n")
        spec = AttackSpec(kind=AttackKind.REORDER, layer=0, position=1, pair_offset=2)
        mutated = apply_attack(program, spec)
        assert _signatures(mutated) == _signatures(program)

    def test_equal_offsets_rejected(self):
        with pytest.raises(AttackError, match="differ"):
            AttackSpec(kind=AttackKind.REORDER, layer=0, position=1, pair_offset=1)

    def test_pair_offset_required(self):
        with pytest.raises(AttackError, match="pair_offset"):
            AttackSpec(kind=AttackKind.REORDER, layer=0, position=1)


@pytest.mark.parametrize("kind", [AttackKind.DELETE, AttackKind.REORDER, AttackKind.VOID])
def test_payload_rejected_unless_insert(kind):
    pair_offset = 2 if kind is AttackKind.REORDER else None
    with pytest.raises(AttackError, match=f"{kind.value} takes no payload"):
        AttackSpec(kind=kind, layer=0, position=1, payload=PAYLOAD, pair_offset=pair_offset)


@pytest.mark.parametrize("kind", [AttackKind.INSERT, AttackKind.DELETE, AttackKind.VOID])
def test_pair_offset_rejected_unless_reorder(kind):
    payload = PAYLOAD if kind is AttackKind.INSERT else None
    with pytest.raises(AttackError, match=f"{kind.value} takes no pair_offset"):
        AttackSpec(kind=kind, layer=0, position=1, payload=payload, pair_offset=2)


class TestVoid:
    def test_replaces_extrusion_with_travel(self):
        program = parse_gcode("G1 Z0.2\nG1 X10 Y5 E0.4 F900\n")
        mutated = inject_void(program, AttackSpec(kind=AttackKind.VOID, layer=0, position=1))
        target = mutated.commands[1]
        assert target.kind is CommandKind.RAPID_MOVE
        assert (target.x, target.y) == (10.0, 5.0)
        assert target.extrusion is None
        assert target.feed == 900.0  # speed preserved, only extrusion dropped
        assert len(mutated) == len(program)

    def test_non_extruding_target_rejected(self, tiny_program):
        # Layer 0 offset 0 is the Z lift, which carries no E word.
        with pytest.raises(AttackError, match="extruding"):
            inject_void(tiny_program, AttackSpec(kind=AttackKind.VOID, layer=0, position=0))

    def test_rapid_target_rejected(self):
        program = parse_gcode("G1 Z0.2\nG0 X10\n")
        with pytest.raises(AttackError):
            inject_void(program, AttackSpec(kind=AttackKind.VOID, layer=0, position=1))


def test_mutators_are_deterministic(tiny_program):
    spec = AttackSpec(kind=AttackKind.INSERT, layer=1, position=0, payload=PAYLOAD)
    assert serialize(apply_attack(tiny_program, spec)) == serialize(apply_attack(tiny_program, spec))


def test_apply_attack_deletes(tiny_program):
    spec = AttackSpec(kind=AttackKind.DELETE, layer=0, position=1)
    assert len(apply_attack(tiny_program, spec)) == len(tiny_program) - 1


@pytest.mark.parametrize(
    "inject,spec,message",
    [
        (
            inject_insert,
            AttackSpec(kind=AttackKind.DELETE, layer=0, position=1),
            "expected insert spec, got delete",
        ),
        (
            inject_void,
            AttackSpec(kind=AttackKind.INSERT, layer=0, position=1, payload=PAYLOAD),
            "expected void spec, got insert",
        ),
    ],
    ids=["insert-given-delete", "void-given-insert"],
)
def test_single_kind_injector_rejects_other_kinds(tiny_program, inject, spec, message):
    with pytest.raises(AttackError, match=f"^{message}$"):
        inject(tiny_program, spec)


@pytest.mark.parametrize(
    "spec,message",
    [
        (
            AttackSpec(kind=AttackKind.DELETE, layer=2, position=0),
            "no such layer: 2",
        ),
        (
            AttackSpec(kind=AttackKind.REORDER, layer=1, position=0, pair_offset=4),
            "offset 4 out of range for layer 1 (4 commands)",
        ),
        (
            AttackSpec(kind=AttackKind.INSERT, layer=1, position=5, payload=PAYLOAD),
            "insert position 5 out of range for layer 1",
        ),
        (
            AttackSpec(kind=AttackKind.VOID, layer=1, position=2),
            "void target at layer 1 offset 2 is not an extruding linear move",
        ),
    ],
    ids=["layer", "pair-offset", "insert-position", "void-target"],
)
def test_unaddressable_spec_names_its_address(tiny_program, spec, message):
    with pytest.raises(AttackError) as error:
        apply_attack(tiny_program, spec)
    assert str(error.value) == message


_PROGRAM = parse_gcode(
    "G1 Z0.2\nG1 X8 E0.2 F960\nG1 Y8 E0.4\nG0 X0\nG1 Z0.4\nG1 X8 E0.6\nG1 Y0 E0.8\n"
)


@given(
    layer=st.integers(min_value=0, max_value=1),
    position=st.integers(min_value=0, max_value=4),
)
def test_edit_distance_is_exactly_one_for_insert(layer, position):
    start, end = _PROGRAM.layer_slice(layer)
    position = min(position, end - start)
    spec = AttackSpec(kind=AttackKind.INSERT, layer=layer, position=position, payload=PAYLOAD)
    mutated = inject_insert(_PROGRAM, spec)
    before = _signatures(_PROGRAM)
    after = _signatures(mutated)
    assert len(after) == len(before) + 1
    index = start + position
    assert after[:index] == before[:index]
    assert after[index + 1 :] == before[index:]
