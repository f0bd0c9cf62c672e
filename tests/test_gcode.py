import dataclasses

import pytest
from hypothesis import given, strategies as st

from powertrace.gcode import (
    Command,
    CommandKind,
    GCodeError,
    make_program,
    parse_gcode,
    parse_line,
    serialize,
)


def _semantic(program):
    """The program's commands without their original line text."""
    return [dataclasses.replace(c, raw_text=None) for c in program.commands]


class TestParseLine:
    def test_linear_move_with_all_words(self):
        cmd = parse_line("G1 X10 Y0 E0.5 F1200")
        assert cmd.kind is CommandKind.LINEAR_MOVE
        assert cmd.x == 10.0
        assert cmd.y == 0.0
        assert cmd.z is None
        assert cmd.extrusion == 0.5
        assert cmd.feed == 1200.0

    def test_rapid_move_has_no_extrusion(self):
        cmd = parse_line("G0 X5")
        assert cmd.kind is CommandKind.RAPID_MOVE
        assert cmd.x == 5.0
        assert cmd.extrusion is None

    def test_word_without_value_is_an_error(self):
        with pytest.raises(GCodeError, match="line 1"):
            parse_line("G1 X1 E")

    def test_rapid_move_rejects_extrusion_word(self):
        with pytest.raises(GCodeError, match="G0 does not accept"):
            parse_line("G0 X5 E1")

    def test_bad_number_is_an_error(self):
        with pytest.raises(GCodeError):
            parse_line("G1 X1..5")

    def test_duplicate_word_is_an_error(self):
        with pytest.raises(GCodeError, match="duplicate"):
            parse_line("G1 X1 X2")

    def test_unknown_word_on_supported_command_is_an_error(self):
        with pytest.raises(GCodeError, match="unsupported word"):
            parse_line("G1 X1 S200")

    def test_unsupported_commands_pass_through(self):
        cmd = parse_line("M104 S200")
        assert cmd.kind is CommandKind.OTHER
        assert cmd.raw_text == "M104 S200"

    def test_comment_only_line_passes_through(self):
        assert parse_line("; hello").kind is CommandKind.OTHER

    def test_inline_comment_stripped_for_parsing(self):
        cmd = parse_line("G1 X3 ; move right")
        assert cmd.kind is CommandKind.LINEAR_MOVE
        assert cmd.x == 3.0

    def test_fan_commands(self):
        assert parse_line("M106 S128").fan_speed == 128.0
        assert parse_line("M106").fan_speed == 255.0
        assert parse_line("M107").fan_speed == 0.0


class TestLayers:
    def test_z_increases_start_layers(self):
        program = parse_gcode("G1 Z0.2\nG1 X5\nG1 Z0.4\nG1 X0\nG1 Z0.6\n")
        assert len(program.layers) == 3
        assert [start for _, start in program.layers] == [0, 2, 4]

    def test_comment_markers_override_heuristic(self):
        text = ";LAYER:0\nG1 Z5\nG1 X5\n;LAYER:1\nG1 Z0.2\n"
        program = parse_gcode(text)
        assert program.layers == ((0, 0), (1, 3))

    def test_no_z_motion_is_one_layer(self):
        program = parse_gcode("G1 X5\nG1 Y5\n")
        assert program.layers == ((0, 0),)

    def test_z_lowering_does_not_start_a_layer(self):
        program = parse_gcode("G1 Z5\nG1 Z0.2\nG1 Z5.5\n")
        # 5 then 5.5 exceed the running maximum; 0.2 does not.
        assert [start for _, start in program.layers] == [0, 2]

    def test_preamble_belongs_to_no_layer(self):
        program = parse_gcode("G0 X1\nG1 Z0.2\nG1 X5\n")
        assert program.layers == ((0, 1),)
        assert program.layer_slice(0) == (1, 3)

    def test_make_program_rederives_layers(self, tiny_program):
        assert make_program(tiny_program.commands).layers == tiny_program.layers

    def test_command_index_range_checked(self, tiny_program):
        with pytest.raises(GCodeError):
            tiny_program.command_index(0, 99)
        with pytest.raises(GCodeError):
            tiny_program.layer_slice(7)


class TestSerialize:
    def test_round_trip_is_fixed_point(self, tiny_program):
        text = serialize(tiny_program)
        again = parse_gcode(text)
        assert serialize(again) == text
        assert _semantic(again) == _semantic(tiny_program)
        assert again.layers == tiny_program.layers

    def test_passthrough_lines_kept_verbatim(self):
        text = "M204 S500   ; weird spacing\nG1 X1\n"
        assert serialize(parse_gcode(text)) == text

    def test_empty_program_serializes_to_empty_string(self):
        assert serialize(parse_gcode("")) == ""

    def test_synthesized_command_gets_canonical_text(self):
        cmd = Command(kind=CommandKind.RAPID_MOVE, x=34.0, feed=1200.0)
        program = make_program([cmd])
        assert serialize(program) == "G0 X34 F1200\n"


_coord = st.one_of(
    st.none(),
    st.decimals(min_value=-500, max_value=500, places=3).map(float),
)


@st.composite
def _supported_line(draw):
    kind = draw(st.sampled_from(["G0", "G1", "other"]))
    if kind == "other":
        return draw(
            st.text(
                alphabet=st.characters(whitelist_categories=("L", "N"), whitelist_characters=" _-"),
                max_size=20,
            ).map(lambda s: "; " + s)
        )
    words = []
    for letter in "XYZ":
        value = draw(_coord)
        if value is not None:
            words.append(f"{letter}{value:g}")
    if kind == "G1":
        e = draw(_coord)
        if e is not None:
            words.append(f"E{e:g}")
    feed = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=6000)))
    if feed is not None:
        words.append(f"F{feed}")
    return " ".join([kind] + words)


@given(st.lists(_supported_line(), max_size=30))
def test_parse_serialize_parse_is_parse(lines):
    text = "\n".join(lines) + ("\n" if lines else "")
    first = parse_gcode(text)
    second = parse_gcode(serialize(first))
    assert len(second) == len(first)
    assert _semantic(second) == _semantic(first)
    assert second.layers == first.layers


@given(st.lists(_supported_line(), max_size=30))
def test_layer_boundaries_strictly_increase(lines):
    program = parse_gcode("\n".join(lines) + ("\n" if lines else ""))
    layers = program.layers
    assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(layers, layers[1:]))
