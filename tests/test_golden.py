"""Byte-for-byte `--format json` output of the builtin invocations.

The files under tests/golden/ hold the expected stdout of each invocation:
the builtins, and the 24-line grid arrangement of tests/data/grid24.json,
an integer affine image (determinant -3) of lines through a 5 x 5 grid,
whose points have fractional and negative coordinates, and
tests/data/double_star_h8.json, an integer affine image (entries up to 8) of
the double star, with its pencil, two expanded quintics, as the text of
tests/data/double_star_h8_pencil.txt.
Regenerate them only for an intended output change, by running
`python tests/test_golden.py` from the repository root.
"""

import json
from pathlib import Path

import pytest

from starnet import field
from starnet.cli import main
from starnet.errors import NotAPower
from starnet.mpoly import X, Y, Z, kth_root

GOLDEN = Path(__file__).parent / "golden"
GRID24 = str(Path(__file__).parent / "data" / "grid24.json")
STAR_H8 = str(Path(__file__).parent / "data" / "double_star_h8.json")
STAR_H8_PENCIL = (Path(__file__).parent / "data" /
                  "double_star_h8_pencil.txt").read_text(encoding="utf-8")

CASES = {
    "lattice_b3": ("lattice", "--builtin", "b3"),
    "lattice_double_star": ("lattice", "--builtin", "double_star"),
    "lattice_double_star_affine": ("lattice", "--builtin",
                                   "double_star_affine"),
    "analyze_double_star": ("analyze", "--builtin", "double_star",
                            "--pencil", "builtin:double_star"),
    # the seeded copies' form: coefficients of height up to 10^6 read from
    # expanded text, which the builtin case never reads
    "analyze_double_star_h8": ("analyze", "--file", STAR_H8,
                               "--pencil", STAR_H8_PENCIL),
    "analyze_b3": ("analyze", "--builtin", "b3", "--pencil", "builtin:b3"),
    "analyze_b3_del_z": ("analyze", "--builtin", "b3_del_z",
                         "--pencil", "builtin:b3_del_z"),
    "analyze_b3_fixed_x": ("analyze", "--builtin", "b3",
                           "--pencil", "x*y; x*z"),
    # both frame points of z, (1:0:0) and (0:1:0), are base points: the
    # third, (1:1:0), puts z in the fiber over [1:1], z^2
    "analyze_b3_z_squared": ("analyze", "--builtin", "b3",
                             "--pencil", "x*y; x*y+z^2"),
    "analyze_b3_from_multinet": ("analyze", "--builtin", "b3",
                                 "--from-multinet", "0", "--max-mult", "2"),
    "multinets_b3_mult2": ("multinets", "--builtin", "b3", "--max-mult", "2"),
    "multinets_b3_mult3": ("multinets", "--builtin", "b3", "--max-mult", "3"),
    "aomoto_double_star": ("aomoto", "--builtin", "double_star",
                           "--omega=1,1,1,1,1,-1,-1,-1,-1,-1"),
    "aomoto_b3": ("aomoto", "--builtin", "b3", "--omega=1,-2,3,0,1,-1,2,-4"),
    "lattice_grid24": ("lattice", "--file", GRID24),
    "aomoto_grid24": ("aomoto", "--file", GRID24,
                      "--omega=-2,1,1,0,0,0,-2,-1,-2,1,2,0,"
                      "2,1,2,2,0,-1,0,0,1,0,-1,-1"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_matches_golden(name, capsys):
    assert main([*CASES[name], "--format", "json"]) == 0
    out = capsys.readouterr().out
    text = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert out == text
    # the files keep the stdlib's format, so regenerating them cannot hide a
    # drift of the CLI's own JSON writer
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              indent=2) + "\n"


def test_analyze_uses_no_floating_point(monkeypatch, capsys):
    # every verdict of the analyze path is exact: it takes no real value
    # of any element, not even for a cube root of 1
    def numeric(*args, **kwargs):
        raise AssertionError("floating point in an exact decision")

    monkeypatch.setattr(field.FieldElement, "embed", numeric)
    for name in sorted(n for n in CASES if n.startswith("analyze_")):
        assert main([*CASES[name], "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert kth_root((X * Y + Z * Z) ** 3, 3) == X * Y + Z * Z
    with pytest.raises(NotAPower):
        kth_root(X ** 3 * Y ** 3 + Z ** 6, 3)
    # a leading coefficient 8 takes the field's cube root, and field roots
    # go through an inert prime, with no real values
    assert kth_root((2 * X * Y + Z * Z) ** 3, 3) == 2 * X * Y + Z * Z
    x = field.FieldElement(3, -2, 5, 7)
    assert (x ** 3).kth_root(3) == x and (x * x).sqrt() == x


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main([*argv, "--format", "json"]) == 0
        (GOLDEN / f"{name}.json").write_text(buf.getvalue(), encoding="utf-8")
