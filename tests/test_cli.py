"""Command-line interface: exit codes, determinism, file handling."""

import json
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from starnet.arrangement import arrangement_to_json, builtin
from starnet.cli import _json_text, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lattice_builtin(capsys):
    code, out, _ = run(capsys, "lattice", "--builtin", "b3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["n_points"] == 13
    assert doc["results"]["census"] == {"2": 6, "3": 4, "4": 3}


def test_json_output_is_byte_stable(capsys):
    argv = ("analyze", "--builtin", "double_star",
            "--pencil", "builtin:double_star", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


# keys and strings with non-ASCII, quote, backslash and control characters
_texts = st.text(st.one_of(st.characters(),
                           st.sampled_from('"\\\x00\x1f\n\t\x7f\u00e9\u2028'
                                           "\U0001f600")))
_json_docs = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(-10 ** 40, 10 ** 40), _texts),
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(_texts, inner)),
    max_leaves=30)


@given(_json_docs)
@example({"": [], "a": {}, "b": (), "\"\\": [True, False, None, 0]})
@example([{"\x00": -10 ** 40}, {}, [[]], "\u00e9"])
def test_json_writer_matches_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize("doc", [
    1.5, {"a": [0, 2.0]}, {1: "a"}, {True: "a"}, {"a": {1, 2}}, frozenset(),
    {"a": b"bytes"}])
def test_json_writer_rejects_other_types(doc):
    with pytest.raises(TypeError):
        _json_text(doc)


def test_lattice_from_file(tmp_path, capsys):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(arrangement_to_json(builtin("b3"))))
    code, out, _ = run(capsys, "lattice", "--file", str(path),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["n_points"] == 13


@pytest.mark.parametrize("data", [
    b"{not json",
    b"\xff\xfe{}",          # not UTF-8
    b"[" * 100_000,          # nested past the recursion limit
], ids=["not_json", "not_utf8", "deep_json"])
def test_malformed_file_is_input_error(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, _, err = run(capsys, "lattice", "--file", str(path))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def _doc(*covectors, labels="abc"):
    return {"lines": [{"label": lab, "covector": cov}
                      for lab, cov in zip(labels, covectors)]}


def _nested(text, depth=3000):
    return "(" * depth + text + ")" * depth


@pytest.mark.parametrize("argv, doc, needle", [
    (("lattice",), _doc(["1/0", "0", "1"], ["0", "1", "0"]), None),
    (("analyze", "--builtin", "b3", "--pencil", "x/0;y"), None, None),
    (("analyze", "--builtin", "b3", "--pencil", "x;y",
      "--lambda", "1/0,1"), None, None),
    (("analyze", "--builtin", "b3", "--pencil", "x;y",
      "--lambda", "0,0"), None, None),
    (("lattice",), _doc(["1", "0"], ["0", "1", "0"]), None),
    (("lattice",), _doc(["1", "0", "0"]), None),
    (("lattice",), _doc(["1", "0", "0"], ["0", "1", "0"], labels="aa"),
     None),
    (("analyze", "--builtin", "b3", "--pencil", "x;y",
      "--lambda", "1,2,3"), None, "--lambda"),
    (("analyze", "--builtin", "b3", "--from-multinet", "0", "--max-k", "2"),
     None, "max_k"),
    (("analyze", "--builtin", "b3", "--from-multinet", "0",
      "--max-mult", "0"), None, "max_mult"),
    # str.isdigit takes a superscript two and an Arabic-Indic three
    (("analyze", "--builtin", "b3", "--pencil", "x\u00b2;y^2"), None,
     "unexpected character"),
    (("lattice",), _doc(["\u0663", "0", "1"], ["0", "1", "0"],
                        ["1", "0", "0"]), "unexpected character"),
    (("lattice",), _doc([1, 0, 0], ["0", "1", "0"]),
     "line 'a': covector entry 1 is not a string"),
    # nesting past the recursion limit
    (("analyze", "--builtin", "b3", "--pencil", _nested("x") + ";y"), None,
     "nested too deeply"),
    (("analyze", "--builtin", "b3", "--pencil", "x;y",
      "--lambda=" + _nested("1") + ",1"), None, "nested too deeply"),
    (("lattice",), _doc([_nested("1"), "0", "1"], ["0", "1", "0"]),
     "nested too deeply"),
    # past Python's limit on converting a digit string to an int
    (("lattice",), _doc(["1" * 5000, "0", "1"], ["0", "1", "0"],
                        ["1", "0", "0"]),
     "line 'a': covector entry 1: integer literal at position 0 is too long"),
    (("analyze", "--builtin", "b3", "--pencil", "1" * 5000 + "x;y"), None,
     "too long"),
    (("lattice",), _doc(["1", "0", "1"], ["0", "2 ? 3", "0"],
                        ["1", "0", "0"]),
     "line 'b': covector entry 2: unexpected character '?' at position 2"),
    (("lattice", "--builtin", "b3"),
     _doc(["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]),
     "--builtin and --file are mutually exclusive"),
], ids=["covector_over_zero", "pencil_over_zero", "lambda_over_zero",
        "lambda_zero", "covector_of_two", "one_line", "repeated_label",
        "lambda_of_three", "analyze_max_k_2", "analyze_max_mult_0",
        "pencil_superscript_digit", "covector_arabic_indic_digit",
        "covector_entry_not_string", "pencil_nested_deep",
        "lambda_nested_deep", "covector_nested_deep", "covector_long_literal",
        "pencil_long_literal", "covector_bad_character", "builtin_and_file"])
def test_bad_input_is_input_error(tmp_path, capsys, argv, doc, needle):
    if doc is not None:
        path = tmp_path / "arr.json"
        path.write_text(json.dumps(doc))
        argv += ("--file", str(path))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    if needle is not None:
        assert needle in err


_B3_DEL_Z = ("analyze", "--builtin", "b3_del_z",
             "--pencil", "builtin:b3_del_z", "--format", "json")


def _fresh_interpreter(*args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _fresh_process_output(argv):
    proc = _fresh_interpreter("-m", "starnet.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_parser_reuse_keeps_no_state(capsys):
    # the parser is built once per process: an appended --lambda and a
    # rejected argv must leave nothing behind for the next call
    code, out, _ = run(capsys, *_B3_DEL_Z, "--lambda", "2,3")
    assert code == 0
    lams = [f["lambda"] for f in json.loads(out)["results"]["fibers"]]
    assert ["1", "3/2"] in lams
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--max-k", "three"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, *_B3_DEL_Z)
    assert code == 0
    lams = [f["lambda"] for f in json.loads(out)["results"]["fibers"]]
    assert ["1", "3/2"] not in lams
    assert out == _fresh_process_output(_B3_DEL_Z)


def test_subcommand_is_looked_up_by_name(monkeypatch):
    seen = []

    def stub(args):
        seen.append(args.builtin)
        return 17

    monkeypatch.setattr("starnet.cli.cmd_lattice", stub)
    assert main(["lattice", "--builtin", "b3"]) == 17
    assert seen == ["b3"]


def test_missing_arrangement_is_input_error(capsys):
    code, _, _ = run(capsys, "lattice")
    assert code == 2


def test_multinets_b3(capsys):
    code, out, _ = run(capsys, "multinets", "--builtin", "b3",
                       "--max-mult", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["count"] == 1
    net = doc["results"]["multinets"][0]
    assert net["k"] == 3
    assert sorted(net["pointed_lines"]) == ["x", "y", "z"]


def test_multinets_max_k_too_small(capsys):
    code, _, err = run(capsys, "multinets", "--builtin", "b3", "--max-k", "2")
    assert code == 2
    assert "k >= 3" in err


def test_analyze_double_star(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "double_star",
                       "--pencil", "builtin:double_star", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["class"] == "small"
    assert doc["hypotheses"]["pointed_multinet_explained"] is False


def test_analyze_from_multinet(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "b3",
                       "--from-multinet", "0", "--max-mult", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["class"] == "large"


def test_analyze_with_one_removed_fiber_has_no_shape(capsys):
    # only the z^2 fiber is removed, so there is no orbifold fibration
    code, out, err = run(capsys, "analyze", "--builtin", "b3",
                         "--pencil", "x^2+y^2;z^2", "--format", "json")
    assert code == 0 and err == ""
    results = json.loads(out)["results"]
    assert results["k"] == 1 and results["class"] == "neither"
    assert results["orbifold_v1_shape"] is None


def test_analyze_degenerate_pencil_is_math_error(capsys):
    code, _, err = run(capsys, "analyze", "--builtin", "b3",
                       "--pencil", "x^2;2*x^2")
    assert code == 1
    assert "DegeneratePencil" in err


def test_analyze_zero_pencil_is_input_error(capsys):
    # the zero polynomial is homogeneous of degree -1, but no generator
    code, out, err = run(capsys, "analyze", "--builtin", "b3",
                         "--pencil", "0;0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "nonzero homogeneous" in err


@pytest.mark.parametrize("pencil", ["x^3;y^2", "x^2+z;y^2"])
def test_analyze_pencil_of_mixed_degrees_is_input_error(capsys, pencil):
    code, _, err = run(capsys, "analyze", "--builtin", "b3",
                       "--pencil", pencil)
    assert code == 2
    assert "homogeneous polynomials of one degree" in err


def test_analyze_pencil_required(capsys):
    code, _, _ = run(capsys, "analyze", "--builtin", "b3")
    assert code == 2


def test_aomoto_torsion(capsys):
    code, out, _ = run(capsys, "aomoto", "--builtin", "double_star",
                       "--omega", "1,1,1,1,1,-1,-1,-1,-1,-1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["h2_torsion"] == ["Z/2"]
    assert doc["inputs"]["deconed_at"] == "z"


def test_aomoto_zero_omega(capsys):
    code, out, _ = run(capsys, "aomoto", "--builtin", "double_star_affine",
                       "--omega", "0,0,0,0,0,0,0,0,0,0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["h2_torsion"] == []


def test_aomoto_wrong_length(capsys):
    code, _, _ = run(capsys, "aomoto", "--builtin", "double_star_affine",
                     "--omega", "1,2,3")
    assert code == 2


def test_aomoto_non_integer(capsys):
    code, _, _ = run(capsys, "aomoto", "--builtin", "double_star_affine",
                     "--omega", "1,1,1,1,1,a,-1,-1,-1,-1")
    assert code == 2


# an Arabic-Indic one, a digit separator, a double sign, a decimal point
@pytest.mark.parametrize("weight", ["\u0661", "1_0", "+-1", "1.0", ""],
                         ids=["arabic_indic", "underscore", "two_signs",
                              "decimal", "empty"])
def test_aomoto_weight_outside_the_grammar(capsys, weight):
    code, _, err = run(capsys, "aomoto", "--builtin", "b3",
                       f"--omega={weight},-2,3,0,1,-1,2,-4")
    assert code == 2
    assert err.startswith("error: --omega")
    assert "Traceback" not in err


def test_aomoto_weights_keep_sign_and_whitespace(capsys):
    argv = ("aomoto", "--builtin", "b3", "--format", "json")
    _, spaced, _ = run(capsys, *argv, "--omega= 1 ,-2,+3,0,1,\t-1,2,-4 ")
    _, plain, _ = run(capsys, *argv, "--omega=1,-2,3,0,1,-1,2,-4")
    assert spaced == plain
    assert json.loads(plain)["inputs"]["omega"] == [1, -2, 3, 0, 1, -1, 2,
                                                    -4]


@pytest.mark.parametrize("name", [1.5, ["b3"], None],
                         ids=["float", "list", "null"])
def test_non_string_name_is_input_error(tmp_path, capsys, name):
    doc = dict(arrangement_to_json(builtin("b3")), name=name)
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "lattice", "--file", str(path),
                         "--format", "json")
    assert (code, out) == (2, "")
    assert err.startswith("error: arrangement name")
    assert "Traceback" not in err


def test_render(tmp_path, capsys):
    out_path = tmp_path / "fig.svg"
    code, out, _ = run(capsys, "render", "--builtin", "double_star_affine",
                       "-o", str(out_path), "--window=-2,2,-2,2",
                       "--classes", "l1=blue,l6=red")
    assert code == 0
    svg = out_path.read_text()
    assert svg.count("<line") == 10
    assert 'stroke="blue"' in svg and 'stroke="red"' in svg


def test_render_unknown_class_label(tmp_path, capsys):
    code, _, _ = run(capsys, "render", "--builtin", "b3",
                     "-o", str(tmp_path / "f.svg"), "--classes", "w=green")
    assert code == 2


@pytest.mark.parametrize("window", ["1,0,0,1", "nan,1,-1,1",
                                    "-inf,inf,-1,1"],
                         ids=["reversed", "nan", "inf"])
def test_render_bad_window(tmp_path, capsys, window):
    out_path = tmp_path / "f.svg"
    code, _, _ = run(capsys, "render", "--builtin", "b3",
                     "-o", str(out_path), f"--window={window}")
    assert code == 2
    assert not out_path.exists()


def test_render_escapes_labels_and_colors(tmp_path, capsys):
    label = 'a"<b>&'
    doc = {"lines": [{"label": label, "covector": ["1", "0", "0"]},
                     {"label": "y", "covector": ["0", "1", "0"]},
                     {"label": "z", "covector": ["0", "0", "1"]}]}
    src = tmp_path / "a.json"
    src.write_text(json.dumps(doc))
    out_path = tmp_path / "f.svg"
    code, _, _ = run(capsys, "render", "--file", str(src),
                     "-o", str(out_path),
                     "--classes", f'{label}=red" onload="x')
    assert code == 0
    root = ElementTree.fromstring(out_path.read_text())
    lines = root.findall("{http://www.w3.org/2000/svg}line")
    # z = 0 is the line at infinity, listed in the legend, not drawn
    assert len(lines) == 2
    first = lines[0]
    assert first.get("id") == f"line-{label}"
    assert first.get("stroke") == 'red" onload="x'
    assert first.get("onload") is None
    legend = root.findall("{http://www.w3.org/2000/svg}text")
    assert [t.get("id") for t in legend] == ["legend-z"]


def test_human_format_runs(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "b3_del_z",
                       "--pencil", "builtin:b3_del_z")
    assert code == 0
    assert "small" in out


def test_human_format_marks_each_record(capsys):
    # each point of the b3 lattice, a record in a list, starts with "- ",
    # so consecutive points do not run together
    code, out, _ = run(capsys, "lattice", "--builtin", "b3")
    assert code == 0
    points = out[out.index("\n  points:\n"):]
    assert points.count("\n    - ") == points.count("\n    - coords:\n") == 13


def test_analyze_does_not_import_sympy():
    # the package has no runtime dependency
    script = ("import sys\n"
              "from starnet.cli import main\n"
              "code = main(['analyze', '--builtin', 'b3_del_z',\n"
              "             '--pencil', 'builtin:b3_del_z'])\n"
              "assert code == 0, code\n"
              "assert 'sympy' not in sys.modules\n"
              "assert 'mpmath' not in sys.modules\n")
    proc = _fresh_interpreter("-c", script)
    assert proc.returncode == 0, proc.stderr
