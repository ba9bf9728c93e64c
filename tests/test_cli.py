import importlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from heisgrad.cli import main
from heisgrad.fine import heisenberg_fine, super_fine
from heisgrad.gradings import grading_to_json

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


def run_cli(*argv):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = main(list(argv))
    finally:
        sys.stdout = old
    return code, out.getvalue()


def check_golden(name, text):
    path = os.path.join(GOLDEN, name)
    with open(path, "r", encoding="utf-8") as fh:
        assert text == fh.read()


def test_enumerate_fine_text_golden():
    code, text = run_cli("enumerate-fine", "--twisted", "1,1,zeta(4),zeta(4)")
    assert code == 0
    check_golden("enumerate_1_1_i_i.txt", text)


def test_enumerate_fine_generic_golden():
    code, text = run_cli("enumerate-fine", "--twisted", "1,2")
    assert code == 0
    check_golden("enumerate_1_2.txt", text)


def test_weyl_heisenberg_golden():
    code, text = run_cli("weyl", "--heisenberg", "2", "--fine")
    assert code == 0
    assert "closure order: 8" in text
    check_golden("weyl_heisenberg_2.txt", text)


def test_weyl_super_golden():
    code, text = run_cli("weyl", "--super", "1,2")
    assert code == 0
    check_golden("weyl_super_1_2.txt", text)


def test_weyl_twisted_brute_golden():
    code, text = run_cli("weyl", "--twisted", "1,1,zeta(4),zeta(4)",
                         "--params", "4,1,0;1", "--brute")
    assert code == 0
    assert "brute-force order: 8" in text
    assert "dihedral pattern: yes" in text
    check_golden("weyl_twisted_4_1_0.txt", text)


def test_reports_are_deterministic():
    _, a = run_cli("enumerate-fine", "--twisted", "1,1,zeta(4),zeta(4)")
    _, b = run_cli("enumerate-fine", "--twisted", "1,1,zeta(4),zeta(4)")
    assert a == b


def test_json_output_roundtrips_as_input():
    code, text = run_cli("enumerate-fine", "--twisted", "1,2", "--format", "json")
    assert code == 0
    data = json.loads(text)
    assert data["count"] == 2
    for entry in data["classes"]:
        spec = entry["grading"]
        code2, text2 = run_cli("verify", json.dumps(spec))
        assert code2 == 0
        assert "pass" in text2


def test_verify_rejects_corrupted_component():
    _, text = run_cli("enumerate-fine", "--twisted", "1,2", "--format", "json")
    spec = json.loads(text)["classes"][0]["grading"]
    spec["components"][0]["vectors"][0] = spec["components"][1]["vectors"][0]
    code, out = run_cli("verify", json.dumps(spec))
    assert code == 3
    assert "FAIL" in out


def test_verify_reports_bracket_witness():
    _, text = run_cli("enumerate-fine", "--twisted", "1,2", "--format", "json")
    spec = json.loads(text)["classes"][0]["grading"]
    # swapping two components makes a bracket land at the wrong degree
    spec["components"][0]["vectors"], spec["components"][1]["vectors"] = (
        spec["components"][1]["vectors"], spec["components"][0]["vectors"])
    code, out = run_cli("verify", json.dumps(spec))
    assert code == 3
    assert "bracket of degrees" in out


def test_universal_group_command():
    _, text = run_cli("enumerate-fine", "--twisted", "1,2", "--format", "json")
    spec = json.loads(text)["classes"][0]["grading"]
    code, out = run_cli("universal-group", json.dumps(spec))
    assert code == 0
    assert out.startswith("universal grading group: Z^3")


def test_decompose_command():
    _, text = run_cli("enumerate-fine", "--twisted", "1,2", "--format", "json")
    spec = json.loads(text)["classes"][1]["grading"]
    code, out = run_cli("decompose", json.dumps(spec))
    assert code == 0
    assert "(l,s,r) = (2,0,2)" in out


NOT_TWISTED = {
    "heisenberg": grading_to_json(heisenberg_fine(1)),
    "super": grading_to_json(super_fine(1, 2, 1)),
    "custom": {
        "algebra": {"kind": "custom", "labels": ["a", "b", "c"],
                    "table": [[["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]],
                              [["0", "0", "-1"], ["0", "0", "0"], ["0", "0", "0"]],
                              [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]]},
        "group": {"rank": 2},
        "components": [{"degree": {"free": [1, 0]}, "vectors": [["1", "0", "0"]]},
                       {"degree": {"free": [0, 1]}, "vectors": [["0", "1", "0"]]},
                       {"degree": {"free": [1, 1]}, "vectors": [["0", "0", "1"]]}],
    },
}


@pytest.mark.parametrize("family", sorted(NOT_TWISTED))
def test_decompose_rejects_an_algebra_that_is_not_twisted(family):
    # a separate interpreter, so that an uncaught exception shows as a traceback
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "heisgrad.cli", "decompose",
                           json.dumps(NOT_TWISTED[family])],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_color_classify_command():
    spec = {
        "conductor": 12,
        "color_type": {
            "group": {"rank": 0, "torsion": [2]},
            "g0": {"free": [], "torsion": [0]},
            "epsilon": [["-1"]],
            "dims": [
                {"degree": {"free": [], "torsion": [0]}, "dim": 1},
                {"degree": {"free": [], "torsion": [1]}, "dim": 2},
            ],
        },
    }
    code, out = run_cli("color-classify", json.dumps(spec))
    assert code == 0
    assert "super-realizable: yes" in out


def test_parse_error_exit_code():
    code, _ = run_cli("enumerate-fine", "--twisted", "1,zeta(")
    assert code == 2
    code, _ = run_cli("verify", "{not json")
    assert code == 2


def test_cap_exit_code():
    code, _ = run_cli("weyl", "--heisenberg", "4", "--brute", "--cap", "3")
    assert code == 4


@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_cap_must_be_a_positive_integer(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["weyl", "--heisenberg", "2", "--brute", "--cap", value])
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


def test_cap_is_a_weyl_option_only():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--cap", "3", "{}"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("enumerate-fine", "--twisted", "1/0"),
    ("enumerate-fine", "--twisted", "1,1/(1-1)"),
    ("weyl", "--twisted", "1,2", "--params", "2,0,2;;1/0,2"),
    ("weyl", "--twisted", "1,2", "--params", "2,0,2;;0^-1,2"),
])
def test_zero_divisor_is_a_parse_error(argv, capsys):
    code, _ = run_cli(*argv)
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("enumerate-fine", "--twisted", "zeta(0)"),
    ("enumerate-fine", "--twisted", "1,zeta(0)"),
    ("enumerate-fine", "--twisted", "1,zeta(00)^2"),
    ("enumerate-fine", "--twisted", "zeta(0)", "--conductor", "8"),
    ("enumerate-fine", "--twisted", "zeta(-3)"),
    ("weyl", "--twisted", "1,2", "--params", "2,0,2;;zeta(0),2"),
])
def test_zeta_of_nonpositive_order_is_a_parse_error(argv, capsys):
    code, out = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert "is not a root of unity" in capsys.readouterr().err


def test_zeta_of_order_zero_in_json_is_a_parse_error(capsys):
    _, text = run_cli("enumerate-fine", "--twisted", "1,2", "--format", "json")
    spec = json.loads(text)["classes"][0]["grading"]
    spec["components"][0]["vectors"][0][0] = "zeta(0)"
    capsys.readouterr()
    code, _ = run_cli("verify", json.dumps(spec))
    assert code == 2
    assert "zeta(0) is not a root of unity" in capsys.readouterr().err


def test_zero_divisor_in_json_vector_is_a_parse_error(capsys):
    _, text = run_cli("enumerate-fine", "--twisted", "1,2", "--format", "json")
    spec = json.loads(text)["classes"][0]["grading"]
    spec["components"][0]["vectors"][0][0] = "1/0"
    capsys.readouterr()
    code, _ = run_cli("verify", json.dumps(spec))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: bad grading spec")


@pytest.mark.parametrize("command", ["verify", "universal-group", "decompose",
                                     "color-classify"])
def test_json_top_level_must_be_an_object(command, tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]\n")
    code, _ = run_cli(command, str(path))
    assert code == 2
    assert "top level must be an object" in capsys.readouterr().err


HEIS1 = {"kind": "heisenberg", "k": 1}
MALFORMED_NESTED = {
    "algebra-is-a-list": ({"algebra": [1], "group": {}, "components": []},
                          "the algebra must be a JSON object"),
    "degree-is-an-int": ({"algebra": HEIS1, "group": {"rank": 2},
                          "components": [{"degree": 5, "vectors": []}]},
                         "a degree must be a JSON object"),
    "k-is-a-list": ({"algebra": {"kind": "heisenberg", "k": [1]},
                     "group": {"rank": 2}, "components": []},
                    "k must be a JSON integer"),
    "group-is-a-list": ({"algebra": HEIS1, "group": [], "components": []},
                        "the group must be a JSON object"),
    "free-is-an-int": ({"algebra": HEIS1, "group": {"rank": 2},
                        "components": [{"degree": {"free": 3}, "vectors": []}]},
                       "free must be a JSON array"),
    "vectors-is-an-int": ({"algebra": HEIS1, "group": {"rank": 2},
                           "components": [{"degree": {"free": [1, 0]},
                                           "vectors": 4}]},
                          "vectors must be a JSON array"),
    "scalar-is-a-number": ({"algebra": HEIS1, "group": {"rank": 2},
                            "components": [{"degree": {"free": [1, 0]},
                                            "vectors": [[1, 0, 0]]}]},
                           "a scalar must be a string"),
    "relation-is-an-int": ({"algebra": HEIS1,
                            "group": {"n_gens": 2, "relations": [5]},
                            "components": []},
                           "a relation must be a JSON array"),
    "ragged-custom-table": ({"algebra": {"kind": "custom", "labels": ["a", "b"],
                                         "table": [[["0", "0"]]]},
                             "group": {"rank": 1}, "components": []},
                            "parity and table must match the 2 labels"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_NESTED))
def test_malformed_nested_json_is_a_parse_error(case, capsys):
    spec, message = MALFORMED_NESTED[case]
    code, out = run_cli("verify", json.dumps(spec))
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: bad grading spec") and message in err


Z2_TYPE = {"group": {"rank": 0, "torsion": [2]}, "g0": {"torsion": [0]},
           "epsilon": [["-1"]], "dims": []}
MALFORMED_COLOR = {
    "grading-degree-is-an-int": ({"grading": MALFORMED_NESTED["degree-is-an-int"][0],
                                  "epsilon": []}, "a degree must be a JSON object"),
    "conductor-is-a-list": ({"conductor": [1], "color_type": Z2_TYPE},
                            "conductor must be a JSON integer"),
    "epsilon-is-an-int": ({"color_type": dict(Z2_TYPE, epsilon=5)},
                          "epsilon must be a JSON array"),
    "dims-entry-is-an-int": ({"color_type": dict(Z2_TYPE, dims=[3])},
                             "a dims entry must be a JSON object"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_COLOR))
def test_malformed_nested_color_json_is_a_parse_error(case, capsys):
    spec, message = MALFORMED_COLOR[case]
    code, _ = run_cli("color-classify", json.dumps(spec))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad color spec") and message in err


def test_verify_rejects_vector_of_wrong_length(capsys):
    spec = {
        "algebra": {"kind": "heisenberg", "k": 1},
        "group": {"rank": 2},
        "components": [
            {"degree": {"free": [1, 0]}, "vectors": [["1", "0", "0", "0"]]},
            {"degree": {"free": [0, 1]}, "vectors": [["0", "1", "0"]]},
            {"degree": {"free": [1, 1]}, "vectors": [["0", "0", "1"]]},
        ],
    }
    code, out = run_cli("verify", json.dumps(spec))
    assert code == 2
    assert out == ""
    assert "length 4 in an algebra of dimension 3" in capsys.readouterr().err


def test_conductor_override():
    code, text = run_cli("enumerate-fine", "--twisted", "1,2",
                         "--conductor", "16")
    assert code == 0
    assert "conductor: 16" in text


CONDUCTOR_ARGS = {
    "enumerate-fine": ["--twisted", "1,2"],
    "weyl": ["--heisenberg", "1"],
    "verify": ["{}"],
    "universal-group": ["{}"],
    "decompose": ["{}"],
    "color-classify": ["{}"],
}


@pytest.mark.parametrize("value", ["0", "-4", "x"])
@pytest.mark.parametrize("command", sorted(CONDUCTOR_ARGS))
def test_conductor_must_be_a_positive_integer(command, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *CONDUCTOR_ARGS[command], "--conductor", value])
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


def test_super_with_negative_m_is_a_validation_error(capsys):
    for argv in (["--super", "2,-1"], ["--super", "2,-1", "--r", "0"]):
        code, out = run_cli("weyl", *argv)
        assert code == 3
        assert out == ""
        assert "error:" in capsys.readouterr().err


def test_broken_generator_is_a_validation_error(monkeypatch, capsys):
    # a flip without its sign does not preserve [e, ehat] = z
    import heisgrad.weyl as weyl

    def unsigned_flip(a, basis, p):
        img = list(basis)
        img[p], img[p + 1] = basis[p + 1], basis[p]
        return img

    monkeypatch.setattr(weyl, "_flip", unsigned_flip)
    code, out = run_cli("weyl", "--heisenberg", "1")
    assert code == 3
    assert out == ""
    assert "not an algebra automorphism" in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("heisgrad") is None,
                    reason="no `heisgrad` executable on PATH; install the "
                           "package with `pip install -e . "
                           "--no-build-isolation`")
def test_console_script_installed():
    result = subprocess.run(["heisgrad", "--help"], capture_output=True,
                            text=True)
    assert result.returncode == 0
    assert "enumerate-fine" in result.stdout


def test_console_script_entry_point(capsys):
    """The `heisgrad` script declared in pyproject.toml resolves to a
    callable whose --help lists the subcommands; checked in-process, so
    it runs whether or not the package is installed."""
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"heisgrad": "heisgrad.cli:main"}
    module, _, attr = scripts["heisgrad"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    with pytest.raises(SystemExit) as exc:
        entry(["--help"])
    assert exc.value.code == 0
    assert "enumerate-fine" in capsys.readouterr().out
