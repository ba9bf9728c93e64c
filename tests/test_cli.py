import importlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from heisgrad.cli import main

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
