import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import given, strategies as st

from heisgrad.abelian import AbGroup
from heisgrad.cli import _json_text, build_parser, main
from heisgrad.color import Bicharacter, ColorType, color_algebra, color_type_to_json
from heisgrad.fine import heisenberg_fine, super_fine
from heisgrad.gradings import grading_to_json
from heisgrad.liealg import MAX_DIM, heisenberg_super, twisted
from heisgrad.scalars import MAX_DIGITS, MAX_EXPONENT, CycloCtx

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


def test_weyl_twisted_rotation_golden():
    # every class of lambda = (1, i); the flip and the spectrum rotations
    # write rebased entries such as 3/4, -5/4 and zeta(8)^2, and the closed
    # form counts the rotation factor q = 2 of the two classes that i rotates
    code, text = run_cli("weyl", "--twisted", "1,i")
    assert code == 0
    assert text.count("agreement: yes") == 3 and "agreement: NO" not in text
    assert '"3/4", "-5/4"' in text and '"zeta(8)^2"' in text
    check_golden("weyl_twisted_1_i.txt", text)


@pytest.mark.parametrize("command, spec, golden", [
    ("universal-group", "grading_1_2_toral.json", "universal_group_1_2.txt"),
    ("decompose", "grading_1_2_nontoral.json", "decompose_1_2.txt"),
    ("color-classify", "color_z2.json", "color_classify_z2.txt"),
])
def test_json_input_text_golden(command, spec, golden):
    # the README's grading.json and color.json inputs, one golden each
    code, text = run_cli(command, os.path.join(GOLDEN, spec))
    assert code == 0
    check_golden(golden, text)


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


def _z4_color_spec(mutate):
    """The Z_4 color type of dimension 6 (g0 = 2, eps = -1, dims 0:1, 1:2,
    2:2, 3:1) as a color-classify grading spec, with the two vectors of
    degree 1 replaced by mutate(vectors)."""
    from heisgrad.abelian import AbGroup
    from heisgrad.color import Bicharacter, ColorType, color_algebra, color_type_to_json
    from heisgrad.gradings import Grading
    from heisgrad.scalars import CycloCtx
    ctx = CycloCtx(12)
    z4 = AbGroup(0, (4,))
    deg = [z4.elt((), (c,)) for c in range(4)]
    t = ColorType(z4, deg[2], Bicharacter(z4, [[ctx.from_fraction(-1)]]),
                  {deg[0]: 1, deg[1]: 2, deg[2]: 2, deg[3]: 1})
    a, gr = color_algebra(t, ctx)
    comps = dict(gr.components)
    comps[deg[1]] = mutate(comps[deg[1]])
    gspec = grading_to_json(Grading(a, z4, comps))
    tspec = color_type_to_json(t)
    gspec["algebra"] = {"kind": "color", "type": tspec, "conductor": ctx.n}
    return json.dumps({"conductor": ctx.n, "grading": gspec, "epsilon": tspec["epsilon"]})


@pytest.mark.parametrize("mutate, count, rank", [
    (lambda vs: vs[:1], 5, 5),
    (lambda vs: (vs[0],) + vs, 7, 6),
], ids=["vector-dropped", "vector-repeated"])
def test_color_classify_rejects_components_that_are_not_a_basis(mutate, count, rank, capsys):
    assert run_cli("color-classify", _z4_color_spec(lambda vs: vs))[0] == 0
    capsys.readouterr()
    code, out = run_cli("color-classify", _z4_color_spec(mutate))
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == (
        "error: input fails the color axioms: components do not decompose the "
        f"algebra: {count} vectors of rank {rank} in dimension 6\n")


def test_parse_error_exit_code():
    code, _ = run_cli("enumerate-fine", "--twisted", "1,zeta(")
    assert code == 2
    code, _ = run_cli("verify", "{not json")
    assert code == 2


def test_cap_exit_code():
    code, _ = run_cli("weyl", "--heisenberg", "4", "--brute", "--cap", "3")
    assert code == 4


def test_default_cap_admits_support_15():
    code, text = run_cli("weyl", "--heisenberg", "7", "--brute")
    assert code == 0
    assert "  support size: 15\n" in text
    assert "  brute-force order: 645120\n" in text


def test_default_cap_rejects_support_17(capsys):
    code, text = run_cli("weyl", "--heisenberg", "8", "--brute")
    assert code == 4
    assert text == ""
    assert "support size 17 exceeds the cap 16" in capsys.readouterr().err


def test_cap_default_in_help(capsys):
    with pytest.raises(SystemExit):
        main(["weyl", "--help"])
    assert "(default 16)" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_cap_must_be_a_positive_integer(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["weyl", "--heisenberg", "2", "--brute", "--cap", value])
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


def test_parser_is_reused_after_a_parse_error(capsys):
    alone = run_cli("weyl", "--heisenberg", "2", "--brute")
    with pytest.raises(SystemExit) as exc:
        main(["weyl", "--heisenberg", "2", "--brute", "--cap", "0"])
    assert exc.value.code == 2
    assert run_cli("weyl", "--heisenberg", "2", "--brute") == alone
    assert alone[0] == 0 and "brute-force order: 8" in alone[1]
    assert build_parser() is build_parser()  # built once per process


@pytest.mark.parametrize("text", ["2^99999999", "1" * 5001, "(2^1000)^1000", "1,2*10^999*10^999"])
def test_oversized_scalar_is_a_parse_error(text):
    # a separate interpreter, so that an uncaught exception shows as a traceback
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "heisgrad.cli", "enumerate-fine",
                           "--twisted", text], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert "exceeds the limit of" in proc.stderr


def test_scalar_limits_in_help(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"integers up to {MAX_DIGITS} digits, |k| <= {MAX_EXPONENT} in x^k" in text
    assert f"dimension up to {MAX_DIM}" in text
    assert f"at most {MAX_DIM // 2 - 1} twist parameters" in text


def _heisenberg_spec(k):
    return json.dumps({"algebra": {"kind": "heisenberg", "k": k}, "group": {"rank": 0},
                       "components": []})


def _color_spec(dim):
    return json.dumps({"color_type": {"group": {"rank": 0}, "g0": {}, "epsilon": [],
                                      "dims": [{"degree": {}, "dim": dim}]}})


def _twisted_spec(k):
    return json.dumps({"algebra": {"kind": "twisted", "lambda": ["1"] * k, "conductor": 8},
                       "group": {"rank": 0}, "components": []})


@pytest.mark.parametrize("argv, code, dim", [
    (("verify", _heisenberg_spec(MAX_DIM // 2)), 2, MAX_DIM + 1),
    (("verify", _heisenberg_spec(10**9)), 2, 2 * 10**9 + 1),
    (("weyl", "--heisenberg", str(MAX_DIM // 2)), 3, MAX_DIM + 1),
    (("weyl", "--heisenberg", str(10**9)), 3, 2 * 10**9 + 1),
    (("weyl", "--super", f"0,{MAX_DIM}"), 3, MAX_DIM + 1),
    (("color-classify", _color_spec(MAX_DIM + 1)), 2, MAX_DIM + 1),
    (("color-classify", _color_spec(10**9 + 1)), 2, 10**9 + 1),
    (("verify", _twisted_spec(MAX_DIM // 2)), 2, MAX_DIM + 2),
    (("verify", _twisted_spec(200)), 2, 402),
    (("enumerate-fine", "--twisted", ",".join(["1"] * (MAX_DIM // 2))), 3, MAX_DIM + 2),
    (("weyl", "--twisted", ",".join(["1"] * (MAX_DIM // 2))), 3, MAX_DIM + 2),
])
def test_dimension_above_the_limit_is_rejected_before_building(argv, code, dim, capsys):
    assert run_cli(*argv) == (code, "")
    assert f"dimension {dim} exceeds the limit {MAX_DIM}" in capsys.readouterr().err


def test_dimension_at_the_limit_is_built():
    assert heisenberg_super(0, MAX_DIM - 1).dim == MAX_DIM
    with pytest.raises(ValueError, match=f"exceeds the limit {MAX_DIM}"):
        heisenberg_super(0, MAX_DIM)
    one = CycloCtx(4).one()
    assert twisted([one] * (MAX_DIM // 2 - 1)).dim == MAX_DIM
    with pytest.raises(ValueError, match=f"dimension {MAX_DIM + 2} exceeds the limit {MAX_DIM}"):
        twisted([one] * (MAX_DIM // 2))


def test_twisted_entry_count_is_checked_before_the_conductor(monkeypatch, capsys):
    # 128 entries would ask auto_conductor for the divisors of 256 and a
    # field of degree 128 before the algebra's size is checked
    import heisgrad.cli

    def refuse(*args):
        raise AssertionError("auto_conductor ran before the dimension check")

    monkeypatch.setattr(heisgrad.cli, "auto_conductor", refuse)
    assert run_cli("enumerate-fine", "--twisted", ",".join(["1"] * (MAX_DIM // 2))) == (3, "")
    assert f"dimension {MAX_DIM + 2} exceeds the limit {MAX_DIM}" in capsys.readouterr().err


def test_extra_params_section_is_a_parse_error(capsys):
    # L,S,R;BETAS;ALPHAS has three sections, and a fourth is not ignored
    assert run_cli("weyl", "--twisted", "1,i", "--params", "2,0,1;;1;5") == (2, "")
    assert "4 sections, at most 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["enumerate-fine", "weyl"])
def test_twisted_value_may_begin_with_a_minus_sign(command, capsys):
    # argparse takes a token that begins with "-" for an option; main joins
    # it to --twisted, as the --twisted=TEXT spelling does
    code, text = run_cli(command, "--twisted", "-1,2")
    assert code == 0 and text
    assert capsys.readouterr().err == ""
    assert run_cli(command, "--twisted=-1,2") == (code, text)
    assert capsys.readouterr().err == ""


def test_twisted_followed_by_an_option_still_lacks_its_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["weyl", "--twisted", "--format", "json"])
    assert exc.value.code == 2
    assert "argument --twisted: expected one argument" in capsys.readouterr().err


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


TRIVIAL_TYPE = {"group": {"rank": 0}, "g0": {}, "epsilon": [],
                "dims": [{"degree": {}, "dim": 3}]}
H3_ONE_COMPONENT = {"algebra": {"kind": "heisenberg", "k": 1}, "group": {"rank": 0},
                    "components": [{"degree": {}, "vectors": [
                        ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}]}


@pytest.mark.parametrize("spec, basis", [
    ({"color_type": TRIVIAL_TYPE}, ("(1, 0, 0)", "(0, 1, 0)", "(0, 0, 1)")),
    ({"grading": H3_ONE_COMPONENT, "epsilon": []}, ("(0, 0, 1)", "(1, 0, 0)", "(0, 1, 0)")),
], ids=["color-type", "trivially-graded-h3"])
def test_color_classify_over_the_trivial_group(spec, basis, capsys):
    # the empty epsilon carries no scalar, so the context comes from the spec
    code, out = run_cli("color-classify", json.dumps(spec))
    assert "Traceback" not in capsys.readouterr().err
    assert code == 0
    assert out == ("standard form located: group 1, center degree ()\n"
                   "dims: ():3\n"
                   "super-realizable: yes\n"
                   f"  z (deg ()): {basis[0]}\n"
                   f"  u0_1 (deg ()): {basis[1]}\n"
                   f"  uh0_1 (deg ()): {basis[2]}\n")


def test_verify_color_algebra_over_the_trivial_group():
    spec = dict(H3_ONE_COMPONENT, algebra={"kind": "color", "type": TRIVIAL_TYPE})
    assert run_cli("verify", json.dumps(spec)) == (0, "verification: pass\n")


def _component(degree, *vectors):
    """A component over free generators; each vector is a string of digits."""
    return {"degree": {"free": list(degree)}, "vectors": [list(v) for v in vectors]}


HEIS2 = {"kind": "heisenberg", "k": 2}
# verify brackets each unordered pair of components once, g at or before h
# in support order: the pair that fails first comes as (i, j) with i < j
BROKEN_GRADINGS = {
    "outside-the-support": (
        {"algebra": HEIS1, "group": {"rank": 2}, "components": [
            _component((0, 0), "001"), _component((0, 1), "010"), _component((1, 0), "100")]},
        "bracket of degrees (0,1) and (1,0) is nonzero but (1,1) is outside the support"),
    "leaves-its-component": (
        {"algebra": HEIS2, "group": {"rank": 2}, "components": [
            _component((0, 0), "00001"), _component((0, 1), "01000"),
            _component((1, 0), "10000"), _component((1, 1), "00100"),
            _component((-1, -1), "00010")]},
        "bracket of degrees (0,1) and (1,0) leaves component (1,1)"),
    "not-parity-graded": (
        {"algebra": {"kind": "super", "k": 1, "m": 1}, "group": {"rank": 1}, "components": [
            _component((0,), "1010", "0001"), _component((1,), "0100", "0010")]},
        "component (0) is not parity-graded"),
    "support-does-not-generate": (
        {"algebra": HEIS1, "group": {"rank": 3}, "components": [
            _component((1, 0, 0), "100"), _component((0, 1, 0), "010"),
            _component((1, 1, 0), "001")]},
        "support does not generate the grading group"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_GRADINGS))
def test_verify_failure_messages(case):
    spec, failure = BROKEN_GRADINGS[case]
    assert run_cli("verify", json.dumps(spec)) == (3, f"verification: FAIL\n  {failure}\n")


def test_verify_scans_both_orientations_of_a_color_algebra():
    # the Z_4 type with eps = -1 has [s, s] = z on its self-paired vectors,
    # so its table is not skew; with x = u + s and y = uhat + s, [x, y] = 2z
    # but [y, x] = 0, and only the orientation (1, 0) shows the failure
    ctx = CycloCtx(4)
    z4 = AbGroup(0, (4,))
    deg = [z4.elt((), (c,)) for c in range(4)]
    t = ColorType(z4, deg[2], Bicharacter(z4, [[ctx.from_fraction(-1)]]),
                  {deg[0]: 1, deg[1]: 2, deg[2]: 2, deg[3]: 1})
    assert color_algebra(t, ctx)[0].labels == ("z", "u0_1", "uh0_1", "s1_1", "s1_2", "s3_1")
    spec = {"algebra": {"kind": "color", "type": color_type_to_json(t), "conductor": 4},
            "group": {"rank": 0, "torsion": [2]},
            "components": [
                {"degree": {"torsion": [0]}, "vectors": [list(v) for v in (
                    "100000", "001100", "010000")]},
                {"degree": {"torsion": [1]}, "vectors": [list(v) for v in (
                    "010100", "000010", "000001")]}]}
    assert run_cli("verify", json.dumps(spec)) == (3, (
        "verification: FAIL\n  bracket of degrees (1m2) and (0m2) leaves component (1m2)\n"))


def test_custom_table_that_is_not_skew_is_rejected_at_load(capsys):
    # so the unordered scan of verify never sees a table that is not skew
    table = [[["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]],
             [["0", "0", "0"]] * 3, [["0", "0", "0"]] * 3]
    spec = {"algebra": {"kind": "custom", "labels": ["e", "f", "z"], "table": table},
            "group": {"rank": 0}, "components": [_component((), "100", "010", "001")]}
    assert run_cli("verify", json.dumps(spec)) == (2, "")
    assert capsys.readouterr().err == (
        "error: bad grading spec: custom table fails the algebra axioms: "
        "skew-symmetry fails on (e, f)\n")


H3_TABLE = [[["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]],
            [["0", "0", "-1"], ["0", "0", "0"], ["0", "0", "0"]],
            [["0", "0", "0"]] * 3]


def _with_scalar(where: str, value) -> dict:
    """A grading of H3 with one scalar replaced by value: the first or the
    last one read, of the vectors, the custom table or lambda."""
    spec = json.loads(json.dumps(H3_ONE_COMPONENT))
    vectors = spec["components"][0]["vectors"]
    if where.startswith("table"):
        spec["algebra"] = {"kind": "custom", "labels": ["e", "f", "z"],
                           "table": json.loads(json.dumps(H3_TABLE))}
        cell = spec["algebra"]["table"][0][0] if where == "table-first" else \
            spec["algebra"]["table"][2][2]
        cell[0 if where == "table-first" else 2] = value
    elif where.startswith("lambda"):
        spec["algebra"] = {"kind": "twisted", "lambda": ["1", "1"], "conductor": 4}
        spec["components"][0]["vectors"] = [
            ["1" if i == j else "0" for j in range(6)] for i in range(6)]
        spec["algebra"]["lambda"][0 if where == "lambda-first" else 1] = value
    elif where == "vector-first":
        vectors[0][0] = value
    else:  # after every text of the document has been read once
        vectors[2][0] = vectors[2][1] = value
    return spec


@pytest.mark.parametrize("where", ["vector-first", "vector-repeated", "table-first",
                                   "table-repeated", "lambda-first", "lambda-repeated"])
@pytest.mark.parametrize("value, shown", [
    (["1"], "['1']"), ({"a": 1}, "{'a': 1}"), (1, "1"), (None, "None")],
    ids=["list", "dict", "number", "null"])
def test_scalar_that_is_not_a_string_is_a_parse_error(where, value, shown, capsys):
    code, out = run_cli("verify", json.dumps(_with_scalar(where, value)))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: bad grading spec: a scalar must be a string, got {shown}\n")


def test_negative_group_rank_is_a_parse_error(capsys):
    spec = {"algebra": {"kind": "heisenberg", "k": 1}, "group": {"rank": -1}, "components": []}
    code, out = run_cli("verify", json.dumps(spec))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: bad grading spec: rank must be >= 0, not -1\n"


def test_negative_generator_count_is_a_parse_error(capsys):
    spec = {"algebra": {"kind": "heisenberg", "k": 1},
            "group": {"n_gens": -1, "relations": []}, "components": []}
    code, out = run_cli("verify", json.dumps(spec))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: bad grading spec: n_gens must be >= 0, not -1\n"


@pytest.mark.parametrize("argv, flag", [
    (("--heisenberg", "2", "--super", "1,2"), "--super"),
    (("--super", "1,2", "--twisted", "1,2"), "--twisted"),
])
def test_weyl_family_flags_are_exclusive(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["weyl", *argv])
    assert exc.value.code == 2
    assert f"argument {flag}: not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("--heisenberg", "1", "--r", "1"), "--r applies to --super only"),
    (("--twisted", "1,2", "--r", "0"), "--r applies to --super only"),
    (("--super", "1,2", "--params", "1,2,0;1,2"), "--params applies to --twisted only"),
    (("--brute",), "choose one of --heisenberg, --super or --twisted"),
])
def test_weyl_flag_outside_its_family_is_a_parse_error(argv, message, capsys):
    assert run_cli("weyl", *argv) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


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

    def unsigned_flip(a, x, y):
        return [(x, y, a.ctx.one()), (y, x, a.ctx.one())]

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


# text with the characters JSON escapes (quotes, backslashes, control
# characters) and non-ASCII ones, beside any others
_JSON_STRINGS = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
                                  st.characters()), max_size=6)
_JSON_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | _JSON_STRINGS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_JSON_STRINGS, inner, max_size=4)),
    max_leaves=24)


@given(_JSON_PAYLOADS)
def test_json_writer_matches_json_dumps(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, {1, 2}, b"x", object(), {1: "a"},
                                   [0, {"a": [None, 2.0]}], ({"b": frozenset()},)])
def test_json_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        _json_text(value)
