"""Command-line front end.

Subcommands: verify, universal-group, enumerate-fine, weyl, decompose,
color-classify.  All numbers are exact (scalar syntax in text output,
no floats anywhere) and reports are byte-identical across runs.

Exit codes: 0 success, 2 parse error, 3 validation failure, 4 cap
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from math import lcm

from .color import (Bicharacter, classify_color, color_algebra,
                    color_type_from_json, color_type_to_json,
                    epsilon_from_json, is_super_realizable)
from .fine import (FineTwistedParams, TwistedFine, decompose_twisted_grading,
                   enumerate_super_fine, heisenberg_fine, super_fine,
                   twisted_fine, twisted_fine_classes)
from .gradings import (elt_to_json, grading_from_json, grading_to_json,
                       universal_group, verify_grading)
from .liealg import MAX_DIM, check_dim, json_int
from .scalars import (MAX_DIGITS, MAX_EXPONENT, CycloCtx, ScalarSyntaxError,
                      divisors, format_scalar, parse_scalar, scan_conductors)
from .weyl import CapExceeded, generator_matrix, perm_cycles, weyl_group

PARSE_ERROR = 2
VALIDATION_ERROR = 3
CAP_ERROR = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def auto_conductor(lambda_text: str, k: int) -> int:
    """Smallest conductor supporting every candidate block order for a
    k-pair twisted algebra and every root named in the parameter list."""
    n = 8
    for l in divisors(2 * k):
        n = lcm(n, 2 * l)
    for m in scan_conductors(lambda_text):
        n = lcm(n, m)
    return n


def _parse_lambda(text: str, conductor: int | None):
    entries = [e.strip() for e in text.split(",") if e.strip()]
    if not entries:
        raise CliError("empty twist parameter list", PARSE_ERROR)
    try:
        check_dim(2 * len(entries) + 2)  # before the conductor grows with the entries
    except ValueError as exc:
        raise CliError(str(exc), VALIDATION_ERROR)
    n = conductor or auto_conductor(text, len(entries))
    ctx = CycloCtx(n)
    try:
        lam = [parse_scalar(e, ctx) for e in entries]
    except ScalarSyntaxError as exc:
        raise CliError(str(exc), PARSE_ERROR)
    if any(not x for x in lam):
        raise CliError("twist parameters must be nonzero", VALIDATION_ERROR)
    return lam, ctx


def _parse_params(text: str, ctx: CycloCtx) -> FineTwistedParams:
    sections = text.split(";")
    try:
        if len(sections) > 3:
            raise ValueError(f"{len(sections)} sections, at most 3 (L,S,R;BETAS;ALPHAS)")
        shape, betas, alphas = sections + [""] * (3 - len(sections))
        l, s, r = (int(x) for x in shape.split(","))
        return FineTwistedParams(l, s, r, *(tuple(parse_scalar(e, ctx) for e in part.split(","))
                                            if part.strip() else () for part in (betas, alphas)))
    except (ValueError, ScalarSyntaxError) as exc:
        raise CliError(f"bad parameter tuple {text!r}: {exc}", PARSE_ERROR)


def _load_json(arg: str) -> dict:
    text = arg
    if not arg.lstrip().startswith("{"):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {arg}: {exc}", PARSE_ERROR)
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"bad JSON input: {exc}", PARSE_ERROR)
    if not isinstance(spec, dict):
        raise CliError("bad JSON input: the top level must be an object", PARSE_ERROR)
    return spec


def _load_grading(args, strict: bool = True):
    """The grading spec named by args.input, parsed and verified; with
    strict, a grading that fails verification is an error."""
    spec = _load_json(args.input)
    ctx = CycloCtx(args.conductor) if args.conductor else None
    try:
        gr = grading_from_json(spec, ctx)
    except (ValueError, KeyError, ScalarSyntaxError) as exc:
        raise CliError(f"bad grading spec: {exc}", PARSE_ERROR)
    report = verify_grading(gr)
    if strict and not report.ok:
        raise CliError("grading fails verification: " + "; ".join(report.failures),
                       VALIDATION_ERROR)
    return gr, report


def _json_text(x, pad: str = "\n") -> str:
    """json.dumps(x, indent=2, sort_keys=True) byte for byte, for x built of
    dicts with str keys, lists, tuples, str, int, bool and None (any other
    type is a TypeError); pad is the line break and indent of x's line."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    inner = pad + "  "
    if isinstance(x, (list, tuple)):
        return "[" + ",".join([inner + _json_text(v, inner) for v in x]) + pad + "]" if x else "[]"
    if isinstance(x, dict):
        return "{" + ",".join([inner + encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                               for k, v in sorted(x.items())]) + pad + "}" if x else "{}"
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _emit(out, fmt: str, text_lines: list[str], payload: dict) -> None:
    if fmt == "json":
        out.write(_json_text(payload) + "\n")
    else:
        out.write("\n".join(text_lines) + "\n")


def _vec_text(v) -> str:
    return "(" + ", ".join(format_scalar(c) for c in v) + ")"


def _vec_json(v) -> list[str]:
    return [format_scalar(c) for c in v]


def _params_json(p: FineTwistedParams) -> dict:
    return {"l": p.l, "s": p.s, "r": p.r,
            "betas": [format_scalar(b) for b in p.betas],
            "alphas": [format_scalar(a) for a in p.alphas]}


def cmd_enumerate_fine(args, out) -> int:
    lam, ctx = _parse_lambda(args.twisted, args.conductor)
    lines, classes, seen_l = [], [], set()
    for i, (p, gr) in enumerate(twisted_fine_classes(lam), start=1):
        seen_l.add(p.l)
        toral = gr.group.is_torsion_free()
        lines.append(f"class {i}: {p}")
        lines.append(f"  universal group: {gr.group}")
        lines.append(f"  toral: {'yes' if toral else 'no'}")
        blocks = [{"type": kind, "l": blk.l, "alpha": format_scalar(blk.alpha)}
                  for kind, blks in (("I", gr.family.blocks_i), ("II", gr.family.blocks_ii))
                  for blk in blks]
        lines.extend("  block " + b["type"] + f" (l={b['l']}, alpha={b['alpha']})"
                     for b in blocks)
        grading = grading_to_json(gr)
        classes.append({
            "params": _params_json(p),
            "universal_group": str(gr.group),
            "toral": toral,
            "blocks": blocks,
            "homogeneous_basis": [v for c in grading["components"] for v in c["vectors"]],
            "grading": grading,
        })
    rejected = [l for l in divisors(2 * len(lam)) if l not in seen_l]
    lines[:0] = [
        "twisted Heisenberg algebra with lambda = "
        + ", ".join(format_scalar(x) for x in lam),
        f"conductor: {ctx.n}",
        f"fine grading classes up to equivalence: {len(classes)}",
        "rejected block orders l: " + (", ".join(str(l) for l in rejected) or "(none)"),
    ]
    payload = {
        "lambda": _vec_json(lam),
        "conductor": ctx.n,
        "count": len(classes),
        "rejected_l": rejected,
        "classes": classes,
    }
    _emit(out, args.format, lines, payload)
    return 0


def _grading_for_weyl(args) -> list:
    for flag, value, family, given in (("--r", args.r, "--super", args.super),
                                       ("--params", args.params, "--twisted", args.twisted)):
        if value is not None and given is None:
            raise CliError(f"{flag} applies to {family} only", PARSE_ERROR)
    if args.heisenberg is not None:
        return [heisenberg_fine(args.heisenberg)]
    if args.super is not None:
        try:
            k, m = (int(x) for x in args.super.split(","))
        except ValueError:
            raise CliError(f"bad --super value {args.super!r}", PARSE_ERROR)
        if args.r is not None:
            return [super_fine(k, m, args.r)]
        return [gr for _, gr in enumerate_super_fine(k, m)]
    if args.twisted is not None:
        lam, ctx = _parse_lambda(args.twisted, args.conductor)
        if args.params:
            return [twisted_fine(lam, _parse_params(args.params, ctx))]
        return [gr for _, gr in twisted_fine_classes(lam)]
    raise CliError("choose one of --heisenberg, --super or --twisted", PARSE_ERROR)


def _weyl_report_lines(rep, lines, payload_list):
    gr, fam = rep.grading, rep.grading.family
    lines.append(fam.title())
    lines.append(f"  support size: {len(gr.support)}")
    lines.append(f"  closure order: {rep.group.order}")
    lines.append(f"  formula order: {rep.formula_order}")
    lines.append(f"  agreement: {'yes' if rep.agree else 'NO (closure wins)'}")
    if rep.brute_order is not None:
        lines.append(f"  brute-force order: {rep.brute_order}")
    abelian = rep.group.is_abelian()
    dihedral = rep.group.dihedral_pattern()
    lines.append(f"  abelian: {'yes' if abelian else 'no'}; "
                 f"dihedral pattern: {'yes' if dihedral else 'no'}")
    gens = []
    zero = gr.algebra.ctx.zero()  # the entries no generator column touches
    for aut in rep.generators:
        cycles = perm_cycles(aut.perm)
        lines.append(f"  generator {aut.name}: {cycles}")
        matrix = [["0" if c is zero else format_scalar(c) for c in col]
                  for col in generator_matrix(gr, aut)]
        lines.append("    matrix columns: " + json.dumps(matrix))
        gens.append({"name": aut.name, "cycles": cycles,
                     "matrix_columns": matrix})
    payload_list.append({
        "family": fam.name,
        "params": _params_json(fam.params) if isinstance(fam, TwistedFine) else None,
        "support_size": len(gr.support),
        "closure_order": rep.group.order,
        "formula_order": rep.formula_order,
        "agreement": rep.agree,
        "brute_order": rep.brute_order,
        "abelian": abelian,
        "dihedral_pattern": dihedral,
        "generators": gens,
    })


def cmd_weyl(args, out) -> int:
    lines: list[str] = []
    payload: list[dict] = []
    for gr in _grading_for_weyl(args):
        _weyl_report_lines(weyl_group(gr, brute=args.brute, cap=args.cap), lines, payload)
    _emit(out, args.format, lines, {"gradings": payload})
    return 0


def cmd_verify(args, out) -> int:
    _, report = _load_grading(args, strict=False)
    lines = [f"verification: {'pass' if report.ok else 'FAIL'}"]
    lines.extend("  " + f for f in report.failures)
    _emit(out, args.format, lines,
          {"ok": report.ok, "failures": report.failures})
    return 0 if report.ok else VALIDATION_ERROR


def cmd_universal_group(args, out) -> int:
    gr, _ = _load_grading(args)
    group, regraded = universal_group(gr)
    lines = [f"universal grading group: {group}"]
    lines.extend(f"  deg {g}: " + "; ".join(_vec_text(v) for v in regraded.components[g])
                 for g in regraded.support)
    _emit(out, args.format, lines,
          {"universal_group": str(group), "grading": grading_to_json(regraded)})
    return 0


def cmd_decompose(args, out) -> int:
    gr, _ = _load_grading(args)
    try:
        u_new, blocks_i, blocks_ii, params = decompose_twisted_grading(gr)
    except ValueError as exc:
        raise CliError(str(exc), VALIDATION_ERROR)
    lines = [f"block decomposition {params}", "homogeneous u: " + _vec_text(u_new)]
    payload = {"params": _params_json(params), "u": _vec_json(u_new)}
    for kind, blocks in (("I", blocks_i), ("II", blocks_ii)):
        entries = payload["blocks_" + kind.lower()] = []
        for blk in blocks:
            alpha = format_scalar(blk.alpha)
            lines.append(f"  type-{kind} block (l={blk.l}, alpha={alpha})")
            lines.extend("    " + _vec_text(v) for v in blk.elements())
            entries.append({"l": blk.l, "alpha": alpha,
                            "elements": [_vec_json(v) for v in blk.elements()]})
    _emit(out, args.format, lines, payload)
    return 0


def cmd_color_classify(args, out) -> int:
    spec = _load_json(args.input)
    try:
        ctx = CycloCtx(json_int(args.conductor or spec.get("conductor", 12), "conductor"))
        if "color_type" in spec:
            t = color_type_from_json(spec["color_type"], ctx)
            algebra, grading = color_algebra(t, ctx)
            eps = t.epsilon
        else:
            grading = grading_from_json(spec["grading"], ctx)
            eps = Bicharacter(grading.group, epsilon_from_json(spec["epsilon"], ctx), ctx)
            algebra = grading.algebra
    except (ValueError, KeyError, ScalarSyntaxError) as exc:
        raise CliError(f"bad color spec: {exc}", PARSE_ERROR)
    try:
        t_out, basis = classify_color(algebra, grading, eps)
    except ValueError as exc:
        raise CliError(str(exc), VALIDATION_ERROR)
    split = is_super_realizable(t_out)
    lines = [
        f"standard form located: group {t_out.group}, center degree {t_out.g0}",
        "dims: " + ", ".join(f"{g}:{d}" for g, d in
                             sorted(t_out.dims.items(), key=lambda kv: kv[0].key())
                             if d),
        "super-realizable: " + ("yes" if split is not None else "no"),
    ]
    lines.extend(f"  {name} (deg {g}): {_vec_text(v)}" for name, g, v in basis)
    payload = {
        "color_type": color_type_to_json(t_out),
        "super_realizable": split is not None,
        "standard_basis": [{"name": name, "degree": elt_to_json(g), "vector": _vec_json(v)}
                           for name, g, v in basis],
    }
    _emit(out, args.format, lines, payload)
    return 0


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


@cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heisgrad",
        description="Fine gradings, universal grading groups and Weyl groups "
                    "of Heisenberg type algebras over exact cyclotomic scalars. "
                    f"Scalars: integers up to {MAX_DIGITS} digits, |k| <= {MAX_EXPONENT} in x^k. "
                    f"Algebras: dimension up to {MAX_DIM}, so at most "
                    f"{MAX_DIM // 2 - 1} twist parameters (dimension 2k+2).")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_input=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--conductor", type=_positive_int, default=None,
                       help="override the automatically selected conductor")
        if needs_input:
            p.add_argument("input", help="path to a JSON spec, or inline JSON")

    p = sub.add_parser("enumerate-fine",
                       help="enumerate fine gradings on a twisted algebra")
    p.add_argument("--twisted", required=True, metavar="LAMBDA",
                   help="comma-separated twist parameters in scalar syntax")
    common(p)
    p.set_defaults(func=cmd_enumerate_fine)

    p = sub.add_parser("weyl", help="Weyl groups of fine gradings")
    family = p.add_mutually_exclusive_group()
    family.add_argument("--heisenberg", type=int, metavar="K")
    family.add_argument("--super", metavar="K,M")
    family.add_argument("--twisted", metavar="LAMBDA")
    p.add_argument("--params", metavar="L,S,R;BETAS;ALPHAS",
                   help="a single class of --twisted")
    p.add_argument("--r", type=int, default=None,
                   help="restrict --super to a single r")
    p.add_argument("--fine", action="store_true",
                   help="use the fine grading (the default and only choice)")
    p.add_argument("--brute", action="store_true",
                   help="also run the brute-force search")
    common(p)
    p.add_argument("--cap", type=_positive_int, default=16,
                   help="support-size cap for the brute-force search "
                        "(default %(default)s)")
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("verify", help="verify a grading spec")
    common(p, needs_input=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("universal-group",
                       help="canonical universal grading group of a grading")
    common(p, needs_input=True)
    p.set_defaults(func=cmd_universal_group)

    p = sub.add_parser("decompose",
                       help="block decomposition of a grading on a twisted algebra")
    common(p, needs_input=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("color-classify",
                       help="standard form of a Heisenberg Lie color algebra")
    common(p, needs_input=True)
    p.set_defaults(func=cmd_color_classify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    # argparse takes a value that begins with "-", as "-1,2" does, for an option:
    # join it to --twisted or --params (--twisted=TEXT) unless it is an option string
    argv = list(sys.argv[1:] if argv is None else argv)
    options = {s for p in ap._subparsers._group_actions[0].choices.values()
               for s in p._option_string_actions}
    i = 0
    while i < len(argv) - 1:
        if argv[i] in ("--twisted", "--params") and argv[i + 1] not in options:
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        i += 1
    args = ap.parse_args(argv)
    out = sys.stdout
    try:
        return args.func(args, out)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_ERROR
    except (ValueError, ScalarSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
