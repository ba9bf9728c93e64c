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
from math import lcm

from .color import (Bicharacter, classify_color, color_algebra,
                    color_type_from_json, color_type_to_json,
                    epsilon_from_json, is_super_realizable)
from .fine import (FineTwistedParams, TwistedFine, decompose_twisted_grading,
                   enumerate_super_fine, enumerate_twisted_fine,
                   heisenberg_fine, super_fine, twisted_fine)
from .gradings import (grading_from_json, grading_to_json, universal_group,
                       verify_grading)
from .liealg import json_int
from .scalars import (CycloCtx, ScalarSyntaxError, divisors, format_scalar,
                      parse_scalar, scan_conductors)
from .weyl import CapExceeded, perm_cycles, weyl_group

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
    try:
        sections = text.split(";")
        l, s, r = (int(x) for x in sections[0].split(","))
        betas = tuple(parse_scalar(e, ctx)
                      for e in (sections[1].split(",") if len(sections) > 1 and
                                sections[1].strip() else []))
        alphas = tuple(parse_scalar(e, ctx)
                       for e in (sections[2].split(",") if len(sections) > 2 and
                                 sections[2].strip() else []))
        return FineTwistedParams(l, s, r, betas, alphas)
    except (ValueError, ScalarSyntaxError, IndexError) as exc:
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


def _emit(out, fmt: str, text_lines: list[str], payload: dict) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        out.write("\n".join(text_lines) + "\n")


def _grading_lines(gr) -> list[str]:
    lines = [f"group: {gr.group}"]
    for g in gr.support:
        vecs = "; ".join("(" + ", ".join(format_scalar(c) for c in v) + ")"
                         for v in gr.components[g])
        lines.append(f"  deg {g}: {vecs}")
    return lines


def _params_json(p: FineTwistedParams) -> dict:
    return {"l": p.l, "s": p.s, "r": p.r,
            "betas": [format_scalar(b) for b in p.betas],
            "alphas": [format_scalar(a) for a in p.alphas]}


def cmd_enumerate_fine(args, out) -> int:
    lam, ctx = _parse_lambda(args.twisted, args.conductor)
    k = len(lam)
    reps = enumerate_twisted_fine(lam)
    seen_l = {p.l for p in reps}
    rejected = [l for l in divisors(2 * k) if l not in seen_l]
    lines = [
        "twisted Heisenberg algebra with lambda = "
        + ", ".join(format_scalar(x) for x in lam),
        f"conductor: {ctx.n}",
        f"fine grading classes up to equivalence: {len(reps)}",
        "rejected block orders l: " + (", ".join(str(l) for l in rejected) or "(none)"),
    ]
    classes = []
    for i, p in enumerate(reps, start=1):
        gr = twisted_fine(lam, p)
        toral = gr.group.is_torsion_free()
        lines.append(f"class {i}: {p}")
        lines.append(f"  universal group: {gr.group}")
        lines.append(f"  toral: {'yes' if toral else 'no'}")
        blocks = []
        for blk in gr.family.blocks_i:
            blocks.append({"type": "I", "l": blk.l, "alpha": format_scalar(blk.alpha)})
        for blk in gr.family.blocks_ii:
            blocks.append({"type": "II", "l": blk.l, "alpha": format_scalar(blk.alpha)})
        lines.extend("  block " + b["type"] + f" (l={b['l']}, alpha={b['alpha']})"
                     for b in blocks)
        basis = [v for g in gr.support for v in gr.components[g]]
        classes.append({
            "params": _params_json(p),
            "universal_group": str(gr.group),
            "toral": toral,
            "blocks": blocks,
            "homogeneous_basis": [[format_scalar(c) for c in v] for v in basis],
            "grading": grading_to_json(gr),
        })
    payload = {
        "lambda": [format_scalar(x) for x in lam],
        "conductor": ctx.n,
        "count": len(reps),
        "rejected_l": rejected,
        "classes": classes,
    }
    _emit(out, args.format, lines, payload)
    return 0


def _grading_for_weyl(args) -> list:
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
        return [twisted_fine(lam, p) for p in enumerate_twisted_fine(lam)]
    raise CliError("choose one of --heisenberg, --super or --twisted", PARSE_ERROR)


def _weyl_report_lines(gr, rep, lines, payload_list):
    fam = gr.family
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
    for aut in rep.generators:
        lines.append(f"  generator {aut.name}: {perm_cycles(aut.perm)}")
        matrix = [[format_scalar(c) for c in col] for col in aut.map]
        lines.append("    matrix columns: " + json.dumps(matrix))
        gens.append({"name": aut.name, "cycles": perm_cycles(aut.perm),
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
        rep = weyl_group(gr, brute=args.brute, cap=args.cap)
        _weyl_report_lines(gr, rep, lines, payload)
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
    lines.extend(_grading_lines(regraded)[1:])
    _emit(out, args.format, lines,
          {"universal_group": str(group), "grading": grading_to_json(regraded)})
    return 0


def cmd_decompose(args, out) -> int:
    gr, _ = _load_grading(args)
    try:
        u_new, blocks_i, blocks_ii, params = decompose_twisted_grading(gr)
    except ValueError as exc:
        raise CliError(str(exc), VALIDATION_ERROR)
    lines = [f"block decomposition {params}",
             "homogeneous u: (" + ", ".join(format_scalar(c) for c in u_new) + ")"]
    for blk in blocks_i:
        lines.append(f"  type-I block (l={blk.l}, alpha={format_scalar(blk.alpha)})")
        for v in blk.elements():
            lines.append("    (" + ", ".join(format_scalar(c) for c in v) + ")")
    for blk in blocks_ii:
        lines.append(f"  type-II block (l={blk.l}, alpha={format_scalar(blk.alpha)})")
        for v in blk.elements():
            lines.append("    (" + ", ".join(format_scalar(c) for c in v) + ")")
    payload = {
        "params": _params_json(params),
        "u": [format_scalar(c) for c in u_new],
        "blocks_i": [{"l": b.l, "alpha": format_scalar(b.alpha),
                      "elements": [[format_scalar(c) for c in v]
                                   for v in b.elements()]} for b in blocks_i],
        "blocks_ii": [{"l": b.l, "alpha": format_scalar(b.alpha),
                       "elements": [[format_scalar(c) for c in v]
                                    for v in b.elements()]} for b in blocks_ii],
    }
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
    for name, g, v in basis:
        lines.append(f"  {name} (deg {g}): ("
                     + ", ".join(format_scalar(c) for c in v) + ")")
    payload = {
        "color_type": color_type_to_json(t_out),
        "super_realizable": split is not None,
        "standard_basis": [
            {"name": name, "degree": {"free": list(g.free), "torsion": list(g.torsion)},
             "vector": [format_scalar(c) for c in v]}
            for name, g, v in basis
        ],
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heisgrad",
        description="Fine gradings, universal grading groups and Weyl groups "
                    "of Heisenberg type algebras over exact cyclotomic scalars.")
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
    p.add_argument("--heisenberg", type=int, metavar="K")
    p.add_argument("--super", metavar="K,M")
    p.add_argument("--twisted", metavar="LAMBDA")
    p.add_argument("--params", metavar="L,S,R;BETAS;ALPHAS")
    p.add_argument("--r", type=int, default=None,
                   help="restrict --super to a single r")
    p.add_argument("--fine", action="store_true",
                   help="use the fine grading (the default and only choice)")
    p.add_argument("--brute", action="store_true",
                   help="also run the brute-force search")
    common(p)
    p.add_argument("--cap", type=_positive_int, default=12,
                   help="support-size cap for the brute-force search")
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
