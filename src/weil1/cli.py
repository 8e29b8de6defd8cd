"""Command-line front end.

Inputs may be inline text, a path to a UTF-8 file, or ``-`` for stdin.
Exit codes: 0 ok, 1 syntax error, 2 invalid input (bad relations, type
mismatches, non-cographs), 3 verification failure, 4 a size budget
refused the work before it started.

A fresh process loads only the modules its command reads: ``genexpr``,
``morphism`` and ``verify`` are imported inside the commands that use them,
and every invalid-input error is a ValueError, so ``main`` maps the exit
codes without loading them either.
"""

from __future__ import annotations

import argparse
import os
import sys

from .rig import Rig
from . import cograph as cg
from . import cotree as ct
from . import dsl

EXIT_OK = 0
EXIT_SYNTAX = 1
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3
EXIT_TOO_LARGE = 4

_PALETTE = ("red", "blue", "forestgreen", "darkorange", "purple",
            "saddlebrown", "deeppink", "teal")


def _read_input(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    if os.path.isfile(arg):
        with open(arg, encoding="utf-8") as fh:
            return fh.read()
    return arg


def _rig(args) -> Rig:
    return Rig(args.rig)


def _guess_kind(text: str) -> str:
    if "|->" in text or (":" in text and "->" in text):
        return "morphism"
    stripped = text.strip()
    if stripped in dsl.LEAVES or stripped.startswith(tuple(h + "(" for h in dsl.HEADS)):
        return "genexpr"
    return "object"


def cmd_parse(args) -> int:
    text = _read_input(args.input)
    kind = args.kind if args.kind != "auto" else _guess_kind(text)
    if kind == "object":
        print(ct.format_cotree(dsl.parse_object(text)))
    elif kind == "morphism":
        print(dsl.format_morphism(dsl.parse_morphism(text, _rig(args))))
    else:
        from .genexpr import format_genexpr

        print(format_genexpr(dsl.parse_genexpr(text)))
    return EXIT_OK


def cmd_validate(args) -> int:
    f = dsl.parse_morphism(_read_input(args.input), _rig(args))
    print(f"valid: {dsl.format_morphism(f)}")
    return EXIT_OK


def cmd_compose(args) -> int:
    from .morphism import compose

    rig = _rig(args)
    f = dsl.parse_morphism(_read_input(args.first), rig)
    g = dsl.parse_morphism(_read_input(args.second), rig)
    print(dsl.format_morphism(compose(g, f), name="g.f"))
    return EXIT_OK


def cmd_decompose(args) -> int:
    from . import genexpr as ge

    rig = _rig(args)
    f = dsl.parse_morphism(_read_input(args.input), rig)
    expr = ge.decompose(f)
    print(ge.format_genexpr(expr))
    if args.check:
        back = ge.evaluate(expr, rig)
        if back != f:
            print(f"roundtrip FAILED: {dsl.format_morphism(back)}", file=sys.stderr)
            return EXIT_VERIFICATION
        print("roundtrip OK")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from .genexpr import evaluate

    expr = dsl.parse_genexpr(_read_input(args.input))
    print(dsl.format_morphism(evaluate(expr, _rig(args))))
    return EXIT_OK


def cmd_kappa(args) -> int:
    tree = dsl.parse_object(_read_input(args.input))
    derived = cg.kappa(ct.realize(tree))
    print(f"kappa({ct.format_cotree(tree)}): {derived.graph.n} vertices")
    for i, label in enumerate(derived.labels, start=1):
        print(f"  {i}: {cg.format_label(label)}")
    for u, v in sorted(derived.graph.edges):
        print(f"  {u} -- {v}")
    return EXIT_OK


def cmd_cotree(args) -> int:
    g = _parse_graph(_read_input(args.input))
    tree, perm = ct.cotree_decompose(g)
    print(f"object: {ct.format_cotree(tree)}")
    print("relabel: " + " ".join(str(p) for p in perm))
    return EXIT_OK


def _parse_graph(text: str) -> cg.Graph:
    try:
        head, _, rest = text.partition(";")
        n = int(head.strip())
        ct.check_vertex_budget(n)  # before the graph takes memory
        edges = []
        for piece in rest.replace(",", " ").split():
            u, _, v = piece.partition("-")
            edges.append((int(u), int(v)))
        return cg.graph(n, edges)
    except (ValueError, TypeError) as exc:
        raise dsl.DslSyntaxError(f"bad graph text: {exc}", 1, 1, expected="'n; u-v u-v ...'")


def cmd_hom(args) -> int:
    from .verify import enumerate_hom

    a = dsl.parse_object(_read_input(args.source))
    b = dsl.parse_object(_read_input(args.target))
    hs = enumerate_hom(a, b)
    print(len(hs))
    if args.format != "lines":
        for f in hs:
            print(dsl.format_morphism(f))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify as vf

    # each line goes out as its check ends; the whole output is the report's
    results = []
    for r in vf.iter_verify(max_vertices=args.max_vertices):
        print(r.format_line(), flush=True)
        results.append(r)
    report = vf.AxiomReport(tuple(results))
    if args.format != "lines":
        print(report.summary())
    return EXIT_OK if report.all_passed else EXIT_VERIFICATION


def cmd_dot(args) -> int:
    text = _read_input(args.input)
    if args.morphism:
        f = dsl.parse_morphism(text, _rig(args))
        sys.stdout.write(_morphism_dot(f))
        return EXIT_OK
    tree = dsl.parse_object(text)
    g = ct.realize(tree)
    if args.kappa:
        derived = cg.kappa(g)
        sys.stdout.write(cg.to_dot(derived.graph, derived.labels))
    else:
        sys.stdout.write(cg.to_dot(g))
    return EXIT_OK


def _morphism_dot(f) -> str:
    """Target graph with one coloured node per circle, linked to its members."""
    lines = cg.to_dot(f.target.graph).splitlines()[:-1]  # the circles go before "}"
    for i, p in enumerate(f.images, start=1):
        colour = _PALETTE[(i - 1) % len(_PALETTE)]
        for k, (mask, coeff) in enumerate(p.terms, start=1):
            node = f"c{i}_{k}"
            scale = "" if coeff == 1 else f"{coeff}*"
            label = f"x{i}: {scale}{cg.format_mask(mask)}"
            lines.append(f'  {node} [label="{label}", color={colour}, shape=ellipse];')
            for v in cg.vertices_of(mask):
                lines.append(f"  {node} -- {v} [style=dashed, color={colour}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _natural(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer 0 or more, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    # --rig goes on the commands that read it (those that call _rig) and on
    # no other, so that a rig a command would ignore is refused
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rig", choices=["bool2", "nat"], default="bool2",
                        help="coefficient rig (default bool2)")
    parser = argparse.ArgumentParser(
        prog="weil1",
        description="Exact symbolic kernel for algebras built from W = k[x]/x^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common], help="parse and reprint canonically")
    p.add_argument("--kind", choices=["auto", "object", "morphism", "genexpr"], default="auto")
    p.add_argument("input")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("validate", parents=[common], help="check a morphism's relations")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compose", parents=[common],
                       help="compose two morphisms (first, then second)")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("decompose", parents=[common],
                       help="decompose a morphism into generating maps")
    p.add_argument("--check", action="store_true", help="re-evaluate and compare")
    p.add_argument("input")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("evaluate", parents=[common], help="evaluate an expression")
    p.add_argument("input")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("kappa", help="the kappa graph of an object")
    p.add_argument("input")
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("cotree", help="recognise a graph ('n; u-v u-v ...') as a cograph")
    p.add_argument("input")
    p.set_defaults(func=cmd_cotree)

    p = sub.add_parser("hom", help="enumerate a hom-set over bool2")
    p.add_argument("--format", choices=["text", "lines"], default="text")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("verify", help="run the axiom suite")
    p.add_argument("--max-vertices", type=_natural, default=2)
    p.add_argument("--format", choices=["text", "lines"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dot", parents=[common], help="emit graphviz DOT")
    picture = p.add_mutually_exclusive_group()
    picture.add_argument("--kappa", action="store_true", help="render kappa of the object")
    picture.add_argument("--morphism", action="store_true", help="render a morphism's circles")
    p.add_argument("input")
    p.set_defaults(func=cmd_dot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early shows up here, not at exit
        return code
    except BrokenPipeError:
        # the reader has all it wanted; send the interpreter's final flush
        # to devnull so that it stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except dsl.DslSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except ValueError as exc:  # MorphismError, NotACograph and IllTyped among them
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except cg.TooLarge as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE


if __name__ == "__main__":
    sys.exit(main())
