"""Command-line entry point.

Subcommands: validate, count, enumerate, extend2, extend3, lemma1-alpha,
family gen / family recognize, check.  All graph input is the gcg text
format.  Exit codes: 0 solved/counted/valid/PASS, 1 input or usage error,
2 certified obstruction / outside the family / FAIL.

Output is plain text with stable field order; anything that varies between
runs (timing) lives on '#' header lines, so identical inputs and seed give
byte-identical non-header output.
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice
from pathlib import Path

from . import families, gcg, propcheck, solver
from .families import FamilyError
from .gcg import GcgError
from .group_color import GroupColorError
from .propcheck import CHECK_IDS, PHI_MODES, PropcheckError, RandomInstanceConfig
from .solver import (
    ExtensionError,
    ExtensionProblem,
    ObstructionCertificate,
    SearchBudgetError,
)


class CliError(Exception):
    pass


def _load(path: str) -> gcg.GcgDocument:
    try:
        return gcg.parse_gcg(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CliError(f"no such file: {path}") from None
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except (GcgError, GroupColorError) as exc:
        raise CliError(f"{path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None


def _precolored_path(doc: gcg.GcgDocument, want: int) -> tuple[int, ...]:
    pre = doc.colors.precolor_map()
    oc = list(doc.graph.outer_cycle)
    if len(pre) != want:
        raise CliError(f"expected exactly {want} precolored vertices, got {len(pre)}")
    if not all(v in oc for v in pre):
        raise CliError("precolored vertices must lie on the outer cycle")
    k = len(oc)
    for start in range(k):
        path = tuple(oc[(start + t) % k] for t in range(want))
        if set(path) == set(pre):
            return path
    raise CliError("precolored vertices are not consecutive on the outer cycle")


def _cmd_validate(args) -> int:
    try:
        _load(args.file)
    except CliError as exc:
        # Strict parsing runs the validator: a parsed graph is valid.
        print(f"invalid: {exc}")
        return 1
    print("valid")
    return 0


def _cmd_count(args) -> int:
    doc = _load(args.file)
    print(f"colorings: {solver.count_colorings(doc.graph, doc.phi, doc.colors)}")
    return 0


def _cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise CliError(f"--limit must be at least 0, got {args.limit}")
    doc = _load(args.file)
    colorings = solver.enumerate_colorings(doc.graph, doc.phi, doc.colors)
    shown = 0
    for coloring in islice(colorings, args.limit):
        print(" ".join(str(c) for c in coloring))
        shown += 1
    print(f"enumerated: {shown}")
    return 0


def _cmd_extend2(args) -> int:
    doc = _load(args.file)
    path = _precolored_path(doc, 2)
    coloring = solver.extend_two(ExtensionProblem(doc.graph, doc.phi, doc.colors, path))
    print("coloring: " + " ".join(str(c) for c in coloring))
    return 0


def _cmd_extend3(args) -> int:
    doc = _load(args.file)
    path = _precolored_path(doc, 3)
    result = solver.extend_three(
        ExtensionProblem(doc.graph, doc.phi, doc.colors, path),
        node_budget=args.budget,
    )
    if isinstance(result, ObstructionCertificate):
        sexpr = families.to_sexpr(result.descriptor)
        print(f"obstruction: {sexpr}")
        print("embedding: " + " ".join(str(v) for v in result.embedding))
        if args.emit_certificate:
            text = gcg.write_gcg(
                result.graph,
                result.phi,
                result.colors,
                descriptor=sexpr,
                comment="obstruction certificate; embedding into the input graph: "
                + " ".join(f"{m}->{g}" for m, g in enumerate(result.embedding)),
            )
            _write(args.emit_certificate, text)
            print(f"certificate: {args.emit_certificate}")
        return 2
    print("coloring: " + " ".join(str(c) for c in result))
    return 0


def _cmd_lemma1_alpha(args) -> int:
    doc = _load(args.file)
    result = solver.lemma1_alpha(
        doc.graph,
        doc.phi,
        doc.colors,
        require_multi_wheel=not args.no_multi_wheel_check,
    )
    print(f"alpha: {result.alpha if result.kind == 'alpha' else result.kind}")
    return 0


def _cmd_family_gen(args) -> int:
    for descriptor in families.enumerate_family(args.max_n):
        print(families.to_sexpr(descriptor))
    return 0


def _cmd_family_recognize(args) -> int:
    doc = _load(args.file)
    descriptor = families.recognize_generalized_multi_wheel(
        doc.graph, families.principal_path(doc.graph)
    )
    if descriptor is None:
        print("not a generalized multi-wheel")
        return 2
    print(families.to_sexpr(descriptor))
    return 0


def _cmd_check(args) -> int:
    cfg = RandomInstanceConfig(
        n_max=args.n_max,
        phi_mode=args.phi_mode,
        samples=args.samples,
        seed=args.seed,
    )
    report = propcheck.run_check(args.property, cfg, jobs=args.jobs)
    text = report.render()
    sys.stdout.write(text)
    if args.report:
        _write(args.report, text)
    return 0 if report.passed else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z5color",
        description="Group colorings of plane near-triangulations over Z_m.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a gcg file against the model invariants")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("count", help="exact number of proper colorings")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("enumerate", help="list proper colorings")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("extend2", help="extend two precolored adjacent outer vertices")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_extend2)

    p = sub.add_parser(
        "extend3", help="extend a precolored outer path of three vertices"
    )
    p.add_argument("file")
    p.add_argument("--emit-certificate", metavar="PATH")
    p.add_argument("--budget", type=int, default=500_000)
    p.set_defaults(fn=_cmd_extend3)

    p = sub.add_parser(
        "lemma1-alpha",
        help="shared color difference of the non-extendable boundary precolorings",
    )
    p.add_argument("file")
    p.add_argument("--no-multi-wheel-check", action="store_true")
    p.set_defaults(fn=_cmd_lemma1_alpha)

    p = sub.add_parser("family", help="wheel-family generation and recognition")
    fam = p.add_subparsers(dest="family_command", required=True)
    q = fam.add_parser("gen", help="stream all members up to a vertex count")
    q.add_argument("--max-n", type=int, required=True)
    q.set_defaults(fn=_cmd_family_gen)
    q = fam.add_parser("recognize", help="decompose a graph into the family grammar")
    q.add_argument("file")
    q.set_defaults(fn=_cmd_family_recognize)

    p = sub.add_parser("check", help="run a property check and print its report")
    p.add_argument("property", choices=CHECK_IDS)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phi-mode", choices=PHI_MODES, default="uniform")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--report", metavar="PATH")
    p.set_defaults(fn=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (
        CliError,
        ExtensionError,
        FamilyError,
        GcgError,
        GroupColorError,
        PropcheckError,
        SearchBudgetError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
