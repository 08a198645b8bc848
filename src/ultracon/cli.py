"""Command-line interface.

Exit codes: 0 success / verification passed, 1 verification failed,
2 bad input (also used by argparse itself).  Reports are JSON with sorted
keys and no timestamps, so equal seeds give byte-identical output.
"""

import argparse
import sys

from .algebra import (
    DEFAULT_SIZE_GUARD,
    algebra_to_dict,
    direct_product,
    load_algebra,
    quotient,
)
from .congruence import con_lattice, con_lattice_dot, format_partition, parse_partition
from .constructions import CongruenceFamily, ultraproduct
from .corpus import standard_corpus
from .errors import UltraconError
from .iso import find_isomorphism
from .sweeps import (
    DEFAULT_MAX_PRODUCT,
    sweep_principal_collapse,
    sweep_thm1,
    sweep_thm2,
    sweep_thm3,
)
from .theorems import json_text, verify_thm1, verify_thm2, verify_thm3
from .ultrafilter import enumerate_ultrafilters, parse_ultrafilter

EPILOG = """\
table layout (mixed radix): the table of a k-ary symbol on a carrier of
size n is a flat list of n**k entries with the FIRST argument most
significant; the entry for (a1, ..., ak) sits at index
a1*n**(k-1) + a2*n**(k-2) + ... + ak.  direct products reuse the
convention over the factor sizes, coordinate 0 most significant: in a
product with sizes (2, 3), element 5 decodes to (1, 2).

partition text form: JSON blocks with no spaces, like [[0,1],[2]];
blocks sorted by least element, elements ascending.

ultrafilter spec: 'principal:<i0>' or a JSON list of subsets of the index
set, like [[1],[0,1]], which must satisfy the ultrafilter axioms.
"""


def _write_or_print(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _dump_json(data, out_path) -> None:
    _write_or_print(json_text(data), out_path)


def _cmd_con(args) -> int:
    algebra = load_algebra(args.algebra)
    lattice = con_lattice(algebra, max_size=args.size_guard)
    if args.format == "dot":
        _write_or_print(con_lattice_dot(lattice), args.out)
    elif args.format == "json":
        _dump_json({
            "algebra": algebra.name,
            "size": algebra.size,
            "count": len(lattice),
            "congruences": [format_partition(c) for c in lattice],
        }, args.out)
    else:
        _write_or_print("\n".join(format_partition(c) for c in lattice), args.out)
    return 0


def _cmd_product(args) -> int:
    factors = [load_algebra(p) for p in args.factors]
    prod = direct_product(factors, max_size=args.size_guard)
    if args.name:
        prod = prod.rename(args.name)
    _dump_json(algebra_to_dict(prod), args.out)
    return 0


def _cmd_quotient(args) -> int:
    algebra = load_algebra(args.algebra)
    part = parse_partition(args.congruence, algebra.size)
    quot = quotient(algebra, part, max_size=args.size_guard)
    data = algebra_to_dict(quot, provenance={
        "construction": "quotient",
        "parent": {"name": algebra.name, "size": algebra.size},
        "congruence": format_partition(quot.congruence),
        "class_representatives": list(quot.class_reps),
    })
    _dump_json(data, args.out)
    return 0


def _cmd_ultraproduct(args) -> int:
    factors = [load_algebra(p) for p in args.factors]
    ultra = parse_ultrafilter(args.ultrafilter, len(factors))
    power = ultraproduct(factors, ultra, max_size=args.size_guard)
    data = algebra_to_dict(power, provenance={
        "construction": "ultraproduct",
        "factors": [{"name": f.name, "size": f.size} for f in power.factors],
        "ultrafilter": ultra.members_as_sets(),
        "class_representatives": [list(power.product.decode(r)) for r in power.class_reps],
    })
    _dump_json(data, args.out)
    return 0


def _cmd_ultrafilters(args) -> int:
    found = enumerate_ultrafilters(args.n)
    if args.format == "json":
        _dump_json([d.members_as_sets() for d in found], args.out)
    else:
        lines = []
        for d in found:
            sets = " ".join("{" + ",".join(map(str, s)) + "}" for s in d.members_as_sets())
            lines.append(f"ultrafilter over 0..{args.n - 1}: {sets}")
        _write_or_print("\n".join(lines), args.out)
    return 0


def _cmd_iso(args) -> int:
    a = load_algebra(args.first)
    b = load_algebra(args.second)
    result = find_isomorphism(a, b)
    if result.found:
        print(f"isomorphic: {list(result.witness.image)}")
        return 0
    print("not isomorphic")
    return 1


# flags a theorem does not read; --seed is accepted by all three
_UNUSED_FLAGS = {"thm1": ("sigma", "algebra"), "thm2": ("algebra",), "thm3": ("factors",)}


def _cmd_verify(args) -> int:
    for flag in _UNUSED_FLAGS[args.theorem]:
        if getattr(args, flag):
            raise UltraconError(f"{args.theorem} does not take --{flag}")
    if args.theorem == "thm3":
        if not args.algebra:
            raise UltraconError("thm3 needs --algebra")
        algebra = load_algebra(args.algebra)
        if not args.sigma:
            raise UltraconError("thm3 needs at least one --sigma")
        ultra = parse_ultrafilter(args.ultrafilter, len(args.sigma))
        sigmas = [parse_partition(t, algebra.size) for t in args.sigma]
        report = verify_thm3(algebra, sigmas, ultra)
    else:
        if not args.factors:
            raise UltraconError(f"{args.theorem} needs --factors")
        factors = [load_algebra(p) for p in args.factors]
        ultra = parse_ultrafilter(args.ultrafilter, len(factors))
        if args.theorem == "thm1":
            report = verify_thm1(factors, ultra, seed=args.seed)
        else:
            if len(args.sigma) != len(factors):
                raise UltraconError(f"thm2 needs one --sigma per factor ({len(factors)}), got {len(args.sigma)}")
            sigmas = [parse_partition(t, f.size) for t, f in zip(args.sigma, factors)]
            report = verify_thm2(CongruenceFamily(factors, sigmas), ultra)
    print("\n".join(report.summary_lines()))
    if args.report:
        _write_or_print(report.to_json(), args.report)
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    if args.corpus:
        import glob
        import os

        paths = sorted(glob.glob(os.path.join(args.corpus, "*.json")))
        if not paths:
            raise UltraconError(f"no .json algebras found in {args.corpus}")
        algebras = [load_algebra(p) for p in paths]
    else:
        algebras = list(standard_corpus())
    wanted = args.theorem
    results = {}
    if wanted in ("all", "thm1"):
        results["thm1"] = sweep_thm1(algebras, max_product=args.max_product, seed=args.seed)
    if wanted in ("all", "thm2"):
        results["thm2"] = sweep_thm2(algebras, max_product=args.max_product, seed=args.seed)
    if wanted in ("all", "thm3"):
        results["thm3"] = sweep_thm3(algebras, seed=args.seed)
    if wanted in ("all", "collapse"):
        results["principal-collapse"] = sweep_principal_collapse(algebras, max_product=args.max_product)
    all_passed = True
    for name, result in results.items():
        status = "PASS" if result.passed else "FAIL"
        print(f"{name}: {status} ({result.instances} instances, {result.families} families)")
        all_passed = all_passed and result.passed
    if args.report:
        _dump_json({name: result.to_dict() for name, result in results.items()}, args.report)
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultracon",
        description="finite universal algebra: congruence lattices, ultrafilters, ultraproducts",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("con", help="congruence lattice of an algebra, canonical order")
    p.add_argument("algebra", help="algebra JSON file")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("--out", default=None)
    p.add_argument("--size-guard", type=int, default=DEFAULT_SIZE_GUARD)
    p.set_defaults(run=_cmd_con)

    p = sub.add_parser("product", help="direct product of same-signature algebras")
    p.add_argument("factors", nargs="+", help="algebra JSON files")
    p.add_argument("--name", default="")
    p.add_argument("--out", default=None)
    p.add_argument("--size-guard", type=int, default=DEFAULT_SIZE_GUARD)
    p.set_defaults(run=_cmd_product)

    p = sub.add_parser("quotient", help="quotient by a congruence")
    p.add_argument("algebra", help="algebra JSON file")
    p.add_argument("--congruence", required=True, help="partition text, e.g. [[0,1],[2]]")
    p.add_argument("--out", default=None)
    p.add_argument("--size-guard", type=int, default=DEFAULT_SIZE_GUARD)
    p.set_defaults(run=_cmd_quotient)

    p = sub.add_parser("ultraproduct", help="product of the factors modulo an ultrafilter")
    p.add_argument("--factors", nargs="+", required=True, help="algebra JSON files")
    p.add_argument("--ultrafilter", required=True, help="principal:<i0> or JSON subsets")
    p.add_argument("--out", default=None)
    p.add_argument("--size-guard", type=int, default=DEFAULT_SIZE_GUARD)
    p.set_defaults(run=_cmd_ultraproduct)

    p = sub.add_parser("ultrafilters", help="every ultrafilter over {0..n-1} (n <= 4)")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_ultrafilters)

    p = sub.add_parser("iso", help="search for an isomorphism between two algebras")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(run=_cmd_iso)

    p = sub.add_parser("verify", help="machine-check one theorem instance")
    p.add_argument("theorem", choices=("thm1", "thm2", "thm3"))
    p.add_argument("--factors", nargs="+", default=None, help="factor algebra JSON files (thm1/thm2)")
    p.add_argument("--algebra", default=None, help="base algebra JSON file (thm3)")
    p.add_argument("--sigma", action="append", default=[],
                   help="partition text, once per factor (thm2) or per index (thm3)")
    p.add_argument("--ultrafilter", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("sweep", help="run the corpus-wide verification sweeps")
    p.add_argument("--theorem", choices=("all", "thm1", "thm2", "thm3", "collapse"), default="all")
    p.add_argument("--corpus", default=None, help="directory of algebra JSON files (default: built-in corpus)")
    p.add_argument("--max-product", type=int, default=DEFAULT_MAX_PRODUCT)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(run=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except UltraconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
