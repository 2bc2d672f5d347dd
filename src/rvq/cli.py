"""Command-line front end.

Exit codes: 0 success / affirmative, 1 semantic negative (invalid input
data, reducible, unknown, failed verification) or an unusable file path,
2 usage errors. Machine output is JSON-lines under --json; identical
invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import components, extensions, groups, homology, induction, strata
from .errors import BudgetExceeded, RVQError
from .gp import parse_gp, require_suspendable, validate


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as one line on stderr, with exit code 2."""

    def error(self, message):
        self.exit(2, "%s: error: %s\n" % (self.prog, message))


def _positive_int_arg(text):
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            "expected a positive integer, got %r" % text)
    return n


def _cache_dir_arg(text):
    if not text:
        raise argparse.ArgumentTypeError(
            "expected a directory path; --no-cache turns the cache off")
    return text


def _walk_arg(text):
    bad = sorted(set(text) - set("tbTB"))
    if bad:
        raise argparse.ArgumentTypeError(
            "walk steps must be t, b, T or B, got %s" % ", ".join(map(repr, bad)))
    return text


def _orders_arg(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers, got %r" % text) from None


def _split_orders_arg(text):
    orders = _orders_arg(text)
    if len(orders) not in (2, 3):
        raise argparse.ArgumentTypeError(
            "expected two or three integers, got %r" % text)
    return orders


def _prime_arg(text):
    try:
        p = int(text)
    except ValueError:
        p = 0
    if not groups.is_prime(p):
        raise argparse.ArgumentTypeError("%r is not a prime" % text)
    return p


def _rows_arg(text):
    """Table rows from e.g. "1-12" or "1,3,5"; every row must exist."""
    n_rows = len(components.table1_rows())
    rows = set()
    try:
        for part in text.split(","):
            if "-" in part:
                a, b = part.split("-")
                rows.update(range(int(a), int(b) + 1))
            else:
                rows.add(int(part))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected rows like 1-12 or 1,3,5, got %r" % text) from None
    if not rows or not all(1 <= r <= n_rows for r in rows):
        raise argparse.ArgumentTypeError(
            "expected rows from 1..%d, got %r" % (n_rows, text))
    return sorted(rows)


def _emit(args, record, human):
    if args.json:
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        sys.stdout.write(human + "\n")


def cmd_validate(args):
    gp = parse_gp(args.gp)
    violations = validate(gp)
    rec = {"gp": gp.encode(), "genuine": gp.is_genuine,
           "strict": gp.is_strict, "convention": not violations,
           "violations": list(violations)}
    kind = "genuine permutation" if gp.is_genuine \
        else "strict generalized permutation"
    human = "%s: %s; convention %s" % (
        gp.encode(), kind, "VIOLATED" if violations else "ok")
    if violations:
        human += " (%s)" % "; ".join(violations)
    _emit(args, rec, human)
    return 1 if violations else 0


def cmd_stratum(args):
    gp = require_suspendable(parse_gp(args.gp))
    sig = strata.stratum_signature(gp)
    rec = {"gp": gp.encode(), "orders": list(sig.orders), "genus": sig.genus,
           "genuine": gp.is_genuine}
    if gp.is_genuine:
        human = "%s [as %s] genus=%d" % (sig.abelian_str(), sig, sig.genus)
    else:
        human = "%s genus=%d" % (sig, sig.genus)
    _emit(args, rec, human)
    return 0


def cmd_class(args):
    gp = require_suspendable(parse_gp(args.gp))
    rc = induction.load_or_enumerate(gp, limit=args.budget,
                                     reduced_labels=args.reduced)
    rec = {"base": rc.base.encode(), "vertices": len(rc),
           "arrows": rc.arrow_count(), "complete": rc.complete,
           "reduced": rc.reduced_labels}
    if args.dot and args.dot != "-":
        # before the summary, so that an unusable path prints nothing
        with open(args.dot, "w") as fh:
            fh.write(induction.export_graph(rc))
    if args.dot == "-" and args.json:
        rec["dot"] = induction.export_graph(rc)  # JSON lines stay JSON lines
    _emit(args, rec, "class of %s: %d vertices, %d arrows, complete=%s"
          % (rc.base.encode(), len(rc), rc.arrow_count(), rc.complete))
    if args.dot == "-" and not args.json:
        sys.stdout.write(induction.export_graph(rc))
    return 0


def cmd_cocycle(args):
    gp = require_suspendable(parse_gp(args.gp))
    mat, end = homology.kz_walk(gp, args.walk, minus=args.minus)
    letters = homology.letters(gp, args.minus)
    rec = {"gp": gp.encode(), "walk": args.walk, "letters": list(letters),
           "matrix": [list(r) for r in mat], "end": end.encode()}
    rows = "\n".join(" ".join(str(x) for x in row) for row in mat)
    _emit(args, rec, "letters: %s\n%s\nend: %s"
          % (" ".join(letters), rows, end.encode()))
    return 0


def cmd_cover(args):
    gp = require_suspendable(parse_gp(args.gp))
    sig = strata.stratum_signature(gp)
    cs = strata.cover_stratum(sig)
    rec = {"gp": gp.encode(), "cover_orders": list(cs.orders),
           "cover_genus": cs.genus, "marked_points": cs.marked_points,
           "minus_eligible": sig.minus_eligible}
    _emit(args, rec, "%s genus=%d minus_eligible=%s"
          % (cs, cs.genus, sig.minus_eligible))
    return 0


def cmd_extend(args):
    gp = require_suspendable(parse_gp(args.gp))
    orders = args.orders
    if len(orders) == 2:
        out = extensions.split_singularity(
            gp, args.singularity, *orders).witness.extended
    else:
        out = extensions.split_even_zero(gp, args.singularity, *orders)
    sig = strata.stratum_signature(out)
    rec = {"gp": gp.encode(), "extended": out.encode(),
           "orders": list(sig.orders), "genus": sig.genus}
    _emit(args, rec, "%s  [%s genus=%d]" % (out.encode(), sig, sig.genus))
    return 0


def cmd_search(args):
    gp = require_suspendable(parse_gp(args.gp))
    try:
        rc = induction.enumerate_class(gp, limit=args.vertices)
    except BudgetExceeded as exc:  # scan the truncated class
        rc = exc.partial
    chains = extensions.search_extensions(
        rc.vertices, args.target_stratum, budget=args.budget)
    if args.nonhyp:
        chains = [c for c in chains if components.hyperelliptic_test(
            c[-1].extended) is False]
    chains = chains[:args.max_results]
    for chain in chains:
        final = chain[-1].extended
        rec = {"extended": final.encode(),
               "base": chain[0].base.encode(),
               "letters": [w.letter for w in chain]}
        _emit(args, rec, final.encode())
    if not args.json:
        sys.stdout.write("%d witness chain(s)\n" % len(chains))
    return 0 if chains else 1


def cmd_identify(args):
    gp = require_suspendable(parse_gp(args.gp))
    label = components.identify_component(gp, budget=args.budget)
    _emit(args, {"gp": gp.encode(), "component": label}, label)
    return 0 if label != components.UNKNOWN else 1


def cmd_group(args):
    gp = require_suspendable(parse_gp(args.gp))
    groups.image_quotient(gp, minus=args.minus)  # refused before any class
    rc = (groups.admissible_component(gp, limit=args.budget) if args.minus
          else induction.load_or_enumerate(gp, limit=args.budget))
    res = groups.rauzy_veech_group_modp(
        gp, rc, args.mod, cycles=args.cycles, maxlen=args.maxlen,
        seed=args.seed, minus=args.minus)
    rec = {"gp": gp.encode(), "p": res.p, "order": res.order,
           "index": res.index, "genus": res.genus,
           "generators": res.generators_used,
           "base_length": res.base_length, "cycles": args.cycles,
           "maxlen": args.maxlen, "seed": args.seed, "minus": args.minus,
           "exact": res.exact}
    if res.exact:
        harvest = "exact: %d generators from one cycle per %sarrow" % (
            res.generators_used, "admissible " if args.minus else "")
    else:
        harvest = ("lower bound: %d generators from %d cycles, maxlen %d, "
                   "seed %d" % (res.generators_used, args.cycles, args.maxlen,
                                args.seed))
    _emit(args, rec,
          "mod-%d closure: order %d, index %d in Sp(%d, F_%d) [%s]"
          % (res.p, res.order, res.index, 2 * res.genus, res.p, harvest))
    return 0


def cmd_verify_table(args):
    reports = components.verify_extension_table(args.rows, args.budget)
    bad = 0
    for r in reports:
        row = r.row
        rec = {"row": row.number, "start": row.start,
               "start_found": r.start_found,
               "end_orders": list(row.end_orders),
               "stratum_found": list(r.stratum_found),
               "irreducible": r.irreducible_ok, "convention": r.convention_ok,
               "chain": r.chain_ok, "hyperelliptic": r.hyperelliptic,
               "passed": r.passed}
        human = "row %2d: %s -> Q(%s)^%s: %s" % (
            row.number, row.start, ",".join(str(o) for o in row.end_orders),
            row.flavour, "PASS" if r.passed else "FAIL")
        _emit(args, rec, human)
        if not r.passed:
            bad += 1
    return 1 if bad else 0


def _common_flags(parser, suppress=False):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--json", action="store_true",
                        **({"default": d} if suppress else {}),
                        help="machine output as JSON lines")
    parser.add_argument("--budget", type=_positive_int_arg,
                        default=d if suppress else induction.DEFAULT_BUDGET,
                        help="vertex budget for class enumerations (for "
                             "search: extension candidates examined)")
    parser.add_argument("--cache-dir", type=_cache_dir_arg,
                        default=d if suppress else None,
                        help="class cache directory (default ./.rvq-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        **({"default": d} if suppress else {}),
                        help="neither read nor write the on-disk class "
                             "cache")


def main(argv=None):
    top = _Parser(
        prog="rvq",
        description="Rauzy-Veech machinery for generalized permutations")
    _common_flags(top)
    common = _Parser(add_help=False)
    _common_flags(common, suppress=True)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="classify and check the convention")
    p.add_argument("gp")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stratum", parents=[common], help="singularity orders and genus")
    p.add_argument("gp")
    p.set_defaults(func=cmd_stratum)

    p = sub.add_parser("class", parents=[common], help="enumerate the Rauzy class")
    p.add_argument("gp")
    p.add_argument("--reduced", action="store_true",
                   help="enumerate relabeled normal forms")
    p.add_argument("--dot", help="write DOT digraph to a file ('-' = stdout)")
    p.set_defaults(func=cmd_class)

    p = sub.add_parser("cocycle", parents=[common], help="transition matrix along a walk")
    p.add_argument("gp")
    p.add_argument("--walk", required=True, type=_walk_arg,
                   help="steps over t, b (forward) and T, B (reversed)")
    p.add_argument("--minus", action="store_true",
                   help="double-cover matrices on both-rows letters")
    p.set_defaults(func=cmd_cocycle)

    p = sub.add_parser("cover", parents=[common], help="orientation double cover data")
    p.add_argument("gp")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("extend", parents=[common], help="split a conical point")
    p.add_argument("gp")
    p.add_argument("--singularity", type=int, required=True,
                   help="1-based position selecting the turning orbit")
    p.add_argument("--orders", required=True, type=_split_orders_arg,
                   help="m11,m12 for one split or m11,m12,m13 for the "
                        "even-order double split")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("search", parents=[common], help="scan two-letter extensions")
    p.add_argument("--from", dest="gp", required=True)
    p.add_argument("--target-stratum", required=True, type=_orders_arg,
                   help="comma-separated orders, e.g. 6,-1,-1")
    p.add_argument("--nonhyp", action="store_true")
    p.add_argument("--vertices", type=_positive_int_arg, default=16,
                   help="class vertices to scan")
    p.add_argument("--max-results", type=_positive_int_arg, default=4)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("identify", parents=[common], help="name the connected component")
    p.add_argument("gp")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("group", parents=[common], help="mod-p closure of the cycle matrices")
    p.add_argument("gp")
    p.add_argument("--mod", type=_prime_arg, default=2)
    p.add_argument("--minus", action="store_true")
    p.add_argument("--cycles", type=_positive_int_arg, default=200,
                   help="one cycle per arrow for at most 4*N arrows; N random "
                   "cycles only beyond that")
    p.add_argument("--maxlen", type=_positive_int_arg, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("verify-table", parents=[common], help="check the extension table rows")
    p.add_argument("--rows", type=_rows_arg, help="e.g. 1-12 or 1,3,5")
    p.set_defaults(func=cmd_verify_table)

    args = top.parse_args(argv)
    saved = os.environ.get(induction.CACHE_ENV)
    if args.no_cache:
        os.environ[induction.CACHE_ENV] = ""  # the cache's off switch
    elif args.cache_dir:
        os.environ[induction.CACHE_ENV] = args.cache_dir
    try:
        return args.func(args)
    except (RVQError, OSError) as exc:
        sys.stderr.write("%s: %s\n" % (type(exc).__name__, exc))
        return 1
    finally:
        if saved is None:
            os.environ.pop(induction.CACHE_ENV, None)
        else:
            os.environ[induction.CACHE_ENV] = saved


if __name__ == "__main__":
    sys.exit(main())
