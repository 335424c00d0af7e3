"""Command-line interface.

Subcommands: verify (run catalog checks), count (point counts for one entry
at one prime), hodge (middle Hodge numbers and rank readings), report
(full catalog plus the Hodge maximality grid).  Exit status is 0 exactly
when no unexpected failure occurred.
"""

import argparse
import sys

from .catalog import builtin_catalog
from .exact import is_prime
from .report import hodge_row, render
from .runner import run_catalog

PLANE_PRIME_CAP = 499


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="picardlab",
        description="exact verification of curve maps, Jacobian splittings, "
                    "and point-count constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run checks for catalog entries")
    verify.add_argument("--entry", action="append", metavar="ID",
                        help="entry id (repeatable; default: all)")
    verify.add_argument("--pmax", type=int, default=200)
    verify.add_argument("--depth", type=int, default=1)
    verify.add_argument("--format", choices=("json", "md"), default="json")
    verify.add_argument("--out", metavar="PATH")

    count = sub.add_parser("count", help="point counts for one entry")
    count.add_argument("--entry", required=True, metavar="ID")
    count.add_argument("--prime", required=True, type=int)

    hodge = sub.add_parser("hodge", help="middle Hodge numbers and ranks")
    hodge.add_argument("--d", required=True, type=int)
    hodge.add_argument("--n", required=True, type=int)
    hodge.add_argument("--nmax", type=int)

    report = sub.add_parser("report", help="full catalog report")
    report.add_argument("--all", action="store_true", required=True)
    report.add_argument("--pmax", type=int, default=200)
    report.add_argument("--depth", type=int, default=1)
    report.add_argument("--format", choices=("json", "md"), default="json")
    report.add_argument("--out", metavar="PATH")

    return parser


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _run_and_render(parser, ids, pmax, depth, fmt, out, include_hodge):
    if not 1 <= pmax <= PLANE_PRIME_CAP:
        parser.error("--pmax must lie in [1, %d]" % PLANE_PRIME_CAP)
    if not 1 <= depth <= 3:
        parser.error("--depth must lie in [1, 3]")
    entries = builtin_catalog()
    try:
        runs = run_catalog(entries, ids=ids, pmax=pmax, depth=depth)
    except KeyError as exc:
        parser.error(str(exc.args[0]))
    _emit(render(runs, fmt, include_hodge=include_hodge), out)
    unexpected = sum(len(r.unexpected_failures()) for r in runs)
    return 0 if unexpected == 0 else 1


def _cmd_count(parser, args):
    entries = {e.id: e for e in builtin_catalog()}
    if args.entry not in entries:
        parser.error("unknown entry id: %s" % args.entry)
    entry = entries[args.entry]
    if entry.model["kind"] == "product":
        parser.error("entry %s is symbolic-only; nothing to count" % entry.id)
    p = args.prime
    if not (2 < p <= PLANE_PRIME_CAP and is_prime(p)):
        parser.error("--prime must be an odd prime at most %d"
                     % PLANE_PRIME_CAP)
    for value, _, bad in entry.specializations():
        label = "" if value is None else "t=%s: " % value
        if p in set(bad) | {2, 3}:
            print("%sp=%d is a bad prime; skipped" % (label, p))
            continue
        record = entry.counting_model(value).count_points(p)
        print("%sp=%d npoints=%d trace=%d"
              % (label, p, record.npoints, record.trace))
    return 0


def _cmd_hodge(parser, args):
    if args.d not in (3, 4):
        parser.error("--d must be 3 or 4 (no rank reading elsewhere)")
    if args.n < 2 or args.n % 2:
        parser.error("--n must be a positive even integer")
    top = args.nmax if args.nmax is not None else args.n
    if top < args.n or top % 2:
        parser.error("--nmax must be an even integer at least --n")
    for n in range(args.n, top + 2, 2):
        row = hodge_row(args.d, n)
        print("d=%d n=%d primitive=%d total=%d printed=%d adjusted=%d "
              "status=%s" % (row["d"], row["n"], row["primitive"],
                             row["total"], row["printed"], row["adjusted"],
                             row["status"]))
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return _run_and_render(parser, args.entry, args.pmax, args.depth,
                               args.format, args.out, include_hodge=False)
    if args.command == "count":
        return _cmd_count(parser, args)
    if args.command == "hodge":
        return _cmd_hodge(parser, args)
    if args.command == "report":
        return _run_and_render(parser, None, args.pmax, args.depth,
                               args.format, args.out, include_hodge=True)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
