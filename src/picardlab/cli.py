"""Command-line interface.

Subcommands: verify (run catalog checks), count (point counts for one entry
at one prime), hodge (middle Hodge numbers and rank readings), report
(full catalog plus the Hodge maximality grid).  Exit status is 0 exactly
when no unexpected failure occurred.
"""

import argparse
import sys

from .catalog import PRIME_CAP, CatalogError, builtin_catalog
from .exact import is_prime
from .report import hodge_row, render
from .runner import run_catalog


class _Subcommand:
    """One subcommand, as the top-level parser's subparsers action holds
    it: the keyword arguments of ``add_parser`` and the function that
    declares its arguments.  ``parse_known_args``, the one method that
    action calls on a subparser, builds the subcommand's parser, declares
    its arguments (its own ``--help`` included) and parses.  The top-level
    parser shows subcommands by name and help alone, so a call builds the
    parser of the subcommand it runs and of no other."""

    def __init__(self, *, declare, **kwargs):
        self._declare = declare
        self._kwargs = kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(**self._kwargs)
        self._declare(parser)
        return parser.parse_known_args(args, namespace)


def _declare_run(parser):
    parser.add_argument("--pmax", type=int, default=200)
    parser.add_argument("--depth", type=int, default=1)
    parser.add_argument("--format", choices=("json", "md"), default="json")
    parser.add_argument("--out", metavar="PATH")


def _declare_verify(parser):
    parser.add_argument("--entry", action="append", metavar="ID",
                        help="entry id (repeatable; default: all)")
    _declare_run(parser)


def _declare_report(parser):
    parser.add_argument("--all", action="store_true", required=True)
    _declare_run(parser)


def _declare_count(parser):
    parser.add_argument("--entry", required=True, metavar="ID")
    parser.add_argument("--prime", required=True, type=int)


def _declare_hodge(parser):
    parser.add_argument("--d", required=True, type=int)
    parser.add_argument("--n", required=True, type=int)
    parser.add_argument("--nmax", type=int)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="picardlab",
        description="exact verification of curve maps, Jacobian splittings, "
                    "and point-count constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Subcommand)
    sub.add_parser("verify", help="run checks for catalog entries",
                   declare=_declare_verify)
    sub.add_parser("count", help="point counts for one entry",
                   declare=_declare_count)
    sub.add_parser("hodge", help="middle Hodge numbers and ranks",
                   declare=_declare_hodge)
    sub.add_parser("report", help="full catalog report",
                   declare=_declare_report)
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
    if not 1 <= pmax <= PRIME_CAP:
        parser.error("--pmax must lie in [1, %d]" % PRIME_CAP)
    if not 1 <= depth <= 3:
        parser.error("--depth must lie in [1, 3]")
    entries = builtin_catalog(ids)
    missing = set(ids or ()) - {e.id for e in entries}
    if missing:
        parser.error("unknown entry ids: %s" % ", ".join(sorted(missing)))
    runs = run_catalog(entries, pmax=pmax, depth=depth)
    _emit(render(runs, fmt, include_hodge=include_hodge), out)
    unexpected = sum(len(r.unexpected_failures()) for r in runs)
    return 0 if unexpected == 0 else 1


def _cmd_count(parser, args):
    p = args.prime
    if not (2 < p <= PRIME_CAP and is_prime(p)):
        parser.error("--prime must be an odd prime at most %d"
                     % PRIME_CAP)
    entries = builtin_catalog([args.entry])
    if not entries:
        parser.error("unknown entry id: %s" % args.entry)
    (entry,) = entries
    try:
        rows = [(value, bad, entry.counting_model(value))
                for value, _, bad in entry.specializations()]
    except CatalogError as exc:
        parser.error(str(exc))
    for value, bad, model in rows:
        label = "" if value is None else "t=%s: " % value
        if p in set(bad) | {2, 3}:
            print("%sp=%d is a bad prime; skipped" % (label, p))
            continue
        record = model.count_points(p)
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
        print(" ".join("%s=%s" % item
                       for item in hodge_row(args.d, n).items()))
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
