"""Command-line interface.

Subcommands: verify (run catalog checks), count (point counts for one entry
at one prime), hodge (middle Hodge numbers and rank readings), report
(full catalog plus the Hodge maximality grid).  Exit status is 0 exactly
when no unexpected failure occurred.

A call whose first argument names a subcommand builds that subcommand's
parser only, and its usage errors, range checks included, print its usage;
any other call builds the top-level parser, which lists the subcommands.
"""

import argparse
import sys

from .catalog import PRIME_CAP, CatalogError, builtin_catalog
from .exact import is_prime
from .report import hodge_row, render
from .runner import run_catalog


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


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _run_and_render(parser, args, ids, include_hodge):
    if not 1 <= args.pmax <= PRIME_CAP:
        parser.error("--pmax must lie in [1, %d]" % PRIME_CAP)
    if not 1 <= args.depth <= 3:
        parser.error("--depth must lie in [1, 3]")
    entries = builtin_catalog(ids)
    missing = set(ids or ()) - {e.id for e in entries}
    if missing:
        parser.error("unknown entry ids: %s" % ", ".join(sorted(missing)))
    runs = run_catalog(entries, pmax=args.pmax, depth=args.depth)
    _emit(render(runs, args.format, include_hodge=include_hodge), args.out)
    unexpected = sum(len(r.unexpected_failures()) for r in runs)
    return 0 if unexpected == 0 else 1


def _cmd_count(parser, args):
    p = args.prime
    if not (2 < p <= PRIME_CAP and is_prime(p)):
        parser.error("--prime must be an odd prime at most %d" % PRIME_CAP)
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


# each subcommand: its help line, its arguments' declaration, its run
COMMANDS = {
    "verify": ("run checks for catalog entries", _declare_verify,
               lambda p, a: _run_and_render(p, a, a.entry, False)),
    "count": ("point counts for one entry", _declare_count, _cmd_count),
    "hodge": ("middle Hodge numbers and ranks", _declare_hodge, _cmd_hodge),
    "report": ("full catalog report", _declare_report,
               lambda p, a: _run_and_render(p, a, None, True)),
}


def _subcommand(name, parser):
    """`parser` with subcommand `name`'s arguments; a parse names both."""
    parser.set_defaults(command=name, parser=parser)
    COMMANDS[name][1](parser)
    return parser


def _build_parser():
    """The top-level parser, with every subcommand's parser under it."""
    parser = argparse.ArgumentParser(prog="picardlab", description=(
        "exact verification of curve maps, Jacobian splittings, and "
        "point-count constraints"))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _) in COMMANDS.items():
        _subcommand(name, sub.add_parser(name, help=summary))
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:
        args = _subcommand(argv[0], argparse.ArgumentParser(
            prog="picardlab " + argv[0])).parse_args(argv[1:])
    else:
        # the top-level parser prints its help or a usage error
        args = _build_parser().parse_args(argv)
    return COMMANDS[args.command][2](args.parser, args)


if __name__ == "__main__":
    sys.exit(main())
