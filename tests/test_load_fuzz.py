"""Load fuzzer: every single-field edit of the shipped catalog either loads
or is refused with a CatalogError, and raises nothing else; an edit that
loads runs its entries and renders its report.

An edit deletes one value at a path under ``tower`` or ``entries`` of
``builtin.json``, or replaces it with one of REPLACEMENTS.  The tests run a
seeded sample of the edits; run this file as a script to load, run and
render all of them and print the count of each outcome, of each row status
and of each crash class:

    PYTHONPATH=src python tests/test_load_fuzz.py
"""

import json
import random
import sys
import traceback
from collections import Counter
from importlib import resources

from picardlab.catalog import CatalogError, load_catalog
from picardlab.report import render_json
from picardlab.runner import run_entry

DELETE = object()
REPLACEMENTS = [None, 7, "x", "", [], {}, True, -3.0, [1, 0, 0]]
SAMPLE, SEED = 1500, 29
# the pmax of a run of an edited entry
PMAX = 10

TEXT = resources.files("picardlab").joinpath("data/builtin.json").read_text()


def _paths(value, path):
    """The path of every value inside `value`, each parent before its
    children."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def edits():
    """(path, replacement) pairs, DELETE or one of REPLACEMENTS at every path
    under the tower and the entries."""
    document = json.loads(TEXT)
    return [(path, replacement)
            for top in ("tower", "entries")
            for path in _paths(document[top], (top,))
            for replacement in [DELETE] + REPLACEMENTS]


def edited(path, replacement):
    """A fresh copy of the shipped document with one edit made."""
    document = json.loads(TEXT)
    node = document
    for key in path[:-1]:
        node = node[key]
    if replacement is DELETE:
        del node[path[-1]]
    else:
        # a fresh copy, so that no two edits share a list or an object
        node[path[-1]] = json.loads(json.dumps(replacement))
    return document


def outcome(path, replacement):
    """'load' or 'refused'; any other exception propagates."""
    try:
        load_catalog(edited(path, replacement))
    except CatalogError:
        return "refused"
    return "load"


def rendered(path, replacement):
    """The runs at PMAX of the entries that an edit that loads reaches,
    once render_json has written them: the edited entry, every entry for
    an edit of the tower, none for a deleted entry.  None for an edit that
    is refused; any other exception propagates."""
    try:
        entries = load_catalog(edited(path, replacement))
    except CatalogError:
        return None
    if path[0] == "entries":
        entries = entries[path[1]:path[1] + 1] if len(path) > 2 else []
    runs = [run_entry(entry, pmax=PMAX) for entry in entries]
    render_json(runs)
    return runs


def _label(path, replacement):
    return "%s <- %s" % ("/".join(map(str, path)),
                         "delete" if replacement is DELETE
                         else json.dumps(replacement))


def test_sampled_edits_load_or_are_refused():
    crashes = []
    for path, replacement in random.Random(SEED).sample(edits(), SAMPLE):
        try:
            outcome(path, replacement)
        except Exception as exc:
            crashes.append("%s: %r" % (_label(path, replacement), exc))
    assert crashes == []


def test_sampled_edits_that_load_run_and_render():
    sample = random.Random(SEED).sample(edits(), SAMPLE)
    # an edit that puts a float in a row's evidence, unless the load
    # refuses it
    assert (("entries", 5, "aux", 0, "expected", 1), -3.0) in sample
    crashes, loaded = [], 0
    for path, replacement in sample:
        try:
            loaded += rendered(path, replacement) is not None
        except Exception as exc:
            crashes.append("%s: %r" % (_label(path, replacement), exc))
    assert crashes == []
    assert loaded > SAMPLE // 10


def test_every_edit_kind_reaches_every_part_of_the_document():
    # the sample is a tenth or so of the edits, spread over both parts
    every = edits()
    assert SAMPLE < len(every)
    sample = random.Random(SEED).sample(every, SAMPLE)
    assert {path[0] for path, _ in sample} == {"tower", "entries"}
    assert len({id(r) if r is DELETE else json.dumps(r)
                for _, r in sample}) == 1 + len(REPLACEMENTS)


def main():
    counts, statuses, crashes = Counter(crash=0), Counter(), Counter()
    for path, replacement in edits():
        try:
            runs = rendered(path, replacement)
            if runs is None:
                counts["refused"] += 1
                continue
            counts["rendered"] += 1
            statuses.update(c.status for run in runs for c in run.checks)
        except Exception as exc:
            counts["crash"] += 1
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            crashes["%s in %s" % (type(exc).__name__, frame.name)] += 1
            print("crash: %s: %r" % (_label(path, replacement), exc))
    print(" ".join("%s=%d" % item for item in sorted(counts.items())))
    print("rows: " + " ".join("%s=%d" % item
                              for item in sorted(statuses.items())))
    for where, n in crashes.most_common():
        print("%5d %s" % (n, where))
    return 1 if crashes else 0


if __name__ == "__main__":
    sys.exit(main())
