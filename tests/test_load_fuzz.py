"""Load fuzzer: every single-field edit of the shipped catalog either loads
or is refused with a CatalogError, and raises nothing else; an edit that
loads runs its entries and renders its report.

An edit deletes one value at a path under ``tower`` or ``entries`` of
``builtin.json``, replaces it with one of REPLACEMENTS, or changes it by one
of the VALUE_EDITS of its type: a text garbled, an int scaled or shifted, a
list with an element dropped or repeated.  The tests run a seeded sample of
the edits; run this file as a script to load, run and render all of them
and print the count of each outcome, of each row status, of the FAIL rows
of each check family and of each crash class:

    PYTHONPATH=src python tests/test_load_fuzz.py
"""

import json
import random
import sys
import time
import traceback
from collections import Counter
from importlib import resources

from picardlab.catalog import CatalogError, load_catalog
from picardlab.report import render_json
from picardlab.runner import run_entry

DELETE = object()
REPLACEMENTS = [None, 7, "x", "", [], {}, True, -3.0, [1, 0, 0]]
SAMPLE, SEED = 1500, 29
# the pmax of a run of an edited entry, and the seconds an edit may take to
# load, run and render
PMAX, SECONDS = 10, 5
# an edit that puts a float in a row's evidence, unless the load refuses it
FLOAT_EDIT = (("entries", 5, "aux", 0, "expected", 1), -3.0)


class ValueEdit:
    """A named change of the value at a path: the new value from the old."""

    def __init__(self, name, change):
        self.name = name
        self.change = change


# the edits of a value by its type; a bool is not an int here, and an empty
# list has no element to drop or repeat
VALUE_EDITS = {
    str: [ValueEdit("append +x", lambda s: s + "+x"),
          ValueEdit("drop the last character", lambda s: s[:-1]),
          ValueEdit("square", lambda s: "(%s)^2" % s),
          ValueEdit('"0"', lambda s: "0"),
          ValueEdit('"1"', lambda s: "1")],
    int: [ValueEdit("times 1000", lambda n: n * 1000),
          ValueEdit("negate", lambda n: -n),
          ValueEdit("plus 1", lambda n: n + 1),
          ValueEdit("0", lambda n: 0)],
    list: [ValueEdit("drop the first element", lambda v: v[1:]),
           ValueEdit("repeat the first element", lambda v: v[:1] + v),
           ValueEdit("drop the last element", lambda v: v[:-1])],
}

TEXT = resources.files("picardlab").joinpath("data/builtin.json").read_text()


def _paths(value, path):
    """(path, value) of every value inside `value`, each parent before its
    children."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,), child
        yield from _paths(child, path + (key,))


def edits():
    """(path, replacement) pairs at every path under the tower and the
    entries: DELETE, each of REPLACEMENTS, and each of the VALUE_EDITS of
    the value's type."""
    document = json.loads(TEXT)
    return [(path, replacement)
            for top in ("tower", "entries")
            for path, value in _paths(document[top], (top,))
            for replacement in [DELETE] + REPLACEMENTS
            + (VALUE_EDITS.get(type(value), []) if value != [] else [])]


def edited(path, replacement):
    """A fresh copy of the shipped document with one edit made."""
    document = json.loads(TEXT)
    node = document
    for key in path[:-1]:
        node = node[key]
    if replacement is DELETE:
        del node[path[-1]]
        return document
    if isinstance(replacement, ValueEdit):
        replacement = replacement.change(node[path[-1]])
    # a fresh copy, so that no two edits, and no two places in one edit,
    # share a list or an object
    node[path[-1]] = json.loads(json.dumps(replacement))
    return document


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


def _edit_name(replacement):
    if replacement is DELETE:
        return "delete"
    if isinstance(replacement, ValueEdit):
        return replacement.name
    return json.dumps(replacement)


def _label(path, replacement):
    return "%s <- %s" % ("/".join(map(str, path)), _edit_name(replacement))


def test_sampled_edits_that_load_run_and_render():
    # each edit loads or is refused with a CatalogError, and one that loads
    # runs and renders, within SECONDS
    sample = random.Random(SEED).sample(edits(), SAMPLE) + [FLOAT_EDIT]
    crashes, slow, loaded = [], [], 0
    for path, replacement in sample:
        start = time.perf_counter()
        try:
            loaded += rendered(path, replacement) is not None
        except Exception as exc:
            crashes.append("%s: %r" % (_label(path, replacement), exc))
        if time.perf_counter() - start > SECONDS:
            slow.append(_label(path, replacement))
    assert crashes == []
    assert slow == []
    assert loaded > SAMPLE // 10


def test_every_edit_kind_reaches_every_part_of_the_document():
    # the sample is a tenth or so of the edits, spread over both parts
    every = edits()
    assert SAMPLE < len(every)
    sample = random.Random(SEED).sample(every, SAMPLE)
    assert {path[0] for path, _ in sample} == {"tower", "entries"}
    kinds = 1 + len(REPLACEMENTS) + sum(map(len, VALUE_EDITS.values()))
    assert len({_edit_name(r) for _, r in sample}) == kinds


def _family(check_id):
    """The check family of a row: an aux row's id, or the first word of any
    other (``map:f`` is a map row, ``trace:t=0`` a trace row)."""
    return check_id if check_id.startswith("aux:") else check_id.split(":")[0]


def main():
    counts, statuses, crashes = Counter(crash=0), Counter(), Counter()
    # FAIL rows by family, under every edit and under the edits outside
    # an entry's aux list
    fails, outside = Counter(), Counter()
    for path, replacement in edits():
        try:
            runs = rendered(path, replacement)
            if runs is None:
                counts["refused"] += 1
                continue
            counts["rendered"] += 1
            statuses.update(c.status for run in runs for c in run.checks)
            failed = [_family(c.check_id) for run in runs for c in run.checks
                      if c.status == "FAIL"]
            fails.update(failed)
            if "aux" not in path[:3]:
                outside.update(failed)
        except Exception as exc:
            counts["crash"] += 1
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            crashes["%s in %s" % (type(exc).__name__, frame.name)] += 1
            print("crash: %s: %r" % (_label(path, replacement), exc))
    print(" ".join("%s=%d" % item for item in sorted(counts.items())))
    print("rows: " + " ".join("%s=%d" % item
                              for item in sorted(statuses.items())))
    print("FAIL rows by family (every edit, edits outside the aux list):")
    for family in sorted(fails):
        print("%5d %5d %s" % (fails[family], outside[family], family))
    for where, n in crashes.most_common():
        print("%5d %s" % (n, where))
    return 1 if crashes else 0


if __name__ == "__main__":
    sys.exit(main())
