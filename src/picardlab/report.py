"""Deterministic JSON and markdown rendering of catalog runs.

The JSON form is canonical: entries sorted by id, checks sorted by
(check id, prime), keys sorted, fixed separators.  Two runs over the same
catalog produce byte-identical output.

render_json writes that form in one pass of its own, not with an indented
json.dumps, which runs the standard library's pure-Python encoder.  It
writes the values a report holds: str, None, bool, int, list and dict,
their subclasses among them, with str keys.  On those its bytes are those
of json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n";
any other value (a float or a tuple too), or a key that is not a str,
raises a TypeError that names its type.  It does not look for circular
references, which a report document cannot hold.  tests/test_report.py
pins the contract against json.dumps on a seeded corpus and pins the
digests of the shipped catalog's canonical reports.
"""

from json.encoder import encode_basestring_ascii as _quote

from .hodge import HODGE_KEYS, maximality_report

HODGE_GRID_D = (3, 4)
HODGE_GRID_N = (2, 4, 6)


def check_row(check):
    row = {"id": check.check_id, "status": check.status,
           "evidence": check.evidence}
    if check.prime is not None:
        row["prime"] = check.prime
    return row


def entry_document(run):
    return {
        "entry": run.entry_id,
        "checks": [check_row(c) for c in run.checks],
        "summary": run.summary(),
    }


def hodge_row(d, n):
    data = maximality_report(d, n)
    return {key: data[key] for key in HODGE_KEYS}


def hodge_grid():
    return [hodge_row(d, n) for d in HODGE_GRID_D for n in HODGE_GRID_N]


def report_document(runs, include_hodge=False):
    doc = {"entries": [entry_document(r)
                       for r in sorted(runs, key=lambda r: r.entry_id)]}
    if include_hodge:
        doc["hodge"] = hodge_grid()
    return doc


def _write(o, out, nl):
    """Append the JSON text of o to out; nl is the newline and indent of
    the line that o starts on."""
    if isinstance(o, str):
        out.append(_quote(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, list):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        comma = "," + inner
        sep = "[" + inner
        for x in o:
            out.append(sep)
            _write(x, out, inner)
            sep = comma
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        comma = "," + inner
        sep = "{" + inner
        for k, v in sorted(o.items()):
            out.append(sep + _quote(k) + ": ")
            _write(v, out, inner)
            sep = comma
        out.append(nl + "}")
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % o.__class__.__name__)


def json_text(doc):
    """json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": "))
    + "\n", written in one pass."""
    out = []
    _write(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def render_json(runs, include_hodge=False):
    return json_text(report_document(runs, include_hodge))


def _markdown_entry(run):
    lines = ["## %s" % run.entry_id, "",
             "| check | prime | status |", "| --- | --- | --- |"]
    for c in run.checks:
        prime = "-" if c.prime is None else str(c.prime)
        lines.append("| %s | %s | %s |" % (c.check_id, prime, c.status))
    s = run.summary()
    lines.append("")
    lines.append("claims: %d pass / %d fail" % (s["pass"], s["fail"]))
    if s["skipped"]:
        lines.append("skipped: %d" % s["skipped"])
    lines.append("")
    return lines


def render_markdown(runs, include_hodge=False):
    lines = ["# picardlab report", ""]
    for run in sorted(runs, key=lambda r: r.entry_id):
        lines.extend(_markdown_entry(run))
    if include_hodge:
        lines.extend(["## hodge maximality", "",
                      "| %s |" % " | ".join(HODGE_KEYS),
                      "|" + " --- |" * len(HODGE_KEYS)])
        for row in hodge_grid():
            lines.append("| %s |" % " | ".join(map(str, row.values())))
        lines.append("")
    return "\n".join(lines)


def render(runs, fmt="json", include_hodge=False):
    if fmt == "json":
        return render_json(runs, include_hodge)
    if fmt == "md":
        return render_markdown(runs, include_hodge)
    raise ValueError("unknown report format %r" % fmt)
