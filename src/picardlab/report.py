"""Deterministic JSON and markdown rendering of catalog runs.

The JSON form is canonical: entries sorted by id, checks sorted by
(check id, prime), keys sorted, fixed separators.  Two runs over the same
catalog produce byte-identical output.
"""

import json

from .hodge import maximality_report

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
    if not data["printed_discrepancy"]:
        status = "PASS"
    elif data["maximal"]:
        status = "PASS-via-adjusted"
    else:
        status = "DISCREPANCY"
    return {
        "d": d,
        "n": n,
        "primitive": data["primitive"],
        "total": data["total"],
        "printed": data["printed"],
        "adjusted": data["adjusted"],
        "status": status,
    }


def hodge_grid(ds=HODGE_GRID_D, ns=HODGE_GRID_N):
    return [hodge_row(d, n) for d in ds for n in ns]


def report_document(runs, include_hodge=False):
    doc = {"entries": [entry_document(r)
                       for r in sorted(runs, key=lambda r: r.entry_id)]}
    if include_hodge:
        doc["hodge"] = hodge_grid()
    return doc


def render_json(runs, include_hodge=False):
    doc = report_document(runs, include_hodge)
    return json.dumps(doc, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


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
        lines.append("## hodge maximality")
        lines.append("")
        lines.append("| d | n | primitive | total | printed | adjusted "
                     "| status |")
        lines.append("| --- | --- | --- | --- | --- | --- | --- |")
        for row in hodge_grid():
            lines.append(
                "| %d | %d | %d | %d | %d | %d | %s |"
                % (row["d"], row["n"], row["primitive"], row["total"],
                   row["printed"], row["adjusted"], row["status"])
            )
        lines.append("")
    return "\n".join(lines)


def render(runs, fmt="json", include_hodge=False):
    if fmt == "json":
        return render_json(runs, include_hodge)
    if fmt == "md":
        return render_markdown(runs, include_hodge)
    raise ValueError("unknown report format %r" % fmt)
