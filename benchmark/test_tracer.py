"""Tests of the benchmark's span tracer.

    python3 -m pytest benchmark/test_tracer.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer, busy_time, span_table  # noqa: E402


def test_busy_time_is_a_union_and_self_time_excludes_children():
    spans = [(1, 0, 0, "b", 1.0, 3.0), (2, 0, 0, "b", 2.0, 5.0),
             (3, 0, 0, "c", 6.0, 7.0), (0, None, 0, "a", 0.0, 10.0)]
    assert busy_time(spans, {"b"}) == 4.0
    assert busy_time(spans, {"b", "c"}) == 5.0
    table = span_table(spans)
    assert table["a"] == (1, 10.0, 5.0)
    assert table["b"] == (2, 4.0, 5.0)


def test_install_patches_every_lookup_and_uninstall_restores():
    import picardlab.elliptic
    import picardlab.runner

    original = picardlab.runner.trace_feasibility
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert picardlab.runner.trace_feasibility is not original
        assert picardlab.elliptic.trace_feasibility is \
            picardlab.runner.trace_feasibility
        tracer.run_id = 7
        assert picardlab.runner.trace_feasibility(3, [{1, 2}, {1}]) == (True, [2, 1])
    finally:
        tracer.uninstall()
    assert picardlab.runner.trace_feasibility is original
    assert picardlab.elliptic.trace_feasibility is original
    (span,) = tracer.spans
    assert span[2:4] == (7, "elliptic.feasibility")
