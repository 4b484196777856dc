"""The layer tracer: wrapper installation, self time, nested counts."""

from __future__ import annotations

import sys
import types

import tracer as tracing


def _repro_attributes() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_uninstall_restores_every_patched_attribute_by_identity():
    tracer = tracing.Tracer()
    tracer.install()
    before_uninstall = tracer.patched
    import repro.core.solvability as solvability
    import repro.service.protocol as protocol
    import repro.service.server as server

    # Names imported into another module are patched there too.
    assert solvability.iterated_standard_chromatic_subdivision.__wrapped__ is not None
    assert server.decode_line.__wrapped__ is protocol.decode_line.__wrapped__
    targets = {target for targets in tracing.LAYERS.values() for target in targets}
    assert len(before_uninstall) >= len(targets)
    for module, name, original in before_uninstall:
        assert getattr(module, name) is not original
    # A module first imported while tracing copies a wrapper by name.
    late = types.ModuleType("repro._late_import")
    late.solve_task = solvability.solve_task
    sys.modules[late.__name__] = late
    try:
        tracer.uninstall()
        for module, name, original in before_uninstall:
            assert getattr(module, name) is original
        assert late.solve_task is solvability.solve_task
        assert not hasattr(solvability.solve_task, "__wrapped__")
    finally:
        del sys.modules[late.__name__]
    assert tracer.patched == []


def test_install_then_uninstall_leaves_the_package_unchanged():
    import repro.conformance.pipeline  # noqa: F401 - widen the scanned modules
    import repro.service.server  # noqa: F401

    before = _repro_attributes()
    with tracing.Tracer():
        pass
    after = _repro_attributes()
    assert before.keys() <= after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_wrappers_record_nested_spans_with_counts():
    import repro.core.solvability as solvability
    from repro.tasks import binary_consensus_task

    task = binary_consensus_task(2)
    with tracing.Tracer() as tracer:
        solvability.solve_task(task, 1)
    names = [span.name for span in tracer.spans]
    assert names[0] == "solvability.solve"
    assert "kernel.search" in names and "topology.substrate" in names
    assert all(span.parent == 0 for span in tracer.spans[1:])
    search = [span for span in tracer.spans if span.name == "kernel.search"]
    assert all(set(span.counts) == {"nodes", "conflicts", "backjumps", "exhausted"} for span in search)


def _span(name, start, end, parent=None, counts=None):
    return tracing.Span(name, start, end, parent, counts)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 4.0, parent=0),
        _span("c", 2.0, 3.0, parent=1),
        _span("b", 5.0, 9.0, parent=0),
    ]
    rows = tracing.self_times(spans)
    assert rows["a"].calls == 1 and rows["a"].self_s == 3.0
    assert rows["b"].calls == 2 and rows["b"].total_s == 7.0 and rows["b"].self_s == 6.0
    assert rows["c"].self_s == 1.0
    # Self times partition the root's wall time.
    assert sum(row.self_s for row in rows.values()) == 10.0
    windowed = tracing.self_times(spans, window=(4.5, 10.0))
    assert set(windowed) == {"b"} and windowed["b"].self_s == 4.0


def test_self_time_sums_counts_over_calls():
    spans = [
        _span("kernel.search", 0.0, 1.0, counts={"nodes": 5}),
        _span("solvability.solve", 1.0, 3.0),
        _span("kernel.search", 1.2, 2.8, parent=1, counts={"nodes": 7}),
    ]
    rows = tracing.self_times(spans)
    assert rows["kernel.search"].counts == {"nodes": 12}
