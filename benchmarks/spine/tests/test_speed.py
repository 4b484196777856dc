"""Scaling by the reference loop: the arithmetic and the probe's side effects."""

from __future__ import annotations

import os

import pytest

import speed
import workloads


def test_a_window_scales_each_slice_by_the_probes_around_it():
    ref = speed.REFERENCE_S
    window = workloads.Window(references=[ref])
    # The same two one-second operations, run back to back, on a machine
    # that gets two and then four times slower.
    window.add_slice(2.0, [1.0, 1.0], after=ref)
    window.add_slice(4.0, [2.0, 2.0], after=3 * ref)  # probes average 2x
    window.add_slice(8.0, [4.0, 4.0], after=5 * ref)  # probes average 4x
    assert window.seconds == 14.0
    assert window.scaled_seconds == pytest.approx(6.0)
    assert window.latencies == pytest.approx([1.0] * 6)
    assert window.ops_per_s() == pytest.approx(1.0)


def test_probing_every_cpu_restores_the_callers_cpu_set():
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {speed.CPUS[-1]})
    try:
        assert speed.probe(0.1, every_cpu=True) > 0
        assert os.sched_getaffinity(0) == {speed.CPUS[-1]}
    finally:
        os.sched_setaffinity(0, own)
    assert speed.probe() > 0
