"""Shared fixtures: short traces, images and programs for fast tests.

System-level tests run on 1-3 s traces (10 000-30 000 ticks) rather
than the full 10 s evaluation window; the statistical shape targets
hold there too and the suite stays fast.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.pragmas import IncidentalPragma, RecoverFromPragma
from repro.core.program import AnnotatedProgram
from repro.energy.traces import PowerTrace, standard_profile
from repro.kernels import MedianKernel, frame_sequence, test_scene


@pytest.fixture(scope="session")
def trace1():
    """Standard profile 1, 3 s."""
    return standard_profile(1, duration_s=3.0)


@pytest.fixture(scope="session")
def trace2():
    """Standard profile 2, 3 s."""
    return standard_profile(2, duration_s=3.0)


@pytest.fixture(scope="session")
def short_trace():
    """Profile 1, 1 s — for the fastest system tests."""
    return standard_profile(1, duration_s=1.0)


@pytest.fixture(scope="session")
def constant_trace():
    """A constant 500 µW trace: the system should run continuously."""
    return PowerTrace(np.full(10_000, 500.0), name="constant-500uW")


@pytest.fixture(scope="session")
def dead_trace():
    """An all-zero trace: the system should never start."""
    return PowerTrace(np.zeros(5_000), name="dead")


@pytest.fixture(scope="session")
def image32():
    """A 32x32 mixed synthetic scene."""
    return test_scene(32, "mixed", seed=7)


@pytest.fixture(scope="session")
def image64():
    """A 64x64 mixed synthetic scene."""
    return test_scene(64, "mixed", seed=7)


@pytest.fixture(scope="session")
def frames16():
    """Six 16x16 frames with a moving object."""
    return frame_sequence(6, 16, seed=7)


@pytest.fixture()
def median_program():
    """The paper's Figure 8 running example as an annotated program."""
    return AnnotatedProgram(
        MedianKernel(),
        [
            IncidentalPragma("src", 2, 8, "linear"),
            RecoverFromPragma("frame"),
        ],
    )


@pytest.fixture
def gate(monkeypatch):
    """Service jobs block in ``execute_campaign`` until ``gate.release``
    is set (a cancel, as a drain overrun sends, raises instead), then
    return ``gate.run(campaign, cancel_event)``: no result lines unless
    a test sets ``run`` (to the real ``execute_campaign``, say)."""
    from repro.errors import JobCancelledError
    from repro.service import queue as service_queue

    class Gate:
        started = threading.Event()
        release = threading.Event()

        def run(campaign, cancel_event=None):
            return [], {}

    def _gated_execute(campaign, cancel_event=None):
        Gate.started.set()
        deadline = time.monotonic() + 60.0
        while not Gate.release.wait(0.01):
            if cancel_event is not None and cancel_event.is_set():
                raise JobCancelledError("cancelled")
            if time.monotonic() > deadline:
                raise RuntimeError("gate never released")
        return Gate.run(campaign, cancel_event)

    monkeypatch.setattr(service_queue, "execute_campaign", _gated_execute)
    yield Gate
    Gate.release.set()
