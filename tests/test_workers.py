import os
import sys
import threading
import time

import pytest

from isingdec import core, workers


def test_results_come_back_in_input_order():
    calls = [lambda k=k: time.sleep(0.01 * (k % 3)) or k for k in range(7)]
    assert workers.run_calls(calls, 3) == list(range(7))


def test_one_worker_runs_the_calls_inline_in_order():
    seen = []
    calls = [lambda k=k: seen.append((k, threading.current_thread())) or k
             for k in range(4)]
    assert workers.run_calls(calls, 1) == [0, 1, 2, 3]
    assert seen == [(k, threading.current_thread()) for k in range(4)]


def test_interrupt_of_the_callers_call_goes_out_before_a_worker_error(monkeypatch):
    # two workers: the caller runs calls 0 and 2, the helper 1 and 3; the
    # helper's call 1 fails while the caller's call 2 is interrupted
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)  # on any host
    call_2_started, call_1_failing = threading.Event(), threading.Event()
    ran = []

    def call_1():
        call_2_started.wait(10)
        call_1_failing.set()
        raise core.CapacityError("from a worker")

    def call_2():
        call_2_started.set()
        call_1_failing.wait(10)
        raise KeyboardInterrupt

    calls = [lambda: ran.append(0), call_1, call_2, lambda: ran.append(3)]
    with pytest.raises(KeyboardInterrupt):
        workers.run_calls(calls, 2)
    assert ran == [0]


def test_a_batch_inside_batches_holding_every_cpu_runs_inline(monkeypatch):
    # two CPUs, both held by an outer batch: each nested batch runs its
    # calls on the thread that starts it, and the helpers are given back
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    seen = []

    def outer():
        inner = workers.run_calls([threading.current_thread] * 3, 2)
        seen.append((threading.current_thread(), inner, workers.free_cpus()))

    assert workers.free_cpus() == 2
    workers.run_calls([outer, outer], 2)
    assert workers.free_cpus() == 2
    assert len({me for me, _, _ in seen}) == 2
    assert all(inner == [me] * 3 and free == 1 for me, inner, free in seen)
    # a one-call outer batch holds no helper: the nested one gets both CPUs
    inner = workers.run_calls(
        [lambda: workers.run_calls([threading.current_thread] * 2, 2)], 2)[0]
    assert len(set(inner)) == 2


def test_helper_count_survives_racing_batches(monkeypatch):
    # batches on 8 threads start and end nested batches at once; a lost
    # update of the count would leave CPUs held after they all return
    monkeypatch.setattr(workers, "usable_cpus", lambda: 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def outer():
            for _ in range(40):
                workers.run_calls([list] * 4, 4)

        workers.run_calls([outer] * 8, 8)
    finally:
        sys.setswitchinterval(interval)
    assert workers.free_cpus() == 64


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
def test_usable_cpus_follow_the_affinity_mask():
    mask = os.sched_getaffinity(0)
    assert workers.usable_cpus() == len(mask)
    try:
        os.sched_setaffinity(0, {min(mask)})  # this process only, as taskset does
        assert workers.usable_cpus() == 1
    finally:
        os.sched_setaffinity(0, mask)
