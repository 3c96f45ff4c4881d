"""Independent calls run side by side on threads.

numpy releases the interpreter lock inside its kernels, so calls that spend
their time there (a BTE elimination pass, a stacked average) overlap on as
many CPUs as the process may use. Each call computes what it computes alone:
callers split their work into calls whose results do not depend on which
thread runs them, or on how many threads there are.

A batch holds the CPUs of its helper threads while it runs. A batch started
inside a call of another gets only the CPUs no helper holds, at least its
own thread's: where other batches hold every usable CPU, it runs its calls
inline, on the calling thread.

The threads are plain `threading` ones: `concurrent.futures` imports
`logging`, which would be charged to the first batch of every CLI run.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

__all__ = ["usable_cpus", "free_cpus", "run_calls"]

_lock = threading.Lock()
_helpers = 0  # helper threads of the batches running now


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    reports one (`taskset` narrows it), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def free_cpus() -> int:
    """Usable CPUs that no helper thread of a running batch holds, the
    calling thread's own among them (so at least 1)."""
    return max(1, usable_cpus() - _helpers)


def run_calls(calls: list[Callable[[], object]], workers: int) -> list:
    """[call() for call in calls], on up to `workers` threads, the caller's
    among them, and no more than free_cpus(); results come back in input
    order.

    Worker w runs calls w, w + n, w + 2n, ... of n workers; with one, the
    caller runs them all in order. If a call raises an Exception, no further
    call starts, the running ones finish, and the exception of the earliest
    failed call is raised here, unchanged. An interrupt of the caller goes
    out as soon as the running calls have finished.
    """
    global _helpers
    results: list = [None] * len(calls)
    errors: list[Exception | None] = [None] * len(calls)
    failed = threading.Event()
    with _lock:
        n = max(1, min(workers, len(calls), free_cpus()))
        _helpers += n - 1

    def work(first: int) -> None:
        for k in range(first, len(calls), n):
            if failed.is_set():
                return
            try:
                results[k] = calls[k]()
            except Exception as err:  # raised by the caller below
                errors[k] = err
                failed.set()

    helpers = [threading.Thread(target=work, args=(w,)) for w in range(1, n)]
    try:
        for t in helpers:
            t.start()
        work(0)
    except BaseException:  # an interrupt: the helpers start no further call
        failed.set()
        raise
    finally:
        for t in helpers:
            if t.ident is not None:  # started
                t.join()
        with _lock:
            _helpers -= n - 1
    for err in errors:
        if err is not None:
            raise err
    return results
