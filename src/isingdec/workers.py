"""Independent whole calls run side by side on threads.

numpy releases the interpreter lock inside its kernels, so calls that spend
their time there (a BTE elimination pass, a stacked average) overlap on as
many CPUs as the process may use. A call is never split: each one computes
exactly what it computes alone, so results do not depend on the worker count.

The threads are plain `threading` ones: `concurrent.futures` imports
`logging`, which would be charged to the first batch of every CLI run.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

__all__ = ["usable_cpus", "run_calls"]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    reports one (`taskset` narrows it), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_calls(calls: list[Callable[[], object]], workers: int) -> list:
    """[call() for call in calls], on up to `workers` threads, the caller's
    among them; results come back in input order.

    Worker w runs calls w, w + n, w + 2n, ... of n workers; with one, the
    caller runs them all in order. If a call raises an Exception, no further
    call starts, the running ones finish, and the exception of the earliest
    failed call is raised here, unchanged. An interrupt of the caller goes
    out as soon as the running calls have finished.
    """
    n = max(1, min(workers, len(calls)))
    results: list = [None] * len(calls)
    errors: list[Exception | None] = [None] * len(calls)
    failed = threading.Event()

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
    for t in helpers:
        t.start()
    try:
        work(0)
    except BaseException:  # an interrupt: the helpers start no further call
        failed.set()
        raise
    finally:
        for t in helpers:
            t.join()
    for err in errors:
        if err is not None:
            raise err
    return results
