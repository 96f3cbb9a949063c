import multiprocessing
import threading
import time

import pytest


@pytest.fixture(autouse=True)
def nothing_left_running():
    """Fail a test that leaves a thread or multiprocessing child it started
    still running: each is joined, with 5 s for them all. Threads and
    children alive before the test are left alone."""
    threads = set(threading.enumerate())
    children = set(multiprocessing.active_children())
    yield
    deadline = time.monotonic() + 5.0
    left = []
    for worker in [*(t for t in threading.enumerate() if t not in threads),
                   *(p for p in multiprocessing.active_children()
                     if p not in children)]:
        worker.join(max(0.0, deadline - time.monotonic()))
        if worker.is_alive():
            left.append(worker)
    if left:
        pytest.fail(f"left running: {left}")
