"""MicroBatcher: group-commit coalescing, ordering, error delivery.

No test here depends on timing.  A batch is held running on an
``Event``, and the tests poll the key's open batch, under the batcher's
own lock, until the other submitters have queued behind it.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve.batching import MicroBatcher


def _queued(batcher, key, n):
    """True once ``n`` items wait in ``key``'s open batch."""
    with batcher._lock:
        batch = batcher._open.get(key)
        return batch is not None and len(batch.items) == n


def _wait_queued(batcher, key, n):
    poll = threading.Event()   # never set: wait() is a bounded pause
    for _ in range(1000):
        if _queued(batcher, key, n):
            return
        poll.wait(0.01)
    raise AssertionError(f"{n} items never queued on {key!r}")


def _blocking_runner(calls, release, first_started):
    """Record each batch; hold the first one running until ``release``."""
    def run_batch(items):
        calls.append(list(items))
        if len(calls) == 1:
            first_started.set()
            assert release.wait(30)
        return [x + 100 for x in items]
    return run_batch


class TestMicroBatcher:
    def test_single_submit_returns_its_result(self):
        batcher = MicroBatcher()
        assert batcher.submit("k", 3, lambda items: [x * 2 for x in items]) == 6

    def test_concurrent_submits_coalesce_into_one_batch(self):
        batcher = MicroBatcher()
        calls, release, started = [], threading.Event(), threading.Event()
        run_batch = _blocking_runner(calls, release, started)

        with ThreadPoolExecutor(max_workers=4) as pool:
            first = pool.submit(batcher.submit, "k", 0, run_batch)
            assert started.wait(30)
            rest = []
            for x in (1, 2, 3):   # one at a time, so arrival order is fixed
                rest.append(pool.submit(batcher.submit, "k", x, run_batch))
                _wait_queued(batcher, "k", x)
            release.set()
            results = [first.result(30)] + [f.result(30) for f in rest]

        # The lone first request ran at once; the three that arrived while
        # it ran joined one batch, and every caller got *its* result.
        assert calls == [[0], [1, 2, 3]]
        assert results == [100, 101, 102, 103]

    def test_distinct_keys_do_not_coalesce(self):
        batcher = MicroBatcher()
        calls, release, started = [], threading.Event(), threading.Event()
        run_batch = _blocking_runner(calls, release, started)

        with ThreadPoolExecutor(max_workers=2) as pool:
            a = pool.submit(batcher.submit, "a", 1, run_batch)
            assert started.wait(30)
            # Key "a" is still running; a submit on "b" does not wait for it.
            assert batcher.submit("b", 2, run_batch) == 102
            assert not a.done()
            release.set()
            assert a.result(30) == 101
        assert calls == [[1], [2]]

    def test_runner_error_is_delivered_to_every_member(self):
        batcher = MicroBatcher()
        release, started = threading.Event(), threading.Event()

        def run_batch(items):
            if items == [0]:
                started.set()
                assert release.wait(30)
                return [0]
            raise RuntimeError("model exploded")

        def submit(x):
            with pytest.raises(RuntimeError, match="model exploded"):
                batcher.submit("k", x, run_batch)
            return True

        with ThreadPoolExecutor(max_workers=4) as pool:
            first = pool.submit(batcher.submit, "k", 0, run_batch)
            assert started.wait(30)
            members = []
            for x in (1, 2, 3):
                members.append(pool.submit(submit, x))
                _wait_queued(batcher, "k", x)
            release.set()
            assert first.result(30) == 0
            assert all(f.result(30) for f in members)
        # The failed batch released its key: the next submit runs.
        assert batcher.submit("k", 0, run_batch) == 0

    def test_result_length_mismatch_is_an_error(self):
        batcher = MicroBatcher()
        with pytest.raises(RuntimeError, match="0 results for 1 items"):
            batcher.submit("k", 1, lambda items: [])

    def test_stress_one_running_batch_per_key(self):
        """Many threads, two keys: each key runs one batch at a time, and
        every item runs exactly once and returns to its own caller."""
        batcher = MicroBatcher()
        guard = threading.Lock()
        running = {"a": 0, "b": 0}
        overlaps, seen = [], []

        def run_batch(items):
            key = items[0][0]
            with guard:
                running[key] += 1
                seen.extend(items)
            sum(range(2000))   # room for another thread to switch in
            with guard:
                overlaps.append(running[key])
                running[key] -= 1
            return [x for _, x in items]

        def submit(i):
            key = "ab"[i % 2]
            return batcher.submit(key, (key, i), run_batch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(submit, range(400), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert results == list(range(400))
        assert max(overlaps) == 1
        assert sorted(x for _, x in seen) == list(range(400))
        assert not batcher._open and not batcher._running
