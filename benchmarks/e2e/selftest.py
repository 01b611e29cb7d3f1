"""Self-tests of the harness's own arithmetic (not collected by tier-1).

Run them with ``python3 benchmarks/e2e/selftest.py`` (``--smoke`` does) or
``python -m pytest benchmarks/e2e/selftest.py``.  They cover what the
benchmark's numbers rest on: span self-time arithmetic, the
ten-samples-beyond percentile rule, open-loop latency and lateness
accounting, the verdict rule of ``--compare``, and that every wrapper the
traced pass installs is gone afterwards.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import stats  # noqa: E402
import tracing  # noqa: E402


def test_self_time_is_duration_minus_child_coverage():
    # overlapping children count once; a child running past its parent is
    # clipped: [1,5] + [8,10] of [0,10] are covered, 4 remain
    spans = [["p.root", 0.0, 10.0, None, "r", None],
             ["c.one", 1.0, 3.0, 0, "r", None],
             ["c.two", 2.0, 5.0, 0, "r", None],
             ["c.late", 8.0, 12.0, 0, "r", None],
             ["g.leaf", 1.5, 2.5, 1, "r", None]]
    selfs = tracing.self_times(spans)
    assert selfs == [4.0, 1.0, 3.0, 4.0, 1.0]
    layers = tracing.Layers(spans)
    assert layers.by_layer() == {"p": 4.0, "c": 8.0, "g": 1.0}
    assert layers.busy("c.one", "c.two") == 5.0


def test_recorded_self_times_sum_to_the_root():
    class Toy:
        def outer(self):
            time.sleep(0.002)
            self.inner()
            self.inner()
            return "run-7"

        def inner(self):
            time.sleep(0.001)

    recorder = tracing.Recorder()
    recorder.wrap(Toy, "outer", "toy.outer",
                  request=lambda args, kwargs, result: result)
    recorder.wrap(Toy, "inner", "leaf.inner")
    try:
        Toy().outer()
        other = threading.Thread(target=Toy().inner)  # its own stack: a root
        other.start()
        other.join(timeout=5)
    finally:
        recorder.restore()
    spans = recorder.finish()
    assert [s[tracing.NAME] for s in spans] == [
        "toy.outer", "leaf.inner", "leaf.inner", "leaf.inner"]
    assert [s[tracing.PARENT] for s in spans] == [None, 0, 0, None]
    # the run id is known only when the root returns: children inherit it
    assert [s[tracing.REQUEST] for s in spans] == ["run-7"] * 3 + [None]
    layers = tracing.Layers(spans)
    root = spans[0][tracing.END] - spans[0][tracing.START]
    assert abs(layers.request_self_sums()["run-7"] - root) < 1e-9
    assert layers.self_time("toy.outer") < root


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(50) == 80      # 10 of 50 beyond p80
    assert stats.tail_percentile(49) == 75
    assert stats.tail_percentile(39) == 75      # nothing qualifies: the lowest
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(231) == 95     # crash_resume: 11.55 beyond
    assert stats.tail_percentile(1000) == 99
    summary = stats.summary([float(i) for i in range(1, 51)])
    assert summary == {"n": 50, "p50": 25.5, "tail_q": 80,
                       "tail": stats.percentile(list(range(1, 51)), 80)}
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5


def test_open_loop_counts_latency_from_the_due_time():
    import serve_recurring
    from common import Config

    class StallingService:
        """Every submit blocks the generator for longer than one period."""

        def submit(self, workflow, tenant):
            time.sleep(0.03)
            done = threading.Event()
            done.set()
            return SimpleNamespace(done=done, finished_at=time.time())

    cfg = Config(rate=50.0)  # one arrival every 20 ms, each stalls 30 ms
    window = asyncio.run(
        serve_recurring._open_loop(cfg, StallingService(), arrivals=6))
    assert window.arrivals == 6 and window.unfinished == 0
    # the generator falls further behind with every arrival, and says so
    assert window.lateness[0] < 0.01
    assert all(b > a for a, b in zip(window.lateness, window.lateness[1:]))
    assert window.lateness[-1] > 0.04
    # latency runs from when the arrival was due, so the stall is in it
    for latency, late in zip(window.latencies(), window.lateness):
        assert latency >= late + 0.03


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert stats.verdict(base, [x * 1.01 for x in base], "lower", 0.1) == "unchanged"
    assert stats.verdict(base, [x * 1.2 for x in base], "lower", 0.1) == "regressed"
    assert stats.verdict(base, [x * 0.8 for x in base], "lower", 0.1) == "improved"
    assert stats.verdict(base, [x * 0.8 for x in base], "higher", 0.1) == "regressed"
    # a spread wider than the bound settles nothing ...
    noisy = [80.0, 120.0, 100.0, 70.0, 130.0]
    assert stats.verdict(noisy, [x * 1.05 for x in noisy], "lower", 0.1) == "unresolved"
    # ... unless every run of one side beats every run of the other
    assert stats.verdict(noisy, [x * 0.4 for x in noisy], "lower", 0.1) == "improved"
    # a gain inside the bound needs ten runs a side, all of them ahead
    few = [100.0, 100.2, 99.8]
    assert stats.verdict(few, [x * 0.98 for x in few], "lower", 0.1) == "unchanged"
    many = [100.0 + 0.1 * i for i in range(10)]
    assert stats.verdict(many, [x * 0.98 for x in many], "lower", 0.1) == "improved"
    # simulated metrics repeat exactly: zero spread, judged on the median
    assert stats.verdict([5.0] * 3, [5.0] * 3, "lower", 0.005) == "unchanged"
    assert stats.verdict([5.0] * 3, [5.1] * 3, "lower", 0.005) == "regressed"
    # bound 0 (the issue's simulated names): any difference is a verdict
    assert stats.verdict([5.0] * 3, [5.0] * 3, "lower", 0.0) == "unchanged"
    assert stats.verdict([5.0] * 3, [5.0 + 1e-9] * 3, "lower", 0.0) == "regressed"


def test_wrappers_are_restored_after_the_traced_pass():
    import cluster_pack
    import crash_resume
    import serve_recurring
    from common import wrapped

    def attributes(recorder):
        return [(owner, attr) for owner, attr, _ in recorder._installed]

    for install in (serve_recurring.install, crash_resume.install,
                    cluster_pack.install):
        probe = tracing.Recorder()
        install(probe)
        targets = attributes(probe)
        probe.restore()
        before = [vars(owner).get(attr, "absent") for owner, attr in targets]
        try:
            with wrapped(install):
                during = [vars(owner).get(attr) for owner, attr in targets]
                assert all(hasattr(w, "__wrapped__") for w in during)
                raise RuntimeError("a workload that fails mid-pass")
        except RuntimeError:
            pass
        after = [vars(owner).get(attr, "absent") for owner, attr in targets]
        assert after == before
        assert all(a is b for a, b in zip(after, before))


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"selftest ok: {name}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
