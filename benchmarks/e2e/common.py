"""What the four workloads share: configuration, the result shape, helpers."""

from __future__ import annotations

import math
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import stats
from tracing import Layers, Recorder

HERE = Path(__file__).resolve().parent
DEFAULT_OUT = HERE / "results"
DEFAULT_SEED = 1
#: set-up is repeated this often per run and its median reported
SETUP_REPEATS = 3
#: per request, layer self times may miss the wall time by this share of it ...
SELF_SUM_TOLERANCE = 0.05
#: ... or by this many seconds, whichever is larger: a thread hand-over the
#: spans cannot see costs a fixed fraction of a millisecond, which is 5% only
#: of a toy-scale run
SELF_SUM_FLOOR_S = 0.002

#: The issue's per-workload names for the measurements: unit, direction, and
#: the bound ``--compare`` judges them under.  The two simulated metrics
#: repeat exactly for a seed, so any difference is a verdict (bound 0).
NAMED = {
    "plan_cold_s": ("s", "lower", 0.10),
    "plan_warm_ms": ("ms", "lower", 0.10),
    "serve_latency_p50_s": ("s", "lower", 0.10),
    "serve_latency_p80_s": ("s", "lower", 0.10),
    "serve_cpu_s_per_run": ("s", "lower", 0.10),
    "pack_steps_per_s": ("1/s", "higher", 0.10),
    "pack_p99_slowdown": ("ratio", "lower", 0.0),
    "pack_makespan_sim_s": ("sim_s", "lower", 0.0),
    "resume_sweep_s": ("s", "lower", 0.10),
}


@dataclass
class Config:
    """One workload run's knobs (all derived from the command line)."""

    seed: int = DEFAULT_SEED
    #: length of serve_recurring's open-loop window at the contract's rate of
    #: one arrival a second, an arrival at each end (``seconds`` + 1 of them);
    #: the batch workloads run fixed counts and ignore it
    seconds: int = 39
    trace: bool = False
    smoke: bool = False
    out: Path = DEFAULT_OUT
    goldens: dict = field(default_factory=dict)
    #: serve_recurring's arrival rate, 1/s (``--sweep`` overrides it)
    rate: float = 1.0

    @property
    def setup_repeats(self) -> int:
        """How often set-up runs; only a timed full-scale run repeats it."""
        return 1 if (self.trace or self.smoke) else SETUP_REPEATS

    def repetitions(self, full_scale: int) -> int:
        """A workload's fixed repetition count, cut to 2 at smoke scale."""
        return 2 if self.smoke else full_scale

    def split(self, repetitions: int) -> tuple[int, int]:
        """``(untraced, traced)`` repetitions of one run.

        A traced run spends about half its repetitions with no wrapper
        installed: they are the reference ``trace_overhead_ratio`` divides by.
        """
        if not self.trace:
            return repetitions, 0
        reference = max(1, repetitions // 2)
        return reference, max(1, repetitions - reference)

    def golden(self, workload: str) -> dict | None:
        """The checked-in reference, which exists for the default seed only."""
        if self.smoke or self.seed != DEFAULT_SEED:
            return None
        return self.goldens.get(workload)


@dataclass
class Result:
    """What one workload run reports."""

    workload: str
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    #: the issue's per-workload names for the same measurements
    named: dict[str, float] = field(default_factory=dict)
    #: sample counts and the percentile actually reported
    samples: dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        """True when every output check held."""
        return not self.errors

    def check(self, condition: bool, message: str) -> bool:
        """Record ``message`` as a failed output check unless ``condition``."""
        if not condition:
            self.errors.append(message)
        return condition

    def measured(self, *, op_seconds: list[float], cpu_seconds: float,
                 operations: int, setup_seconds: list[float]) -> None:
        """Fill the end-to-end metrics every workload reports."""
        summary = stats.summary(op_seconds)
        self.samples.update(op_n=summary["n"], op_tail_q=summary["tail_q"],
                            setup_n=len(setup_seconds))
        self.end_to_end.update({
            "setup_s": statistics.median(setup_seconds),
            "peak_rss_mb": peak_rss_mb(),
            "op_p50_ms": summary["p50"] * 1e3,
            "op_tail_ms": summary["tail"] * 1e3,
            "op_cpu_ms": cpu_seconds / operations * 1e3,
        })


def peak_rss_mb() -> float:
    """This process's high-water resident set, MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def close(a: float, b: float) -> bool:
    """Equality of simulated numbers, tolerant of libm's last digit."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


@contextmanager
def scratch(cfg: Config) -> Iterator[Path]:
    """A run-private directory under ``--out`` (journals live here)."""
    cfg.out.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="tmp-", dir=cfg.out))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@contextmanager
def wrapped(install) -> Iterator[Recorder]:
    """Install wrappers through ``install(recorder)``; always restore them."""
    recorder = Recorder()
    install(recorder)
    try:
        yield recorder
    finally:
        recorder.restore()


def finish_trace(cfg: Config, result: Result, recorder: Recorder,
                 reference_cost: float, traced_cost: float) -> Layers:
    """Write ``trace-<workload>.json`` and report the tracing overhead."""
    spans = recorder.finish()
    recorder.dump(cfg.out / f"trace-{result.workload}.json", spans,
                  {"workload": result.workload, "seed": cfg.seed,
                   "epoch": recorder.epoch})
    result.per_layer["trace_overhead_ratio"] = traced_cost / reference_cost - 1.0
    result.samples["trace_spans"] = len(spans)
    return Layers(spans)


def check_self_time_sums(result: Result, layers: Layers,
                         request_wall: dict[str, float]) -> None:
    """Per request, layer self times must add up to the request's wall time."""
    sums = layers.request_self_sums()
    worst = 0.0
    for request, wall in request_wall.items():
        got = sums.get(request)
        if got is None:
            result.errors.append(f"trace: request {request} recorded no span")
            return
        gap = abs(got - wall)
        worst = max(worst, gap / wall)
        if gap > max(SELF_SUM_TOLERANCE * wall, SELF_SUM_FLOOR_S):
            result.errors.append(
                f"trace: layer self times of request {request} sum to "
                f"{got:.6f} s, its wall time is {wall:.6f} s "
                f"(limit {SELF_SUM_TOLERANCE:.0%})")
            return
    result.samples["self_sum_worst_gap"] = worst


class Stopwatch:
    """Wall and process-CPU seconds accumulated over timed sections."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.laps: list[float] = []

    @contextmanager
    def lap(self) -> Iterator[None]:
        """Time one section; its wall time is appended to ``laps``."""
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - wall
            self.laps.append(elapsed)
            self.wall += elapsed
            self.cpu += time.process_time() - cpu
