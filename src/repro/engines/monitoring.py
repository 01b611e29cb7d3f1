"""Execution monitoring: per-run metric records and cluster timelines.

The paper's profiler monitors 45 metrics per run — execution time, input and
output sizes/counts, the experiment date, operator-specific parameters and a
ganglia-sourced timeline of system metrics (CPU, RAM, network, IOPS) for the
whole cluster (D3.3 §2.2.1).  :class:`MetricRecord` carries the same
information; :class:`MetricsCollector` is the store the modeler reads.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.obs.context import current_run_id
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY

_LOG = get_logger("monitoring")

#: sampling period of the synthesized ganglia timeline (seconds)
TIMELINE_PERIOD = 5.0
#: cap on timeline samples per run, to bound memory
TIMELINE_MAX_SAMPLES = 200


@dataclass
class MetricRecord:
    """The monitored metrics of one operator execution."""

    operator: str
    algorithm: str
    engine: str
    exec_time: float
    started_at: float
    success: bool = True
    error: str | None = None
    input_size: float = 0.0
    input_count: float = 0.0
    output_size: float = 0.0
    output_cardinality: float = 0.0
    cores: int = 0
    memory_gb: float = 0.0
    params: dict = field(default_factory=dict)
    #: synthesized cluster timeline: {"cpu": [...], "ram": [...], ...}
    timeline: dict = field(default_factory=dict)

    def features(self) -> dict[str, float]:
        """Flat numeric feature view used for model training."""
        feats = {
            "input_size": self.input_size,
            "input_count": self.input_count,
            "cores": float(self.cores),
            "memory_gb": self.memory_gb,
        }
        for key, value in self.params.items():
            try:
                feats[f"param_{key}"] = float(value)
            except (TypeError, ValueError):
                continue
        return feats


#: pseudo-algorithm tag of resilience events (retries, breaker transitions,
#: speculation outcomes) — never collides with real operator algorithms, so
#: model training and per-operator queries are unaffected.
RESILIENCE_ALGORITHM = "__resilience__"

_RESILIENCE_EVENTS = REGISTRY.counter(
    "ires_resilience_events_total",
    "Resilience events (retries, breaker transitions, speculation outcomes)",
    labels=("kind", "engine", "run_id"),
)


def resilience_event(
    kind: str, engine: str, at: float, success: bool = True, detail: str = ""
) -> MetricRecord:
    """Build the MetricRecord for one resilience event (retry, breaker, …).

    Both producers (the enforcer's :class:`ResilienceManager` and the
    parallel simulator) funnel through here, so the
    ``ires_resilience_events_total`` counter sees every event exactly once.
    """
    _RESILIENCE_EVENTS.inc(kind=kind, engine=engine,
                           run_id=current_run_id() or "")
    return MetricRecord(
        operator=f"resilience.{kind}",
        algorithm=RESILIENCE_ALGORITHM,
        engine=engine,
        exec_time=0.0,
        started_at=at,
        success=success,
        error=detail or None,
        params={"kind": kind},
    )


def timeline_seed(operator: str, engine: str, started_at: float) -> int:
    """Deterministic seed for one run's synthesized timeline.

    Derived from ``(operator, engine, started_at)`` so the same run always
    regenerates the same timeline, while distinct runs — even the same
    operator re-executed later — get distinct noise.
    """
    key = f"{operator}|{engine}|{started_at!r}".encode()
    return zlib.crc32(key)


def synthesize_timeline(
    exec_time: float, cores: int, memory_gb: float, seed: int = 0
) -> dict[str, list[float]]:
    """Generate a plausible ganglia-style system-metric timeline for a run."""
    n = int(min(max(exec_time / TIMELINE_PERIOD, 1), TIMELINE_MAX_SAMPLES))
    rng = np.random.default_rng(seed)
    ramp = np.minimum(np.linspace(0.3, 1.0, n) * 1.4, 1.0)
    cpu = np.clip(ramp * 0.8 + rng.normal(0, 0.05, n), 0, 1)
    ram = np.clip(np.linspace(0.2, 0.85, n) + rng.normal(0, 0.03, n), 0, 1)
    net = np.clip(rng.gamma(2.0, 12.0, n) * cores, 0, None)
    iops = np.clip(rng.gamma(2.0, 40.0, n), 0, None)
    return {
        "cpu": cpu.round(4).tolist(),
        "ram": (ram * memory_gb).round(3).tolist(),
        "net_mbps": net.round(2).tolist(),
        "iops": iops.round(1).tolist(),
    }


class MetricsCollector:
    """Append-only store of execution records, queryable by operator/engine."""

    def __init__(self) -> None:
        self._records: list[MetricRecord] = []
        #: the same records per (algorithm, engine), in append order — every
        #: record of the pair and its successes — so a request never walks
        #: the platform's whole history to find its own pair
        self._by_pair: dict[tuple[str, str],
                            tuple[list[MetricRecord], list[MetricRecord]]] = {}

    def record(self, record: MetricRecord) -> None:
        """Append one execution record."""
        self._records.append(record)
        every, successes = self._by_pair.setdefault(
            (record.algorithm, record.engine), ([], []))
        every.append(record)
        if record.success:
            successes.append(record)

    def all(self) -> list[MetricRecord]:
        """Every stored record (copy)."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def for_operator(
        self, algorithm: str, engine: str | None = None, successes_only: bool = True
    ) -> list[MetricRecord]:
        """Records of one (algorithm, engine) pair, in append order."""
        if engine is None:  # every engine of the algorithm: the one full scan
            return [r for r in self._records if r.algorithm == algorithm
                    and (r.success or not successes_only)]
        every, successes = self._by_pair.get((algorithm, engine), ((), ()))
        return list(successes if successes_only else every)

    def sample_count(self, algorithm: str, engine: str) -> int:
        """Number of successful runs stored for a pair."""
        return len(self._by_pair.get((algorithm, engine), ((), ()))[1])

    def failures(self) -> list[MetricRecord]:
        """Records of failed runs (OOM etc.)."""
        return [r for r in self._records if not r.success]

    def resilience_events(self, kind: str | None = None) -> list[MetricRecord]:
        """Resilience events (retry/breaker/speculation), optionally by kind."""
        out = []
        for r in self._records:
            if r.algorithm != RESILIENCE_ALGORITHM:
                continue
            if kind is not None and r.params.get("kind") != kind:
                continue
            out.append(r)
        return out

    # -- persistence --------------------------------------------------------
    def save(self, path) -> int:
        """Persist the record store as JSON lines; returns the record count.

        Profiling is expensive, so the collected runs — like the trained
        models — live in the IReS library across sessions.
        """
        import dataclasses
        import json

        with open(path, "w", encoding="utf-8") as handle:
            for record in self._records:
                payload = dataclasses.asdict(record)
                exec_time = payload["exec_time"]
                # JSON has no NaN/Infinity: map every non-finite value (an
                # OOM sentinel +inf, a corrupted NaN, a -inf) to a string.
                if isinstance(exec_time, float) and not math.isfinite(exec_time):
                    if math.isnan(exec_time):
                        payload["exec_time"] = "nan"
                    else:
                        payload["exec_time"] = "inf" if exec_time > 0 else "-inf"
                handle.write(json.dumps(payload, allow_nan=False) + "\n")
        return len(self._records)

    def load(self, path) -> int:
        """Append records saved by :meth:`save`; returns how many were read.

        Unknown keys are dropped so an older collector can load files written
        by newer code that added fields (forward-compatible persistence);
        missing keys fall back to the dataclass defaults.

        A malformed *final* line is skipped with a warning instead of
        raising: a crash mid-:meth:`save` (or mid-append) can only tear the
        last line, and losing one record beats losing the whole store.
        Malformed lines anywhere else still raise — that is corruption, not
        a torn tail.
        """
        import dataclasses
        import json

        known = {f.name for f in dataclasses.fields(MetricRecord)}
        count = 0
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        last_content = max(
            (i for i, line in enumerate(lines) if line.strip()), default=-1)
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                if payload.get("exec_time") in ("inf", "-inf", "nan"):
                    payload["exec_time"] = float(payload["exec_time"])
                payload = {k: v for k, v in payload.items() if k in known}
                record = MetricRecord(**payload)
            except (ValueError, TypeError) as exc:
                if i >= last_content:
                    _LOG.warning("torn_metrics_line", path=str(path),
                                 line=i + 1, error=str(exc))
                    break
                raise ValueError(
                    f"{path}: malformed record on line {i + 1}: {exc}"
                ) from exc
            self.record(record)
            count += 1
        return count

    def training_matrix(
        self, algorithm: str, engine: str, feature_names: Iterable[str] | None = None,
        window: int | None = None, first: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Build (X, y, feature_names) for model fitting from stored runs.

        ``window`` keeps only the newest N records — drift-triggered refits
        use it to train on post-drift reality instead of the mixed history.
        ``first`` keeps only the oldest N: the store as it stood when the
        pair had N successful runs (a fit that was due then, made now).
        """
        records = self.for_operator(algorithm, engine)[:first]
        if window is not None and window > 0:
            records = records[-window:]
        if not records:
            return np.empty((0, 0)), np.empty(0), []
        if feature_names is None:
            names: list[str] = sorted({k for r in records for k in r.features()})
        else:
            names = list(feature_names)
        X = np.array([[r.features().get(n, 0.0) for n in names] for r in records])
        y = np.array([r.exec_time for r in records])
        return X, y, names
