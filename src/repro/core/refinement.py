"""Online model refinement (D3.3 §2.2.2 — new in IReS v2).

Every workflow execution feeds its monitored metrics back into the models,
so estimation accuracy improves while the platform operates and adapts to
infrastructure changes (the HDD→SSD experiment of Fig 16.b) and temporal
degradations.  The paper asks that the models *reflect* every execution,
not that a run waits for the fit: an observation only tells the modeler
that the pair's model is out of date as of the samples stored now
(:meth:`Modeler.mark_due`), and whoever next reads the model pays for the
one fit.  ``refit_every`` decides *when a pair turns due* — and so when the
plan-cache listeners hear that the model changed and the cache epoch
moves — every N-th successful observation of the pair; it does not decide
how many fits are made, the readers do.  Only a drift alarm
(:meth:`ModelRefiner.refit_now`) fits on the spot.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable

from repro.core.modeler import Modeler
from repro.engines.monitoring import MetricRecord


class ModelRefiner:
    """Streams execution records into the modeler, marking models out of date."""

    def __init__(self, modeler: Modeler, refit_every: int = 1) -> None:
        if refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        self.modeler = modeler
        self.refit_every = refit_every
        self._pending: dict[tuple[str, str], int] = defaultdict(int)
        #: how many times a pair's model changed (turned due, or was refit
        #: by a drift alarm) — not how many fits were run
        self.refits = 0
        #: called with (algorithm, engine) whenever a pair's model changes —
        #: plan caches hook in here to bump their model epoch
        self.listeners: list[Callable[[str, str], None]] = []

    def _notify(self, algorithm: str, engine: str) -> None:
        for listener in list(self.listeners):
            listener(algorithm, engine)

    def _turn_due(self, algorithm: str, engine: str) -> bool:
        """A pair's batch is full: its readers now see a model of every
        sample stored so far.  False when there are too few to fit."""
        if not self.modeler.mark_due(algorithm, engine):
            return False
        self.refits += 1
        self._notify(algorithm, engine)
        return True

    def observe(self, record: MetricRecord) -> bool:
        """Account one finished run; its pair turns due when the batch is full.

        The record is assumed to already be in the shared collector (the
        engine put it there); this only drives the cadence and never fits.
        Returns True when the pair's model changed.
        """
        if not record.success:
            return False
        key = (record.algorithm, record.engine)
        self._pending[key] += 1
        if self._pending[key] >= self.refit_every:
            self._pending[key] = 0
            return self._turn_due(*key)
        return False

    def refit_now(self, algorithm: str, engine: str,
                  window: int | None = None) -> bool:
        """Immediately retrain one pair, bypassing the batching cadence.

        Drift alarms call this (``DriftDetector(refit=True)``): a ``window``
        restricts training to the newest records so the refit learns the
        post-drift behaviour instead of averaging it with stale history.
        Resets the pair's pending count.  Returns True when a model was fit.
        """
        self._pending[(algorithm, engine)] = 0
        if self.modeler.train(algorithm, engine, window=window) is not None:
            self.refits += 1
            self._notify(algorithm, engine)
            return True
        return False

    def flush(self) -> int:
        """Turn every pair with pending observations due; returns how many."""
        done = 0
        for key, pending in list(self._pending.items()):
            if pending > 0 and self._turn_due(*key):
                done += 1
            self._pending[key] = 0
        return done
