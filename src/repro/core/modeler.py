"""The modeler: trains and serves per-(operator, engine) estimation models.

Wraps the repro.models zoo with the paper's selection rule — fit every
approximation technique, cross-validate, keep the best (D3.3 §2.2.1) — and
serves estimates to the planner.  Retraining on the growing sample store is
how online refinement (§2.2.2) manifests; the retraining itself is done at
the next read of a model, not at the execution that made it stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.analysis.runtime_check import (
    LockLike,
    make_lock,
    note_access,
    register_shared,
)
from repro.engines.monitoring import MetricsCollector
from repro.models import Model, default_model_zoo, select_best_model
from repro.models.linear import LinearRegression
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import NULL_TRACER, Tracer

_LOG = get_logger("modeler")
_TRAININGS = REGISTRY.counter(
    "ires_modeler_trainings_total",
    "Model (re)trainings by operator pair",
    labels=("algorithm", "engine"),
)
_SAMPLES = REGISTRY.gauge(
    "ires_modeler_samples",
    "Training samples used by the last fit of each operator pair",
    labels=("algorithm", "engine"),
)
_CV_ERROR = REGISTRY.gauge(
    "ires_modeler_cv_error",
    "Cross-validation error of the winning model of each operator pair",
    labels=("algorithm", "engine"),
)


@dataclass
class OperatorModel:
    """A fitted estimator for one (algorithm, engine) pair.

    Performance of data-parallel operators is multiplicative in its drivers
    (t ≈ size/cores · const), so both features and target are fitted in
    log space — this is what keeps the *relative* estimation error (the
    paper's Fig 16 metric) low across the orders of magnitude a profiling
    grid spans.
    """

    algorithm: str
    engine: str
    feature_names: list[str]
    model: Model
    model_name: str
    n_samples: int
    cv_scores: dict[str, float]
    log_space: bool = True

    def estimate(self, features: dict[str, float]) -> float:
        """Predict execution time from a feature dict; floors at zero."""
        x = np.array([[float(features.get(n, 0.0)) for n in self.feature_names]])
        if self.log_space:
            x = np.log1p(np.abs(x))
            return max(float(np.expm1(self.model.predict(x)[0])), 0.0)
        return max(float(self.model.predict(x)[0]), 0.0)


class Modeler:  # thread-shared
    """Trains models from collector samples and answers estimates.

    A model is fitted when it is *read*, not when a run is observed: an
    observation only leaves the pair *due* (:meth:`mark_due`), pinned to the
    samples stored at that moment, and :meth:`get`, :meth:`estimate` and
    :meth:`save` — the only readers of ``models`` — fit a due pair on exactly
    those samples before they answer.  A reader therefore sees the model a
    fit at the observation would have shown it, and observations nobody
    reads in between cost one fit.  A REST thread may read (and so fit)
    while a worker thread observes, hence the lock.
    """

    def __init__(
        self,
        collector: MetricsCollector,
        zoo: dict | None = None,
        min_samples: int = 4,
        log_space: bool = True,
        tracer: Tracer | None = None,
    ) -> None:
        self.collector = collector
        self.zoo = zoo if zoo is not None else default_model_zoo()
        self.min_samples = min_samples
        self.log_space = log_space
        self._lock: LockLike = make_lock("modeler")
        self.models: dict[tuple[str, str], OperatorModel] = {}  # guarded-by: _lock
        #: pairs whose model is out of date -> the pair's successful-sample
        #: count when it became so; the next read fits on those samples
        self._due: dict[tuple[str, str], int] = {}  # guarded-by: _lock
        self.tracer = tracer if tracer is not None else NULL_TRACER
        register_shared(self, "core:modeler", self._lock)

    def train(self, algorithm: str, engine: str,
              window: int | None = None) -> OperatorModel | None:
        """(Re)train the model for a pair from all its stored samples, now.

        ``window`` restricts the fit to the newest N samples (drift
        recovery).  Returns None when too few samples exist to fit anything.
        The new model supersedes a fit that was still due.
        """
        with self._lock:
            return self._fit_locked(algorithm, engine, window=window)

    def mark_due(self, algorithm: str, engine: str) -> bool:
        """The pair's model is out of date as of the samples stored now.

        Nothing is fitted here; the next read does it, on these samples.
        Returns False when fewer than two are stored (nothing to fit).
        """
        with self._lock:
            count = self.sample_count(algorithm, engine)
            if count < 2:
                return False
            note_access(self, "mark_due")
            self._due[(algorithm, engine)] = count
            return True

    def _fit_locked(self, algorithm: str, engine: str,
                    window: int | None = None,
                    first: int | None = None) -> OperatorModel | None:
        """Fit and install one pair's model; clears its due mark."""
        with self.tracer.span(f"train:{algorithm}@{engine}", category="modeler",
                              algorithm=algorithm, engine=engine) as span:
            X, y, names = self.collector.training_matrix(
                algorithm, engine, window=window, first=first)
            span.set_attribute("samples", int(len(y)))
            if len(y) < 2:
                span.set_attribute("skipped", "too few samples")
                return None
            if self.log_space:
                X = np.log1p(np.abs(X))
                y = np.log1p(np.maximum(y, 0.0))
            if len(y) < self.min_samples:
                model: Model = LinearRegression().fit(X, y)
                fitted = OperatorModel(
                    algorithm, engine, names, model, "LinearRegression", len(y),
                    {}, log_space=self.log_space,
                )
            else:
                model, winner, scores = select_best_model(X, y, zoo=self.zoo)
                fitted = OperatorModel(
                    algorithm, engine, names, model, winner, len(y), scores,
                    log_space=self.log_space,
                )
            note_access(self, "fit")
            self.models[(algorithm, engine)] = fitted
            self._due.pop((algorithm, engine), None)
            span.set_attribute("model", fitted.model_name)
        _TRAININGS.inc(algorithm=algorithm, engine=engine)
        _SAMPLES.set(fitted.n_samples, algorithm=algorithm, engine=engine)
        cv_error = (
            fitted.cv_scores.get(fitted.model_name)
            if fitted.cv_scores else None
        )
        if cv_error is not None:
            _CV_ERROR.set(cv_error, algorithm=algorithm, engine=engine)
        _LOG.info("model_trained", algorithm=algorithm, engine=engine,
                  model=fitted.model_name, samples=fitted.n_samples,
                  cv_error=cv_error)
        return fitted

    def get(self, algorithm: str, engine: str) -> OperatorModel | None:
        """The trained model for a pair (fitted first if due), or None."""
        with self._lock:
            note_access(self, "get")
            first = self._due.get((algorithm, engine))
            if first is not None:
                self._fit_locked(algorithm, engine, first=first)
            return self.models.get((algorithm, engine))

    def estimate(
        self, algorithm: str, engine: str, features: dict[str, float]
    ) -> float | None:
        """Estimated execution time, or None when no model exists yet."""
        model = self.get(algorithm, engine)
        if model is None:
            return None
        return model.estimate(features)

    def sample_count(self, algorithm: str, engine: str) -> int:
        """Number of successful runs stored for a pair."""
        return self.collector.sample_count(algorithm, engine)

    def drop(self, algorithm: str, engine: str) -> None:
        """Discard a trained model (the what-if baseline of Fig 16.b)."""
        with self._lock:
            note_access(self, "drop")
            self.models.pop((algorithm, engine), None)
            self._due.pop((algorithm, engine), None)

    # -- persistence ("the models are stored and updated in an IReS
    # library", §2) ---------------------------------------------------------
    def save(self, directory: str | Path) -> int:
        """Persist every trained model under a directory; returns the count.

        Each pair gets ``<algorithm>__<engine>.npz`` (the fitted estimator,
        pickle-free) plus a ``.json`` sidecar with the bookkeeping.
        """
        import json
        from pathlib import Path

        from repro.models.serialize import save_model

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with self._lock:
            note_access(self, "save")
            for key, first in list(self._due.items()):
                self._fit_locked(*key, first=first)
            models = dict(self.models)
        for (algorithm, engine), fitted in models.items():
            stem = f"{algorithm}__{engine}".replace("/", "_")
            save_model(fitted.model, directory / f"{stem}.npz")
            meta = {
                "algorithm": algorithm,
                "engine": engine,
                "feature_names": fitted.feature_names,
                "model_name": fitted.model_name,
                "n_samples": fitted.n_samples,
                "cv_scores": fitted.cv_scores,
                "log_space": fitted.log_space,
            }
            (directory / f"{stem}.json").write_text(json.dumps(meta, indent=1))
        return len(models)

    def load(self, directory: str | Path) -> int:
        """Restore models saved by :meth:`save`; returns how many loaded."""
        import json
        from pathlib import Path

        from repro.models.serialize import load_model

        directory = Path(directory)
        count = 0
        for meta_path in sorted(directory.glob("*.json")):
            meta = json.loads(meta_path.read_text())
            model = load_model(meta_path.with_suffix(".npz"))
            fitted = OperatorModel(
                algorithm=meta["algorithm"],
                engine=meta["engine"],
                feature_names=list(meta["feature_names"]),
                model=model,
                model_name=meta["model_name"],
                n_samples=int(meta["n_samples"]),
                cv_scores=dict(meta["cv_scores"]),
                log_space=bool(meta["log_space"]),
            )
            with self._lock:
                note_access(self, "load")
                self.models[(fitted.algorithm, fitted.engine)] = fitted
                self._due.pop((fitted.algorithm, fitted.engine), None)
            count += 1
        return count
