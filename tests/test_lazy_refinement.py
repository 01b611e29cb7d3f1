"""A model is fitted when it is read, not when a run is observed.

The oracle here is the refiner this repo had before: it calls
``Modeler.train`` at every due observation.  The lazy stack must show every
reader the model that oracle would have shown it, bit for bit, and make no
fit nobody reads.
"""

import os
import sys
import threading
from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.runtime_check import CHECKER
from repro.core import IReS, Modeler, ModelRefiner
from repro.engines.monitoring import MetricRecord, MetricsCollector
from repro.models import LeastMedianSquares, LinearRegression, RBFNetwork
from repro.obs.metrics import REGISTRY
from repro.scenarios import setup_helloworld

PAIRS = [("a", "E1"), ("a", "E2"), ("b", "E1")]


class EagerRefiner:
    """The reference: fit on the spot whenever a pair's batch is full."""

    def __init__(self, modeler, refit_every=1):
        self.modeler = modeler
        self.refit_every = refit_every
        self._pending = defaultdict(int)
        self.refits = 0
        self.listeners = []

    def _notify(self, algorithm, engine):
        for listener in list(self.listeners):
            listener(algorithm, engine)

    def observe(self, record):
        if not record.success:
            return False
        key = (record.algorithm, record.engine)
        self._pending[key] += 1
        if self._pending[key] >= self.refit_every:
            self._pending[key] = 0
            if self.modeler.train(*key) is not None:
                self.refits += 1
                self._notify(*key)
                return True
        return False

    def refit_now(self, algorithm, engine, window=None):
        self._pending[(algorithm, engine)] = 0
        if self.modeler.train(algorithm, engine, window=window) is not None:
            self.refits += 1
            self._notify(algorithm, engine)
            return True
        return False

    def flush(self):
        done = 0
        for key, pending in list(self._pending.items()):
            if pending > 0 and self.modeler.train(*key) is not None:
                done += 1
                self._notify(*key)
            self._pending[key] = 0
        self.refits += done
        return done


def _zoo():
    # cheap, and RBF last/LMS first so both selection branches get winners
    return {
        "LeastMedianSquares": lambda: LeastMedianSquares(n_trials=10),
        "LinearRegression": LinearRegression,
        "RBFNetwork": RBFNetwork,
    }


class _Stack:
    """One collector + modeler + refiner, with a log of listener calls."""

    def __init__(self, refiner_class, refit_every):
        self.collector = MetricsCollector()
        self.modeler = Modeler(self.collector, zoo=_zoo())
        self.refiner = refiner_class(self.modeler, refit_every=refit_every)
        self.heard = []
        self.refiner.listeners.append(lambda a, e: self.heard.append((a, e)))

    def view(self, pair):
        """Everything a reader can see of one pair's model."""
        model = self.modeler.get(*pair)
        if model is None:
            return None
        features = {"input_size": 3.0, "input_count": 2.0, "cores": 4.0}
        return (model.model_name, model.n_samples, repr(model.cv_scores),
                repr(model.estimate(features)),
                repr(self.modeler.estimate(*pair, features)))


def _record(pair, success, size):
    return MetricRecord(
        operator="op", algorithm=pair[0], engine=pair[1],
        exec_time=1.0 + size * 0.5, started_at=0.0, success=success,
        input_size=float(size), input_count=float(size % 3), cores=4)


_pair = st.sampled_from(PAIRS)
_window = st.sampled_from([None, 1, 2, 3, 5])
_event = st.one_of(
    # a run: recorded, then observed (sizes repeat, as recurring inputs do)
    st.tuples(st.just("run"), _pair, st.booleans(), st.integers(1, 4)),
    st.tuples(st.just("run"), _pair, st.just(True), st.integers(1, 4)),
    # a record nobody observes (profiling, another platform's run)
    st.tuples(st.just("record"), _pair, st.just(True), st.integers(1, 4)),
    st.tuples(st.just("get"), _pair),
    st.tuples(st.just("drop"), _pair),
    st.tuples(st.just("refit_now"), _pair, _window),
    st.tuples(st.just("train"), _pair, _window),
    st.tuples(st.just("flush")),
)


@settings(max_examples=60, deadline=None)
@given(refit_every=st.integers(1, 3),
       events=st.lists(_event, min_size=1, max_size=40))
def test_every_reader_sees_the_model_an_eager_fit_would_have_shown(
        refit_every, events):
    lazy = _Stack(ModelRefiner, refit_every)
    eager = _Stack(EagerRefiner, refit_every)
    for event in events:
        kind = event[0]
        outcomes = []
        for stack in (lazy, eager):
            if kind in ("run", "record"):
                _, pair, success, size = event
                record = _record(pair, success, size)
                stack.collector.record(record)
                outcomes.append(stack.refiner.observe(record)
                                if kind == "run" else None)
            elif kind == "get":
                outcomes.append(stack.view(event[1]))
            elif kind == "drop":
                outcomes.append(stack.modeler.drop(*event[1]))
            elif kind == "refit_now":
                outcomes.append(
                    stack.refiner.refit_now(*event[1], window=event[2]))
            elif kind == "train":
                fitted = stack.modeler.train(*event[1], window=event[2])
                outcomes.append(fitted and (fitted.model_name, fitted.n_samples,
                                            repr(fitted.cv_scores)))
            else:
                outcomes.append(stack.refiner.flush())
        assert outcomes[0] == outcomes[1], event
        assert lazy.refiner.refits == eager.refiner.refits
        assert lazy.heard == eager.heard
    for pair in PAIRS:
        assert lazy.view(pair) == eager.view(pair)


def _stack_with(n, refit_every=1):
    stack = _Stack(ModelRefiner, refit_every)
    for size in range(1, n + 1):
        record = _record(PAIRS[0], True, size)
        stack.collector.record(record)
        stack.refiner.observe(record)
    return stack


def test_the_fit_uses_the_samples_counted_when_the_pair_turned_due():
    stack = _stack_with(5)
    for size in (6, 7, 8):  # stored after the mark, never observed
        stack.collector.record(_record(PAIRS[0], True, size))
    assert stack.modeler.get(*PAIRS[0]).n_samples == 5
    late = _record(PAIRS[0], True, 9)
    stack.collector.record(late)
    assert stack.refiner.observe(late)
    assert stack.modeler.get(*PAIRS[0]).n_samples == 9


def test_observations_nobody_reads_cost_one_fit():
    before = _fits()
    stack = _stack_with(12)
    assert stack.refiner.refits == 11  # the first sample alone fits nothing
    assert _fits() == before
    stack.modeler.get(*PAIRS[0])
    stack.modeler.get(*PAIRS[0])
    assert _fits() == before + 1


def test_a_windowed_refit_is_not_overwritten_by_the_fit_that_was_due():
    stack = _stack_with(8)
    assert stack.refiner.refit_now(*PAIRS[0], window=3)
    assert stack.modeler.get(*PAIRS[0]).n_samples == 3


def test_a_refit_too_small_to_fit_leaves_the_due_fit_in_place():
    stack = _stack_with(6)
    assert not stack.refiner.refit_now(*PAIRS[0], window=1)
    assert stack.modeler.get(*PAIRS[0]).n_samples == 6


def test_a_dropped_model_stays_dropped():
    stack = _stack_with(6)
    stack.modeler.drop(*PAIRS[0])
    assert stack.modeler.get(*PAIRS[0]) is None
    assert stack.modeler.estimate(*PAIRS[0], {"input_size": 1.0}) is None


def test_save_fits_what_is_due_and_load_supersedes_it(tmp_path):
    stack = _stack_with(6)
    assert stack.modeler.save(tmp_path) == 1
    more = _record(PAIRS[0], True, 7)
    stack.collector.record(more)
    stack.refiner.observe(more)
    assert stack.modeler.load(tmp_path) == 1
    assert stack.modeler.get(*PAIRS[0]).n_samples == 6


def _fits():
    """Fits made by every modeler of this process so far."""
    metric = REGISTRY.get("ires_modeler_trainings_total")
    return sum(metric.series().values()) if metric is not None else 0


def test_a_served_workflow_fits_nothing_until_a_model_is_read():
    ires = IReS()
    workflow = setup_helloworld(ires)()
    before = _fits()
    for _ in range(12):
        assert ires.execute(workflow).succeeded
    assert _fits() == before
    assert ires.refiner.refits > 0
    pairs = sorted({(r.algorithm, r.engine) for r in ires.cloud.collector.all()
                    if r.success})
    for n, pair in enumerate(pairs, start=1):
        assert ires.modeler.get(*pair).n_samples == 12
        assert ires.modeler.get(*pair) is ires.modeler.get(*pair)
        assert _fits() == before + n


def _models_platform(refiner_class=None):
    """An estimator="models" platform whose HelloWorld pairs have models."""
    from repro.core.estimators import OracleEstimator

    ires = IReS(estimator="models")
    workflow = setup_helloworld(ires)()
    if refiner_class is not None:
        listeners = ires.refiner.listeners
        ires.refiner = refiner_class(ires.modeler)
        ires.refiner.listeners = listeners
    backed = ires.planner.estimator
    ires.planner.estimator = OracleEstimator(ires.cloud)
    for _ in range(2):  # seed: the pairs the oracle's plan runs, twice each
        ires.execute(workflow)
    ires.planner.estimator = backed
    ires.plan_cache.invalidate()
    return ires, workflow


def test_a_models_backed_platform_makes_no_more_fits_than_eager_refits():
    counts = {}
    plans = {}
    for name, refiner_class in (("lazy", None), ("eager", EagerRefiner)):
        ires, workflow = _models_platform(refiner_class)
        before = _fits()
        hits = ires.plan_cache.stats()["hits"]
        reports = [ires.execute(workflow) for _ in range(6)]
        counts[name] = _fits() - before
        plans[name] = [[(s.operator.name, s.engine, repr(s.estimated_cost))
                        for s in report.plans[0].steps] for report in reports]
        # every run moved the epoch, so every plan read the models afresh
        assert ires.plan_cache.stats()["hits"] == hits
    assert plans["lazy"] == plans["eager"]
    assert 0 < counts["lazy"] <= counts["eager"]


def test_a_reader_thread_and_a_recording_thread_run_clean_under_the_checker(
        monkeypatch):
    """A modeler built while the checker is on gets an instrumented lock and
    is registered as shared; a REST-like reader fitting while a worker
    records and observes must add no violation."""
    before = len(CHECKER.violations())
    monkeypatch.setattr(CHECKER, "enabled", True)
    collector = MetricsCollector()
    modeler = Modeler(collector, zoo={"LinearRegression": LinearRegression})
    refiner = ModelRefiner(modeler)
    sightings = defaultdict(list)  # reader thread -> sample counts it saw
    errors = []

    def record_and_observe():
        try:
            for size in range(1, 120):
                record = _record(PAIRS[0], True, size % 5 + 1)
                collector.record(record)
                refiner.observe(record)
        except Exception as exc:  # surfaced below, not lost in the thread
            errors.append(exc)

    def read():
        try:
            for _ in range(120):
                model = modeler.get(*PAIRS[0])
                if model is not None:
                    sightings[threading.get_ident()].append(model.n_samples)
                modeler.estimate(*PAIRS[0], {"input_size": 2.0})
        except Exception as exc:
            errors.append(exc)

    # more threads than this host has cores, switching often: a lost update
    # of the due mark would show as a reader seeing an older model again
    threads = [threading.Thread(target=record_and_observe)] + [
        threading.Thread(target=read) for _ in range(os.cpu_count() or 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    for seen in sightings.values():
        assert seen == sorted(seen)  # no reader ever sees an older model again
    assert modeler.get(*PAIRS[0]).n_samples == 119
    assert len(CHECKER.violations()) == before
    shared = [s for s in CHECKER.report()["sharedObjects"]
              if s["object"] == "core:modeler" and s["threads"] >= 2]
    assert shared and all(s["unguardedAccesses"] == 0 for s in shared)
