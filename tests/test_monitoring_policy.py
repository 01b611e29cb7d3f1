"""Tests for monitoring records/timelines and optimization policies."""

import pytest

from repro.core import OptimizationPolicy
from repro.engines import MetricRecord, MetricsCollector
from repro.engines.monitoring import TIMELINE_MAX_SAMPLES, synthesize_timeline


class TestPolicy:
    def test_default_minimizes_exec_time(self):
        policy = OptimizationPolicy()
        assert policy.metrics == ("execTime",)
        assert policy.scalarize({"execTime": 3.0, "cost": 99.0}) == 3.0

    def test_weighted_blend(self):
        policy = OptimizationPolicy({"execTime": 1.0, "cost": 0.5})
        assert policy.scalarize({"execTime": 2.0, "cost": 4.0}) == 4.0

    def test_missing_metric_raises(self):
        policy = OptimizationPolicy({"cost": 1.0})
        with pytest.raises(KeyError):
            policy.scalarize({"execTime": 1.0})

    def test_custom_function(self):
        policy = OptimizationPolicy(
            function=lambda m: max(m["execTime"], m["cost"]))
        assert policy.scalarize({"execTime": 2.0, "cost": 7.0}) == 7.0
        assert policy.metrics == ()

    def test_weights_and_function_mutually_exclusive(self):
        with pytest.raises(ValueError):
            OptimizationPolicy({"execTime": 1.0}, function=lambda m: 0.0)

    def test_classmethod_constructors(self):
        assert OptimizationPolicy.min_exec_time().weights == {"execTime": 1.0}
        assert OptimizationPolicy.min_cost().weights == {"cost": 1.0}


class TestTimeline:
    def test_sample_count_scales_with_duration(self):
        short = synthesize_timeline(10.0, 4, 8.0)
        long = synthesize_timeline(500.0, 4, 8.0)
        assert len(short["cpu"]) < len(long["cpu"])

    def test_sample_count_capped(self):
        huge = synthesize_timeline(1e9, 4, 8.0)
        assert len(huge["cpu"]) == TIMELINE_MAX_SAMPLES

    def test_metrics_in_plausible_ranges(self):
        timeline = synthesize_timeline(120.0, 8, 16.0, seed=1)
        assert set(timeline) == {"cpu", "ram", "net_mbps", "iops"}
        assert all(0 <= v <= 1 for v in timeline["cpu"])
        assert all(0 <= v <= 16.0 for v in timeline["ram"])
        assert all(v >= 0 for v in timeline["net_mbps"])


class TestMetricRecord:
    def test_features_include_params(self):
        record = MetricRecord(
            "op", "alg", "E", 12.0, 0.0,
            input_size=1e6, input_count=1e3, cores=4, memory_gb=8.0,
            params={"iterations": 10, "label": "not-numeric"},
        )
        features = record.features()
        assert features["param_iterations"] == 10.0
        assert "param_label" not in features
        assert features["input_size"] == 1e6

    def test_collector_filters(self):
        collector = MetricsCollector()
        ok = MetricRecord("a", "alg", "E1", 1.0, 0.0)
        bad = MetricRecord("a", "alg", "E1", float("inf"), 0.0, success=False)
        other = MetricRecord("b", "other", "E2", 2.0, 0.0)
        for r in (ok, bad, other):
            collector.record(r)
        assert len(collector) == 3
        assert collector.for_operator("alg", "E1") == [ok]
        assert collector.for_operator("alg", "E1", successes_only=False) == [ok, bad]
        assert collector.failures() == [bad]

    def test_indexed_lookup_equals_a_scan_of_the_store(self, tmp_path):
        """for_operator answers from a per-pair index; it must say what a
        walk over every record says, in the same order."""
        import numpy as np

        from repro.engines.monitoring import resilience_event

        rng = np.random.default_rng(7)
        collector = MetricsCollector()
        algorithms, engines = ("alg", "other", "third"), ("E1", "E2", "E3")
        for i in range(400):
            if rng.random() < 0.1:
                collector.record(resilience_event(
                    "retry", engines[rng.integers(3)], at=float(i)))
                continue
            collector.record(MetricRecord(
                f"op{i}", algorithms[rng.integers(3)], engines[rng.integers(3)],
                float(i), float(i), success=bool(rng.random() < 0.8)))

        def scan(store, algorithm, engine, successes_only):
            return [r for r in store.all() if r.algorithm == algorithm
                    and (engine is None or r.engine == engine)
                    and (r.success or not successes_only)]

        path = tmp_path / "records.jsonl"
        collector.save(path)
        reloaded = MetricsCollector()
        reloaded.load(path)
        assert reloaded.all() == collector.all()
        for store in (collector, reloaded):
            for algorithm in algorithms + ("__resilience__", "absent"):
                for engine in engines + (None, "absent"):
                    for successes_only in (True, False):
                        assert store.for_operator(
                            algorithm, engine, successes_only
                        ) == scan(store, algorithm, engine, successes_only)
                    if engine is not None:
                        assert store.sample_count(algorithm, engine) == len(
                            scan(store, algorithm, engine, True))
        # the answer is a copy: a caller's edits do not reach the index
        collector.for_operator("alg", "E1").clear()
        assert collector.for_operator("alg", "E1") == scan(
            collector, "alg", "E1", True)

    def test_training_matrix_first_is_the_store_as_it_stood(self):
        collector = MetricsCollector()
        for i in range(1, 7):
            collector.record(MetricRecord("a", "alg", "E", float(i), 0.0,
                                          input_count=i))
        _, y, _ = collector.training_matrix("alg", "E", first=4)
        assert y.tolist() == [1.0, 2.0, 3.0, 4.0]
        _, y, _ = collector.training_matrix("alg", "E", first=4, window=2)
        assert y.tolist() == [3.0, 4.0]

    def test_training_matrix_empty_when_no_records(self):
        collector = MetricsCollector()
        X, y, names = collector.training_matrix("alg", "E")
        assert X.size == 0 and y.size == 0 and names == []

    def test_training_matrix_explicit_features(self):
        collector = MetricsCollector()
        collector.record(MetricRecord("a", "alg", "E", 5.0, 0.0,
                                      input_count=7, cores=2))
        X, y, names = collector.training_matrix(
            "alg", "E", feature_names=["input_count", "missing"])
        assert names == ["input_count", "missing"]
        assert X.tolist() == [[7.0, 0.0]]
        assert y.tolist() == [5.0]


class TestCollectorPersistence:
    def test_roundtrip(self, tmp_path):
        from repro.core import ProfileSpec, Profiler
        from repro.engines import build_default_cloud

        cloud = build_default_cloud(seed=17)
        Profiler(cloud).profile(ProfileSpec("TF_IDF", "Spark",
                                            counts=[1e3, 1e4, 1e5]))
        path = tmp_path / "runs.jsonl"
        assert cloud.collector.save(path) == 3

        restored = MetricsCollector()
        assert restored.load(path) == 3
        a = cloud.collector.training_matrix("TF_IDF", "Spark")
        b = restored.training_matrix("TF_IDF", "Spark")
        assert a[0].tolist() == b[0].tolist()
        assert a[1].tolist() == b[1].tolist()

    def test_failures_survive_roundtrip(self, tmp_path):
        collector = MetricsCollector()
        collector.record(MetricRecord("x", "a", "E", float("inf"), 0.0,
                                      success=False, error="OOM"))
        path = tmp_path / "fail.jsonl"
        collector.save(path)
        restored = MetricsCollector()
        restored.load(path)
        assert restored.failures()[0].exec_time == float("inf")
        assert restored.failures()[0].error == "OOM"

    def test_load_ignores_unknown_keys(self, tmp_path):
        """Files written by newer code (extra fields) still load cleanly."""
        import json

        path = tmp_path / "future.jsonl"
        payload = {
            "operator": "x", "algorithm": "a", "engine": "E",
            "exec_time": 1.5, "started_at": 0.0,
            "attempt": 3, "breaker_state": "open", "some_new_field": [1, 2],
        }
        path.write_text(json.dumps(payload) + "\n")
        restored = MetricsCollector()
        assert restored.load(path) == 1
        record = restored.all()[0]
        assert record.exec_time == 1.5
        assert not hasattr(record, "some_new_field")

    def test_resilience_events_queryable(self):
        from repro.engines.monitoring import resilience_event

        collector = MetricsCollector()
        collector.record(resilience_event("retry", "Spark", 1.0, success=False))
        collector.record(resilience_event("breaker_open", "Hive", 2.0,
                                          success=False))
        assert len(collector.resilience_events()) == 2
        assert len(collector.resilience_events("retry")) == 1
        # resilience events never leak into model-training queries
        assert collector.for_operator("retry") == []


class TestTornTailTolerance:
    """load() must skip a torn final line, but still raise on corruption."""

    def _save_three(self, tmp_path):
        collector = MetricsCollector()
        for i in range(3):
            collector.record(MetricRecord(f"op{i}", "alg", "E", 1.0 + i, 0.0))
        path = tmp_path / "runs.jsonl"
        assert collector.save(path) == 3
        return path

    def test_truncated_final_line_is_skipped(self, tmp_path):
        path = self._save_three(tmp_path)
        text = path.read_text()
        # tear the last record mid-write, like a crashed saver would
        path.write_text(text[: text.rindex('"exec_time"') + 5])
        restored = MetricsCollector()
        assert restored.load(path) == 2
        assert [r.operator for r in restored.all()] == ["op0", "op1"]

    def test_garbage_appended_line_is_skipped(self, tmp_path):
        path = self._save_three(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json at all")
        restored = MetricsCollector()
        assert restored.load(path) == 3

    def test_torn_tail_followed_by_blank_lines_is_skipped(self, tmp_path):
        path = self._save_three(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"operator": "op3"\n\n\n')
        restored = MetricsCollector()
        assert restored.load(path) == 3

    def test_corruption_before_the_tail_still_raises(self, tmp_path):
        import pytest

        path = self._save_three(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:20]  # mid-file damage is not a torn tail
        path.write_text("\n".join(lines) + "\n")
        restored = MetricsCollector()
        with pytest.raises(ValueError, match="line 2"):
            restored.load(path)

    def test_intact_file_loads_fully(self, tmp_path):
        path = self._save_three(tmp_path)
        restored = MetricsCollector()
        assert restored.load(path) == 3


class TestNonFiniteRoundtrip:
    """save()/load() must preserve every non-finite exec_time, not just +inf."""

    def test_nan_and_minus_inf_roundtrip(self, tmp_path):
        import math

        collector = MetricsCollector()
        collector.record(MetricRecord("a", "alg", "E", float("nan"), 0.0,
                                      success=False, error="corrupt"))
        collector.record(MetricRecord("b", "alg", "E", float("-inf"), 1.0,
                                      success=False, error="negative"))
        collector.record(MetricRecord("c", "alg", "E", float("inf"), 2.0,
                                      success=False, error="OOM"))
        path = tmp_path / "nonfinite.jsonl"
        assert collector.save(path) == 3

        restored = MetricsCollector()
        assert restored.load(path) == 3
        times = [r.exec_time for r in restored.all()]
        assert math.isnan(times[0])
        assert times[1] == float("-inf")
        assert times[2] == float("inf")

    def test_saved_file_is_strict_json(self, tmp_path):
        import json

        collector = MetricsCollector()
        collector.record(MetricRecord("a", "alg", "E", float("nan"), 0.0))
        path = tmp_path / "strict.jsonl"
        collector.save(path)
        # strict parsers (parse_constant raising) must accept every line
        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=lambda c: (_ for _ in ()).throw(
                ValueError(c)))


class TestTimelineSeed:
    def test_deterministic_and_distinct(self):
        from repro.engines.monitoring import timeline_seed

        a = timeline_seed("op", "Spark", 10.0)
        assert a == timeline_seed("op", "Spark", 10.0)
        assert a != timeline_seed("op", "Spark", 20.0)
        assert a != timeline_seed("op", "Hive", 10.0)
        assert a != timeline_seed("other", "Spark", 10.0)

    def test_engine_reruns_get_distinct_timelines(self):
        """The same operator re-executed later must not reuse its noise."""
        from repro.engines import build_default_cloud

        cloud = build_default_cloud(seed=3)
        engine = cloud.engines["Spark"]
        from repro.engines.profiles import Workload

        workload = Workload(size_gb=2.0, count=1e5)
        r1 = engine.execute("TF_IDF", workload).record
        r2 = engine.execute("TF_IDF", workload).record
        assert r1.timeline["cpu"] != r2.timeline["cpu"]
        # regenerating from the recorded identity reproduces the timeline
        from repro.engines.monitoring import synthesize_timeline, timeline_seed

        again = synthesize_timeline(
            r1.exec_time, r1.cores, r1.memory_gb,
            seed=timeline_seed(r1.operator, r1.engine, r1.started_at))
        assert again["cpu"] == r1.timeline["cpu"]
