"""Unit tests for the simulated multi-engine cloud (repro.engines)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import (
    Cluster,
    ContainerRequest,
    ContainerScheduler,
    EngineUnavailableError,
    InsufficientResourcesError,
    MemoryExceededError,
    MultiEngineCloud,
    Node,
    PerfModel,
    Resources,
    SimClock,
    Workload,
    build_default_cloud,
)
from repro.engines.profiles import Infrastructure


class TestClock:
    def test_advance(self):
        clock = SimClock()
        assert clock.now == 0.0
        clock.advance(2.5)
        clock.advance(1.5)
        assert clock.now == 4.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_reset(self):
        clock = SimClock(10.0)
        clock.advance(5)
        clock.reset()
        assert clock.now == 0.0


class TestCluster:
    def test_homogeneous_capacity(self):
        cluster = Cluster.homogeneous(16, 4, 8.0)
        assert len(cluster) == 16
        assert cluster.total_cores == 64
        assert cluster.total_memory_gb == 128.0
        assert cluster.max_node_memory_gb() == 8.0

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValueError):
            Cluster([Node("a"), Node("a")])

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster([])

    def test_health_marking_and_report(self):
        cluster = Cluster.homogeneous(3)
        cluster.mark_unhealthy("vm01")
        report = cluster.run_health_checks()
        assert report["vm01"] == "UNHEALTHY"
        assert report["vm00"] == "HEALTHY"
        assert len(cluster.healthy_nodes()) == 2
        cluster.mark_healthy("vm01")
        assert len(cluster.healthy_nodes()) == 3

    def test_custom_health_script(self):
        cluster = Cluster.homogeneous(4)
        cluster.nodes["vm02"].attributes["disk_errors"] = 9
        report = cluster.run_health_checks(
            lambda node: node.attributes.get("disk_errors", 0) < 5
        )
        assert report["vm02"] == "UNHEALTHY"
        assert sum(state == "HEALTHY" for state in report.values()) == 3


class TestContainerScheduler:
    def test_allocate_and_release(self):
        cluster = Cluster.homogeneous(2, cores=4, memory_gb=8)
        sched = ContainerScheduler(cluster)
        containers = sched.allocate(ContainerRequest(cores=2, memory_gb=4, instances=3))
        assert len(containers) == 3
        assert cluster.available_cores == 8 - 6
        assert sched.utilization()["cores"] == pytest.approx(6 / 8)
        for c in containers:
            sched.release(c)
        assert cluster.available_cores == 8
        assert sched.live_containers == []

    def test_all_or_nothing_on_shortage(self):
        cluster = Cluster.homogeneous(1, cores=4, memory_gb=8)
        sched = ContainerScheduler(cluster)
        with pytest.raises(InsufficientResourcesError):
            sched.allocate(ContainerRequest(cores=3, memory_gb=4, instances=2))
        # the partial grant must have been rolled back
        assert cluster.available_cores == 4

    def test_unhealthy_nodes_skipped(self):
        cluster = Cluster.homogeneous(2, cores=4, memory_gb=8)
        cluster.mark_unhealthy("vm00")
        sched = ContainerScheduler(cluster)
        containers = sched.allocate(ContainerRequest(cores=4, memory_gb=8))
        assert containers[0].node.node_id == "vm01"
        with pytest.raises(InsufficientResourcesError):
            sched.allocate(ContainerRequest(cores=1, memory_gb=1))

    def test_double_release_is_noop(self):
        cluster = Cluster.homogeneous(1)
        sched = ContainerScheduler(cluster)
        (c,) = sched.allocate(ContainerRequest())
        sched.release(c)
        sched.release(c)
        assert cluster.available_cores == cluster.total_cores

    def test_invalid_request_rejected(self):
        with pytest.raises(ValueError):
            ContainerRequest(cores=0)

    def test_decision_uses_the_grants_arithmetic(self):
        """0.1 + 0.1 + 0.1 > 0.3: a 0.4 GB node takes three 0.1 GB
        containers, not four — and the decision says so before placing."""
        sched = ContainerScheduler(Cluster([Node("n", cores=8, memory_gb=0.4)]))
        four = ContainerRequest(cores=1, memory_gb=0.1, instances=4)
        assert not sched.fits(four)
        assert sched.try_allocate(four) is None
        assert sched.live_containers == [] and sched.cluster.available_cores == 8
        assert len(sched.allocate(ContainerRequest(1, 0.1, 3))) == 3


class TestPerfModel:
    def test_fixed_plus_linear(self):
        model = PerfModel(fixed=2.0, per_unit=1e-3)
        assert model.seconds(Workload(count=1000), Resources()) == pytest.approx(3.0)

    def test_parallel_scaling(self):
        model = PerfModel(fixed=0.0, per_unit=1.0, parallel=True, ref_cores=8)
        w = Workload(count=10)
        slow = model.seconds(w, Resources(cores=4, memory_gb=8))
        fast = model.seconds(w, Resources(cores=16, memory_gb=8))
        assert slow == pytest.approx(20.0)
        assert fast == pytest.approx(5.0)

    def test_param_scale(self):
        model = PerfModel(fixed=0.0, per_unit=1.0, param_scale="iterations")
        w5 = Workload(count=2, params={"iterations": 5})
        assert model.seconds(w5, Resources()) == pytest.approx(10.0)

    def test_oom_when_not_spilling(self):
        model = PerfModel(fixed=0, per_unit=0, mem_bytes_per_unit=1e9)
        with pytest.raises(MemoryExceededError):
            model.seconds(Workload(count=100), Resources(cores=4, memory_gb=8))

    def test_spill_slows_down_instead_of_failing(self):
        model = PerfModel(fixed=0, per_unit=1.0, mem_bytes_per_unit=1e9, spill=True)
        w = Workload(count=16)
        fit = model.seconds(w, Resources(cores=4, memory_gb=32))
        spilled = model.seconds(w, Resources(cores=4, memory_gb=8))
        assert spilled > fit

    def test_io_factor_affects_only_io_fraction(self):
        model = PerfModel(fixed=0.0, per_unit=1.0, io_fraction=0.5)
        w = Workload(count=10)
        hdd = model.seconds(w, Resources(), Infrastructure(io_factor=1.0))
        ssd = model.seconds(w, Resources(), Infrastructure(io_factor=0.4))
        assert hdd == pytest.approx(10.0)
        assert ssd == pytest.approx(7.0)  # 10 * (0.5*0.4 + 0.5)


class TestCloud:
    def test_default_cloud_catalogue(self):
        cloud = build_default_cloud()
        assert {"Spark", "Hama", "Java", "PostgreSQL", "MemSQL", "HDFS"} <= set(
            cloud.engines
        )
        assert cloud.engine("Java").centralized
        assert not cloud.engine("Spark").centralized

    def test_duplicate_engine_rejected(self):
        cloud = MultiEngineCloud()
        cloud.add_engine("X", profiles={})
        with pytest.raises(ValueError):
            cloud.add_engine("X", profiles={})

    def test_pagerank_crossovers_match_figure_11(self):
        """Java wins small graphs, Hama medium, Spark large (Fig 11 shape)."""
        cloud = build_default_cloud()

        def best(edges):
            times = {}
            w = Workload.of_count(edges, bytes_per_item=40, iterations=10)
            for name in ("Java", "Hama", "Spark"):
                try:
                    times[name] = cloud.engine(name).true_seconds("pagerank", w)
                except MemoryExceededError:
                    times[name] = float("inf")
            return min(times, key=times.get)

        assert best(1e4) == "Java"
        assert best(1e6) == "Java"
        assert best(2e7) == "Hama"
        assert best(1e8) == "Spark"

    def test_execute_charges_clock_and_records(self):
        cloud = build_default_cloud()
        before = cloud.clock.now
        result = cloud.engine("Spark").execute(
            "pagerank", Workload.of_count(1e6, 40, iterations=10)
        )
        assert cloud.clock.now == pytest.approx(before + result.record.exec_time)
        assert len(cloud.collector) == 1
        assert result.record.engine == "Spark"
        assert result.record.success
        # containers must be released afterwards
        assert cloud.scheduler.live_containers == []

    def test_execute_oom_records_failure_and_raises(self):
        cloud = build_default_cloud()
        with pytest.raises(MemoryExceededError):
            cloud.engine("Java").execute(
                "pagerank", Workload.of_count(1e8, 40, iterations=10)
            )
        failures = cloud.collector.failures()
        assert len(failures) == 1
        assert not failures[0].success
        assert cloud.scheduler.live_containers == []

    def test_killed_engine_unavailable(self):
        cloud = build_default_cloud()
        cloud.kill_engine("Hama")
        assert "Hama" not in cloud.available_engines()
        with pytest.raises(EngineUnavailableError):
            cloud.engine("Hama").execute("pagerank", Workload.of_count(1e5, 40))
        cloud.restart_engine("Hama")
        assert "Hama" in cloud.available_engines()

    def test_move_costs_and_clock(self):
        cloud = build_default_cloud()
        assert cloud.move_seconds(1e9, "HDFS", "HDFS") == 0.0
        seconds = cloud.move(1e9, "HDFS", "PostgreSQL")
        assert seconds == pytest.approx(0.5 + 10.0)
        assert cloud.clock.now == pytest.approx(seconds)

    def test_ssd_upgrade_accelerates_io_bound_operator(self):
        cloud = build_default_cloud()
        w = Workload(size_gb=10.0)
        before = cloud.engine("MapReduce").true_seconds("wordcount", w)
        cloud.upgrade_disks_to_ssd()
        after = cloud.engine("MapReduce").true_seconds("wordcount", w)
        assert after < before

    def test_noise_is_bounded_and_seeded(self):
        c1 = build_default_cloud(seed=7)
        c2 = build_default_cloud(seed=7)
        w = Workload.of_count(1e6, 40, iterations=10)
        r1 = c1.engine("Spark").execute("pagerank", w).record.exec_time
        r2 = c2.engine("Spark").execute("pagerank", w).record.exec_time
        assert r1 == r2
        truth = c1.engine("Spark").true_seconds("pagerank", w)
        assert abs(r1 / truth - 1.0) < 0.3

    def test_training_matrix_from_collector(self):
        cloud = build_default_cloud()
        for edges in (1e5, 1e6, 2e6):
            cloud.engine("Spark").execute(
                "pagerank", Workload.of_count(edges, 40, iterations=10)
            )
        X, y, names = cloud.collector.training_matrix("pagerank", "Spark")
        assert X.shape[0] == 3
        assert "input_count" in names
        assert "param_iterations" in names
        assert (y > 0).all()


class TestFaults:
    def test_scheduled_fault_fires_on_trigger(self):
        from repro.engines import FaultInjector

        cloud = build_default_cloud()
        injector = FaultInjector(cloud)
        injector.kill_engine_at("Spark", trigger_operator="op2")
        assert injector.on_operator_start("op1") == []
        assert "Spark" in cloud.available_engines()
        fired = injector.on_operator_start("op2")
        assert len(fired) == 1
        assert "Spark" not in cloud.available_engines()
        # firing twice is a no-op
        assert injector.on_operator_start("op2") == []
        injector.reset()
        assert "Spark" in cloud.available_engines()

    def test_node_unhealthy_fault(self):
        from repro.engines import FaultInjector

        cloud = build_default_cloud()
        injector = FaultInjector(cloud)
        injector.mark_node_unhealthy_at("vm03", trigger_operator="x")
        injector.on_operator_start("x")
        assert not cloud.cluster.nodes["vm03"].healthy
        injector.reset()
        assert cloud.cluster.nodes["vm03"].healthy


# -- the non-raising decision is the grant -------------------------------------

def _reference_allocate(cluster: Cluster, request: ContainerRequest):
    """The grant as it was before ``fits`` existed: place instance by
    instance on the first maximal ``(cores_free, memory_free)`` node that
    can take one, roll everything back on the first that cannot.  Returns
    the node ids in grant order, or None."""
    placed = []
    for _ in range(request.instances):
        candidates = [
            n for n in cluster.healthy_nodes()
            if n.cores_free >= request.cores and n.memory_free >= request.memory_gb
        ]
        if not candidates:
            for node in placed:
                node.cores_used -= request.cores
                node.memory_used -= request.memory_gb
            return None
        node = max(candidates, key=lambda n: (n.cores_free, n.memory_free))
        node.cores_used += request.cores
        node.memory_used += request.memory_gb
        placed.append(node)
    return [n.node_id for n in placed]


def _copy(cluster: Cluster) -> Cluster:
    """Same capacity, health *and* usage (``Cluster.clone`` empties it)."""
    return Cluster(
        Node(n.node_id, n.cores, n.memory_gb, n.health, n.cores_used, n.memory_used)
        for n in cluster.nodes.values())


_requests = st.builds(ContainerRequest, cores=st.integers(1, 4),
                      memory_gb=st.integers(1, 40).map(lambda n: n / 10),
                      instances=st.integers(1, 8))


@st.composite
def _fit_case(draw):
    """A request, and a cluster of heterogeneous nodes, some unhealthy,
    partly used by earlier grants.

    Sizes are tenths of a GB: most are not representable, so the order of
    the additions and subtractions in a fit test shows in its answer — and
    it shows at the boundary, so half the nodes hold a whole number of the
    request's containers (0.4 GB and 0.1 GB: three fit, not four).
    """
    request = draw(_requests)
    tenths = round(request.memory_gb * 10)
    memory = st.one_of(st.integers(1, 160),
                       st.integers(1, 8).map(lambda k: k * tenths))
    cluster = Cluster(
        Node(f"n{i}", cores=draw(st.integers(1, 32)),
             memory_gb=draw(memory) / 10,
             health=draw(st.sampled_from(["HEALTHY", "HEALTHY", "UNHEALTHY"])))
        for i in range(draw(st.integers(1, 6))))
    for earlier in draw(st.lists(_requests, max_size=3)):
        _reference_allocate(cluster, earlier)
    return cluster, request


@given(_fit_case())
@settings(max_examples=500, deadline=None)
def test_decision_is_the_grant(case):
    """``fits`` ≡ "the grant goes through", grants land where they always
    did, and a refusal leaves the cluster as it found it."""
    cluster, request = case
    expected = _reference_allocate(_copy(cluster), request)
    untouched = _copy(cluster)
    usage = [(n.cores_used, n.memory_used) for n in cluster.nodes.values()]
    sched = ContainerScheduler(cluster)
    assert sched.fits(request) == (expected is not None)
    granted = sched.try_allocate(request)
    if expected is None:
        assert granted is None
        assert [(n.cores_used, n.memory_used)
                for n in cluster.nodes.values()] == usage
        with pytest.raises(InsufficientResourcesError, match="cannot place"):
            sched.allocate(request)
    else:
        assert [c.node.node_id for c in granted] == expected
        assert [c.node.node_id for c in
                ContainerScheduler(untouched).allocate(request)] == expected
