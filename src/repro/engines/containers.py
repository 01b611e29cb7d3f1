"""YARN-like container allocation (D3.3 §2.3).

The paper's enforcer asks YARN for container resources per workflow operator
(extending Cloudera Kitten to run operator DAGs).  This module reproduces the
request/grant/release life cycle against the simulated cluster with a
first-fit-decreasing placement policy over healthy nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.engines.cluster import HEALTHY, Cluster, Node
from repro.engines.errors import InsufficientResourcesError


@dataclass(frozen=True)
class ContainerRequest:
    """Resources asked for one operator, Kitten-style."""

    cores: int = 1
    memory_gb: float = 1.0
    instances: int = 1

    def __post_init__(self) -> None:
        if self.cores < 1 or self.memory_gb <= 0 or self.instances < 1:
            raise ValueError(f"invalid container request {self}")


@dataclass
class Container:
    """A granted container pinned to a node."""

    container_id: str
    node: Node
    cores: int
    memory_gb: float
    released: bool = False


class ContainerScheduler:
    """Grants containers on healthy nodes; releases return capacity."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._ids = itertools.count(1)
        self._live: dict[str, Container] = {}

    def allocate(self, request: ContainerRequest) -> list[Container]:
        """Grant all instances of a request or raise (all-or-nothing).

        Placement is first-fit over healthy nodes sorted by free cores
        (descending), the usual YARN-ish spreading heuristic.
        """
        granted = self.try_allocate(request)
        if granted is None:
            raise InsufficientResourcesError(
                f"cannot place {request} (available: "
                f"{self.cluster.available_cores} cores, "
                f"{self.cluster.available_memory_gb:.1f} GB)"
            )
        return granted

    def try_allocate(self, request: ContainerRequest) -> list[Container] | None:
        """:meth:`allocate`, answering a request that does not fit with None."""
        if not self.fits(request):
            return None
        granted: list[Container] = []
        for _ in range(request.instances):
            node = self._pick_node(request)
            node.cores_used += request.cores
            node.memory_used += request.memory_gb
            container = Container(
                f"container_{next(self._ids):06d}", node, request.cores, request.memory_gb
            )
            self._live[container.container_id] = container
            granted.append(container)
        return granted

    def fits(self, request: ContainerRequest) -> bool:
        """Whether every instance of the request can be granted right now.

        A grant only changes the node it lands on, so the instances that
        fit are a per-node count, summed over healthy nodes.  The count
        repeats a grant's own arithmetic (``memory_used += m``, then
        ``memory_gb - memory_used >= m``): in floating point, any other
        form of the same comparison disagrees with the grant on some sizes.
        """
        wanted = request.instances
        for node in self.cluster.nodes.values():
            if node.health != HEALTHY:  # not the property: this is the hot loop
                continue
            cores_free = node.cores - node.cores_used
            memory_used = node.memory_used
            while (cores_free >= request.cores
                   and node.memory_gb - memory_used >= request.memory_gb):
                wanted -= 1
                if not wanted:
                    return True
                cores_free -= request.cores
                memory_used += request.memory_gb
        return False

    def _pick_node(self, request: ContainerRequest) -> Node:
        """The first node, in node order, with the most free (cores, memory)
        among the healthy ones that can take an instance; :meth:`fits`
        has established that there is one."""
        best, best_free = None, (0, 0.0)  # less than any node that fits
        for node in self.cluster.nodes.values():
            if node.health != HEALTHY:  # not the property: this is the hot loop
                continue
            free = (node.cores - node.cores_used, node.memory_gb - node.memory_used)
            if (free[0] >= request.cores and free[1] >= request.memory_gb
                    and free > best_free):
                best, best_free = node, free
        return best

    def release(self, container: Container) -> None:
        """Return a container's resources (idempotent)."""
        if container.released:
            return
        container.node.cores_used -= container.cores
        container.node.memory_used -= container.memory_gb
        container.released = True
        self._live.pop(container.container_id, None)

    def release_all_of(self, containers: list[Container]) -> None:
        """Release a specific set of containers."""
        for container in containers:
            self.release(container)

    def release_all(self) -> None:
        """Release every live container."""
        for container in list(self._live.values()):
            self.release(container)

    @property
    def live_containers(self) -> list[Container]:
        """Containers currently granted."""
        return list(self._live.values())

    def utilization(self) -> dict[str, float]:
        """Cluster-wide fraction of cores/memory currently granted."""
        total_c = self.cluster.total_cores or 1
        total_m = self.cluster.total_memory_gb or 1.0
        used_c = sum(n.cores_used for n in self.cluster.nodes.values())
        used_m = sum(n.memory_used for n in self.cluster.nodes.values())
        return {"cores": used_c / total_c, "memory": used_m / total_m}
