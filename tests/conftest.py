"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.apps.catalog import PROGRAMS, get_program
from repro.config import SchedulerConfig, SimConfig
from repro.hardware.node_spec import NodeSpec
from repro.hardware.topology import ClusterSpec


@pytest.fixture(scope="session")
def spec() -> NodeSpec:
    """The reference testbed node."""
    return NodeSpec()


@pytest.fixture(scope="session")
def testbed() -> ClusterSpec:
    """The paper's 8-node cluster."""
    return ClusterSpec(num_nodes=8)


@pytest.fixture(scope="session")
def small_cluster() -> ClusterSpec:
    return ClusterSpec(num_nodes=2)


@pytest.fixture(scope="session")
def all_programs():
    return dict(PROGRAMS)


@pytest.fixture(scope="session")
def mg():
    return get_program("MG")


@pytest.fixture(scope="session")
def cg():
    return get_program("CG")


@pytest.fixture(scope="session")
def ep():
    return get_program("EP")


@pytest.fixture(scope="session")
def bfs():
    return get_program("BFS")


@pytest.fixture
def fast_sim_config() -> SimConfig:
    return SimConfig()


@pytest.fixture
def sched_config() -> SchedulerConfig:
    return SchedulerConfig()
