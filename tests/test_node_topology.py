"""NodeSpec and ClusterSpec."""

import pytest

from repro.errors import ConfigError, HardwareModelError
from repro.hardware.node_spec import NodeSpec
from repro.hardware.topology import ClusterSpec, testbed_cluster as make_testbed


class TestNodeSpec:
    def test_reference_node(self):
        node = NodeSpec()
        assert node.cores == 28
        assert node.llc_ways == 20
        assert node.llc_mb == pytest.approx(70.0)
        assert node.peak_bw == pytest.approx(118.26)

    @pytest.mark.parametrize("procs,expected", [
        (1, 1), (28, 1), (29, 2), (56, 2), (57, 3), (16, 1), (32, 2),
    ])
    def test_min_nodes_for(self, procs, expected):
        assert NodeSpec().min_nodes_for(procs) == expected

    def test_min_nodes_rejects_nonpositive(self):
        with pytest.raises(HardwareModelError):
            NodeSpec().min_nodes_for(0)

    def test_rejects_zero_cores(self):
        with pytest.raises(HardwareModelError):
            NodeSpec(cores=0)


class TestClusterSpec:
    def test_testbed_is_eight_nodes(self):
        assert make_testbed().num_nodes == 8

    def test_total_cores(self):
        assert make_testbed().total_cores == 8 * 28

    def test_simulated_cluster_sizes(self):
        for n in (4096, 8192, 32768):
            assert ClusterSpec(num_nodes=n).num_nodes == n

    def test_rejects_empty_cluster(self):
        with pytest.raises(ConfigError):
            ClusterSpec(num_nodes=0)
