"""Interconnect model."""

import pytest

from repro.errors import HardwareModelError
from repro.hardware.network import NetworkModel


class TestValidation:
    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(HardwareModelError):
            NetworkModel(link_bw=0.0)

    def test_rejects_negative_latency(self):
        with pytest.raises(HardwareModelError):
            NetworkModel(latency_us=-1.0)
