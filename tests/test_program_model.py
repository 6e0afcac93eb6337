"""ProgramSpec micro-model and CommModel."""

from dataclasses import replace

import pytest

from repro.apps.curves import WorkingSetMissCurve
from repro.apps.program import CommModel, ProgramSpec
from repro.errors import HardwareModelError
from repro.hardware.node_spec import NodeSpec


def make_program(**overrides) -> ProgramSpec:
    defaults = dict(
        name="X",
        framework="mpi",
        cpi_base=0.5,
        mpki_max=10.0,
        miss_curve=WorkingSetMissCurve(half_mb=2.0, floor=0.2),
        miss_latency=20.0,
        comm=CommModel(f_comm=0.1, wait_factor=0.5, net_coeff=0.02,
                       net_lin=0.01),
        solo_time_16p=100.0,
    )
    defaults.update(overrides)
    return ProgramSpec(**defaults)


class TestCommModel:
    def test_baseline_fraction(self):
        comm = CommModel(f_comm=0.2)
        assert comm.comm_fraction(1.0, 1) == pytest.approx(0.2)

    def test_wait_relief_scales_with_k(self):
        comm = CommModel(f_comm=0.2, wait_factor=0.5)
        # Half the comm is contention wait, halved again at k=2.
        assert comm.comm_fraction(2.0, 1) == pytest.approx(0.2 * 0.75)

    def test_network_terms_grow_with_nodes(self):
        comm = CommModel(f_comm=0.0, net_coeff=0.1, net_lin=0.02)
        f2 = comm.comm_fraction(2.0, 2)
        f4 = comm.comm_fraction(4.0, 4)
        assert f4 > f2 > 0

    def test_net_lin_saturates(self):
        comm = CommModel(net_lin=0.05, net_lin_span=4.0)
        assert comm.comm_fraction(1.0, 100) == pytest.approx(
            comm.comm_fraction(1.0, 1000)
        )
        assert comm.comm_fraction(1.0, 100) == pytest.approx(0.05 * 4)

    def test_worst_case_bound_enforced(self):
        with pytest.raises(HardwareModelError):
            CommModel(f_comm=0.5, net_coeff=0.3, net_lin=0.05,
                      net_lin_span=8.0)

    def test_rejects_invalid_inputs(self):
        comm = CommModel(f_comm=0.1)
        with pytest.raises(HardwareModelError):
            comm.comm_fraction(0.5, 1)
        with pytest.raises(HardwareModelError):
            comm.comm_fraction(1.0, 0)

    @pytest.mark.parametrize("kwargs", [
        {"f_comm": -0.1}, {"f_comm": 1.0}, {"wait_factor": 1.5},
        {"net_coeff": -1.0}, {"net_lin": -1.0}, {"net_lin_span": 0.0},
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(HardwareModelError):
            CommModel(**kwargs)


class TestMicroModel:
    def test_mpi_tracks_miss_curve(self):
        p = make_program()
        assert p.mpi(0.0) == pytest.approx(0.01)        # mpki_max/1000
        assert p.mpi(1e9) == pytest.approx(0.002)       # floor 0.2

    def test_traffic_multiplier_single_node_is_one(self):
        p = make_program(remote_traffic_boost=3.0)
        assert p.traffic_multiplier(1) == 1.0

    def test_traffic_multiplier_grows_and_saturates(self):
        p = make_program(remote_traffic_boost=3.0)
        assert p.traffic_multiplier(2) == pytest.approx(2.5)
        assert p.traffic_multiplier(10**6) == pytest.approx(4.0, rel=1e-3)

    def test_traffic_boost_inflates_traffic_not_stalls(self):
        p = make_program(remote_traffic_boost=1.0)
        cap = 4.0
        assert p.mpi(cap, 2) > p.mpi(cap, 1)
        assert p.bytes_per_instr(cap, 2) > p.bytes_per_instr(cap, 1)
        assert p.cpu_rate(cap, 2) == pytest.approx(p.cpu_rate(cap, 1))

    def test_stall_boost_slows_compute(self):
        p = make_program(remote_stall_boost=1.0)
        cap = 4.0
        assert p.cpu_rate(cap, 2) < p.cpu_rate(cap, 1)
        assert p.mpi_stall(cap, 2) > p.mpi_stall(cap, 1)
        # Traffic path untouched by the stall boost.
        assert p.bytes_per_instr(cap, 2) == pytest.approx(
            p.bytes_per_instr(cap, 1)
        )

    def test_stall_boost_rejects_negative(self):
        with pytest.raises(HardwareModelError):
            make_program(remote_stall_boost=-1.0)

    def test_cpu_rate_improves_with_cache(self):
        p = make_program()
        assert p.cpu_rate(16.0) > p.cpu_rate(0.5)

    def test_ipc_bandwidth_roofline(self):
        p = make_program()
        unconstrained = p.ipc(4.0)
        throttled = p.ipc(4.0, granted_bw_gbps=0.01)
        assert throttled < unconstrained

    def test_ipc_ample_bandwidth_equals_unconstrained(self):
        p = make_program()
        assert p.ipc(4.0, granted_bw_gbps=1e6) == pytest.approx(p.ipc(4.0))

    def test_demand_capped_at_core_peak(self):
        p = make_program(cpi_base=0.01, mpki_max=200.0, miss_latency=0.1)
        assert p.demand_gbps_per_proc(0.1, 1, core_peak_bw=18.8) <= 18.8

    def test_miss_rate_percent_clamped(self):
        p = make_program(remote_traffic_boost=1000.0)
        assert p.miss_rate_percent(0.0, 100) == 100.0

    def test_instr_per_proc_strong_scaling(self):
        p = make_program()
        assert p.instr_per_proc(32) == pytest.approx(p.instr_per_proc(16) / 2)

    def test_instr_per_proc_rejects_nonpositive(self):
        with pytest.raises(HardwareModelError):
            make_program().instr_per_proc(0)

    def test_with_overrides_keeps_frozen_original(self):
        p = make_program()
        q = replace(p, cpi_base=0.9)
        assert p.cpi_base == 0.5 and q.cpi_base == 0.9

    @pytest.mark.parametrize("kwargs", [
        {"framework": "hadoop"},
        {"cpi_base": 0.0},
        {"mpki_max": -1.0},
        {"remote_traffic_boost": -1.0},
        {"max_nodes": 0},
        {"solo_time_16p": 0.0},
        {"ref_procs": 0},
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(HardwareModelError):
            make_program(**kwargs)


class TestCalibrationClosure:
    """The work calibration must make the analytic CE solo time equal the
    configured solo_time_16p."""

    def test_reference_time_matches_target(self):
        from repro.perfmodel.execution import reference_time

        p = make_program(solo_time_16p=123.0)
        assert reference_time(p, 16, NodeSpec()) == pytest.approx(123.0)

    def test_all_catalog_programs_calibrated(self):
        from repro.apps.catalog import PROGRAMS
        from repro.perfmodel.execution import reference_time

        spec = NodeSpec()
        for program in PROGRAMS.values():
            assert reference_time(program, 16, spec) == pytest.approx(
                program.solo_time_16p, rel=1e-6
            ), program.name
