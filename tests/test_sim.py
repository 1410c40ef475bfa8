"""Unit tests for the GPU model: spec, occupancy, bandwidth."""

import pytest

from repro.sim.memory import BandwidthServer
from repro.sim.occupancy import occupancy_for
from repro.sim.spec import FULL_V100_SPEC, V100_SPEC


class TestSpec:
    def test_default_is_scaled(self):
        assert V100_SPEC.num_sms == 8
        assert FULL_V100_SPEC.num_sms == 80

    def test_slot_totals(self):
        assert V100_SPEC.total_warp_slots == 8 * 64
        assert V100_SPEC.total_thread_slots == 8 * 2048

    def test_scaled_override(self):
        s = V100_SPEC.scaled(kernel_launch_ns=42.0)
        assert s.kernel_launch_ns == 42.0
        assert s.num_sms == V100_SPEC.num_sms
        # original untouched (frozen dataclass)
        assert V100_SPEC.kernel_launch_ns != 42.0

    def test_frozen(self):
        with pytest.raises(Exception):
            V100_SPEC.num_sms = 4  # type: ignore[misc]


class TestOccupancy:
    def test_register_limited(self):
        occ = occupancy_for(V100_SPEC, threads_per_cta=256, registers_per_thread=56)
        # 65536 // (56*256) = 4 CTAs
        assert occ.ctas_per_sm == 4
        assert occ.limiting_factor == "registers"
        assert occ.warps_per_sm == 32
        assert occ.occupancy_fraction == 0.5

    def test_paper_coloring_occupancies(self):
        """Section 6.3: persistent (72 regs) < discrete (42 regs)."""
        persist = occupancy_for(V100_SPEC, threads_per_cta=256, registers_per_thread=72)
        discrete = occupancy_for(V100_SPEC, threads_per_cta=256, registers_per_thread=42)
        assert discrete.occupancy_fraction > persist.occupancy_fraction

    def test_shared_memory_limited(self):
        occ = occupancy_for(
            V100_SPEC,
            threads_per_cta=256,
            registers_per_thread=32,
            shared_mem_per_cta=46 * 1024,
        )
        assert occ.limiting_factor == "shared_mem"
        assert occ.ctas_per_sm == 2

    def test_thread_slot_limited(self):
        occ = occupancy_for(V100_SPEC, threads_per_cta=1024, registers_per_thread=8)
        assert occ.ctas_per_sm == 2
        assert occ.limiting_factor == "threads"

    def test_cta_slot_limited(self):
        occ = occupancy_for(V100_SPEC, threads_per_cta=32, registers_per_thread=8)
        assert occ.ctas_per_sm == V100_SPEC.max_ctas_per_sm
        assert occ.limiting_factor == "ctas"

    def test_totals_scale_with_sms(self):
        occ = occupancy_for(V100_SPEC, threads_per_cta=256, registers_per_thread=56)
        assert occ.total_ctas == occ.ctas_per_sm * V100_SPEC.num_sms
        assert occ.total_warps == occ.warps_per_sm * V100_SPEC.num_sms

    def test_oversized_cta_rejected(self):
        with pytest.raises(ValueError, match="thread limit"):
            occupancy_for(V100_SPEC, threads_per_cta=4096)

    def test_register_overflow_rejected(self):
        with pytest.raises(ValueError, match="register file"):
            occupancy_for(V100_SPEC, threads_per_cta=2048, registers_per_thread=64)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            occupancy_for(V100_SPEC, threads_per_cta=0)
        with pytest.raises(ValueError):
            occupancy_for(V100_SPEC, threads_per_cta=32, registers_per_thread=0)


class TestBandwidthServer:
    def test_idle_service(self):
        mem = BandwidthServer(2.0)
        assert mem.reserve(10.0, 4.0) == 12.0

    def test_backlog_serializes(self):
        mem = BandwidthServer(1.0)
        t1 = mem.reserve(0.0, 10.0)
        t2 = mem.reserve(0.0, 10.0)
        assert t1 == 10.0
        assert t2 == 20.0

    def test_idle_gap_not_charged(self):
        mem = BandwidthServer(1.0)
        mem.reserve(0.0, 5.0)
        t = mem.reserve(100.0, 5.0)
        assert t == 105.0

    def test_zero_reservation_noop(self):
        mem = BandwidthServer(1.0)
        assert mem.reserve(5.0, 0.0) == 5.0
        assert mem.free_at == 0.0

    def test_negative_rejected(self):
        mem = BandwidthServer(1.0)
        with pytest.raises(ValueError):
            mem.reserve(0.0, -1.0)
        with pytest.raises(ValueError):
            BandwidthServer(0.0)

    def test_utilization(self):
        mem = BandwidthServer(1.0)
        mem.reserve(0.0, 50.0)
        assert mem.utilization(100.0) == pytest.approx(0.5)
        assert mem.utilization(0.0) == 0.0

    def test_reset(self):
        mem = BandwidthServer(1.0)
        mem.reserve(0.0, 5.0)
        mem.reset()
        assert mem.free_at == 0.0
        assert mem.total_edges == 0.0
