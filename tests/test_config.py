"""Unit tests for configuration validation and derivation."""

import pytest
from dataclasses import replace

from repro.config import (FiberConfig, HubConfig, NectarConfig,
                          default_config)
from repro.errors import ConfigError
from repro.hardware.frames import FRAMING_BYTES


class TestDefaults:
    def test_paper_values(self):
        cfg = default_config()
        assert cfg.hub.cycle_ns == 70
        assert cfg.hub.num_ports == 16
        assert cfg.hub.setup_ns == 700
        assert cfg.hub.transfer_ns == 350
        assert cfg.hub.input_queue_bytes == 1024
        assert cfg.fiber.bandwidth_mbits == 100.0
        assert cfg.cab.data_memory_bytes == 1 << 20
        assert cfg.cab.memory_bandwidth_mbytes == 66.0
        assert cfg.cab.vme_bandwidth_mbytes == 10.0
        assert cfg.cab.protection_domains == 32
        assert cfg.cab.page_bytes == 1024

    def test_thread_switch_in_paper_band(self):
        cfg = default_config()
        assert 10_000 <= cfg.kernel.thread_switch_ns <= 15_000

    def test_hub_cycle_decomposition(self):
        # 4 (port) + 1 (controller) + 5 (transfer) = 10 cycles = 700 ns.
        hub = HubConfig()
        total = (hub.port_command_cycles + 1 + hub.transfer_cycles)
        assert total == hub.setup_cycles
        assert total * hub.cycle_ns == 700


class TestValidation:
    def test_rejects_tiny_hub(self):
        with pytest.raises(ConfigError):
            NectarConfig(hub=HubConfig(num_ports=1))

    def test_rejects_zero_cycle(self):
        with pytest.raises(ConfigError):
            NectarConfig(hub=HubConfig(cycle_ns=0))

    def test_rejects_bad_drop_probability(self):
        with pytest.raises(ConfigError):
            NectarConfig(fiber=FiberConfig(drop_probability=1.5))

    def test_rejects_oversized_packets(self):
        cfg = default_config()
        with pytest.raises(ConfigError):
            cfg.with_overrides(
                transport=replace(cfg.transport, max_payload_bytes=2048))

    def test_rejects_zero_window(self):
        cfg = default_config()
        with pytest.raises(ConfigError):
            cfg.with_overrides(
                transport=replace(cfg.transport, window_packets=0))


class TestOverrides:
    def test_with_overrides_replaces_section(self):
        cfg = default_config()
        new = cfg.with_overrides(fiber=replace(cfg.fiber,
                                               drop_probability=0.1))
        assert new.fiber.drop_probability == 0.1
        assert cfg.fiber.drop_probability == 0.0

    def test_with_overrides_rejects_unknown(self):
        with pytest.raises(ConfigError):
            default_config().with_overrides(nonsense=1)

    def test_rng_deterministic_per_salt(self):
        cfg = default_config()
        a = cfg.rng_stream("x").random()
        b = cfg.rng_stream("x").random()
        c = cfg.rng_stream("y").random()
        assert a == b
        assert a != c

    def test_rng_differs_by_seed(self):
        assert NectarConfig(seed=1).rng_stream("s").random() != \
            NectarConfig(seed=2).rng_stream("s").random()


class TestDerived:
    def test_fiber_ns_per_byte(self):
        assert FiberConfig().ns_per_byte == pytest.approx(80.0)

    def test_max_packet_fits_queue(self):
        cfg = default_config()
        total = (cfg.transport.max_payload_bytes + cfg.transport.header_bytes
                 + FRAMING_BYTES)
        assert total <= cfg.hub.input_queue_bytes
