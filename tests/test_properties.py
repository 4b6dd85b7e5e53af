"""Property-based tests (hypothesis) on core invariants."""

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import NectarConfig
from repro.hardware.checksum import ChecksumUnit
from repro.hardware.frames import Payload, fletcher16
from repro.sim import Simulator, Store
from repro.stats.recorders import percentile
from repro.transport.base import slice_data
from repro.transport.reassembly import ReassemblyBuffer


class TestFragmentation:
    @given(st.binary(min_size=0, max_size=5000),
           st.integers(min_value=1, max_value=1500))
    def test_slice_roundtrip(self, data, max_fragment):
        """Fragments always reassemble to the original bytes."""
        fragments = slice_data(data, len(data), max_fragment)
        assert b"".join(chunk for _size, chunk in fragments) == data

    @given(st.binary(min_size=1, max_size=5000),
           st.integers(min_value=1, max_value=1500))
    def test_fragment_sizes_bounded_and_exact(self, data, max_fragment):
        fragments = slice_data(data, len(data), max_fragment)
        assert all(0 < size <= max_fragment for size, _chunk in fragments)
        assert sum(size for size, _chunk in fragments) == len(data)
        assert all(len(chunk) == size for size, chunk in fragments)

    @given(st.integers(min_value=0, max_value=100_000),
           st.integers(min_value=1, max_value=1024))
    @settings(deadline=None)
    def test_synthetic_sizes(self, size, max_fragment):
        fragments = slice_data(None, size, max_fragment)
        assert sum(frag_size for frag_size, _ in fragments) == max(size, 0)
        if size == 0:
            assert fragments == [(0, None)]

    @given(st.binary(min_size=1, max_size=4000),
           st.integers(min_value=1, max_value=999),
           st.permutations(range(8)))
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_reassembly_order_independent(self, data, max_fragment, order):
        """Fragments arriving in any order reassemble identically."""
        fragments = slice_data(data, len(data), max_fragment)
        nfrags = len(fragments)
        buffer = ReassemblyBuffer(10**12)
        indices = [i % nfrags for i in order][:nfrags]
        indices = list(dict.fromkeys(indices))  # unique, arbitrary order
        indices += [i for i in range(nfrags) if i not in indices]
        result = None
        for position, index in enumerate(indices):
            size, chunk = fragments[index]
            payload = Payload(size, data=chunk, header={
                "frag": index, "nfrags": nfrags, "total_size": len(data)})
            result = buffer.add_fragment("key", payload, now=position)
        assert result is not None
        total, joined = result.assemble()
        assert (total, joined) == (len(data), data)


def fletcher16_per_byte(data: bytes) -> int:
    """The classic per-byte Fletcher-16 recurrence (reference only).

    The production :func:`fletcher16` is a closed form over the buffer
    read as one integer; this is the textbook loop it must match bit
    for bit.
    """
    low = high = 0
    for byte in data:
        low = (low + byte) % 255
        high = (high + low) % 255
    return (high << 8) | low


#: Every length 0–600 meets each residue of ``(m − 1) mod 255`` (the
#: inverse-table index) at least twice; the rest straddle 64 KiB and
#: reach well past any message the workloads send.
DIFFERENTIAL_LENGTHS = (*range(601), 65_535, 65_536, 65_537, 500_000)


class TestChecksumProperties:
    @given(st.binary(max_size=2000))
    def test_checksum_fits_16_bits(self, data):
        assert 0 <= fletcher16(data) <= 0xFFFF

    @given(st.binary(max_size=4096))
    def test_matches_per_byte_reference(self, data):
        assert fletcher16(data) == fletcher16_per_byte(data)

    def test_closed_form_differential(self):
        """Every length, extreme contents, every buffer type in use."""
        rng = random.Random(1989)
        for length in DIFFERENTIAL_LENGTHS:
            for data in (rng.randbytes(length), bytes(length),
                         b"\xfe" * length, b"\xff" * length):
                expected = fletcher16_per_byte(data)
                label = (length, data[:1])
                assert fletcher16(data) == expected, label
                assert fletcher16(bytearray(data)) == expected, label
                window = memoryview(b"\xa5" + data + b"\x5a")[1:-1]
                assert fletcher16(window) == expected, label

    def test_slice_data_windows_checksum_without_copy(self):
        data = random.Random(7).randbytes(10_001)
        for _size, window in slice_data(data, len(data), 333):
            assert isinstance(window, memoryview)
            assert fletcher16(window) == fletcher16_per_byte(window)

    @given(st.binary(min_size=1, max_size=500),
           st.integers(min_value=0, max_value=499),
           st.integers(min_value=1, max_value=254))
    def test_single_byte_change_detected(self, data, position, delta):
        """Fletcher-16 detects every single-byte error except the
        classic 0x00 ↔ 0xFF aliasing (both are ≡ 0 mod 255)."""
        position %= len(data)
        mutated = bytearray(data)
        mutated[position] = (mutated[position] + delta) % 256
        aliased = mutated[position] % 255 == data[position] % 255
        if bytes(mutated) != data and not aliased:
            assert fletcher16(bytes(mutated)) != fletcher16(data)

    def test_known_fletcher_blind_spot(self):
        """0x00 and 0xFF alias — documented checksum limitation."""
        assert fletcher16(b"\x00") == fletcher16(b"\xff")

    @given(st.binary(max_size=500))
    def test_sealed_payload_verifies(self, data):
        payload = Payload(len(data), data=data).seal()
        assert payload.verify_checksum()

    def test_memo_means_one_kernel_call_per_payload(self, monkeypatch):
        """Sealing and verifying compute nothing; the first read of
        ``checksum`` computes it once."""
        calls = []

        def counting(data):
            calls.append(len(data))
            return fletcher16(data)
        monkeypatch.setattr("repro.hardware.frames.fletcher16", counting)
        unit = ChecksumUnit(NectarConfig().cab)
        for payload, covered in (
                (Payload(8192, data=bytes(range(256)) * 32),
                 bytes(range(256)) * 32),
                (Payload(64), (64).to_bytes(8, "little"))):
            calls.clear()
            assert payload.checksum is None
            unit.seal(payload)
            assert unit.verify(payload) and unit.verify(payload)
            assert calls == []
            expected = fletcher16(covered)
            assert payload.checksum == expected and len(calls) == 1
            assert payload.checksum == expected and len(calls) == 1
            payload.corrupt = True
            assert not unit.verify(payload)
            assert len(calls) == 1


class TestStoreProperties:
    @given(st.lists(st.integers(), min_size=1, max_size=50))
    @settings(deadline=None)
    def test_store_preserves_order(self, items):
        sim = Simulator()
        store = Store(sim)
        for item in items:
            store.put(item)
        got = []

        def consumer():
            for _ in items:
                value = yield store.get()
                got.append(value)
        sim.process(consumer())
        sim.run()
        assert got == items


class TestPercentile:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e9, max_value=1e9),
                    min_size=1, max_size=200))
    def test_percentile_bounds(self, samples):
        assert percentile(samples, 0.0) == min(samples)
        assert percentile(samples, 1.0) == max(samples)
        p50 = percentile(samples, 0.5)
        assert min(samples) <= p50 <= max(samples)

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestEndToEndIntegrity:
    @given(st.binary(min_size=1, max_size=3000),
           st.sampled_from(["packet", "circuit", "auto"]))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_datagram_payload_integrity(self, body, mode):
        """Whatever bytes go in, the same bytes come out — any mode."""
        from repro.topology import single_hub_system
        system = single_hub_system(2)
        a, b = system.cab("cab0"), system.cab("cab1")
        inbox = b.create_mailbox("inbox")
        results = []

        def receiver():
            message = yield from b.kernel.wait(inbox.get())
            results.append(message)
        b.spawn(receiver())
        if mode == "packet" and not a.datalink.packet_fits(len(body)):
            mode = "circuit"
        a.spawn(a.transport.datagram.send("cab1", "inbox", data=body,
                                          mode=mode))
        system.run(until=5_000_000_000)
        assert results and results[0].data == body
