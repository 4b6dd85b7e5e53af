"""Property-based tests (hypothesis) on core invariants."""

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hardware.frames import Payload
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

    def test_slice_data_windows_without_copy(self):
        data = random.Random(7).randbytes(10_001)
        offset = 0
        for size, window in slice_data(data, len(data), 333):
            assert isinstance(window, memoryview)
            assert window.obj is data and window == data[offset:offset + size]
            offset += size
        assert offset == len(data)

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
