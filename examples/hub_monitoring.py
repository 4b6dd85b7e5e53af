#!/usr/bin/env python3
"""Watching a HUB under load (§4.1).

"An additional instrumentation board can be plugged into the backplane
...; it can monitor and record events related to the crossbar and its
controller."  :mod:`repro.observe` is that board, generalised to the
whole system.  This example attaches it to a busy HUB and prints its
readout — controller commands and occupancy, the HUB's forwarding and
connection counters, the busiest ports by sampled output utilisation —
then exports the same run as a Chrome/Perfetto trace.

Run:  python examples/hub_monitoring.py
"""

import os
import tempfile

from repro.sim import units
from repro.topology import single_hub_system


def main() -> None:
    system = single_hub_system(8)
    # A .util probe carries busy time past 100 % into the next tick, so
    # even a period shorter than the longest packet (800 B serialise in
    # 64 µs) sums to the fibers' byte counters; 100 µs keeps it short.
    observatory = system.observe(interval_ns=units.us(100))

    # Four pairs exchange bursts of datagrams of different sizes.
    receipts = []
    for pair in range(4):
        src = system.cab(f"cab{pair}")
        dst = system.cab(f"cab{pair + 4}")
        inbox = dst.create_mailbox("inbox")
        count = 3 + pair

        def rx(dst=dst, inbox=inbox, count=count):
            for _ in range(count):
                message = yield from dst.kernel.wait(inbox.get())
                receipts.append(message.size)
        dst.spawn(rx())

        def tx(src=src, dst=dst, count=count, pair=pair):
            for index in range(count):
                yield from src.transport.datagram.send(
                    dst.name, "inbox", size=200 * (pair + 1))
                yield from src.kernel.sleep(50_000 * (pair + 1))
        src.spawn(tx())
    system.run(until=2_000_000)

    series = observatory.series

    def final(name):
        return int(series[name].values[-1])

    controller = series["hub0.controller.util"]
    print(f"observation window : {units.to_us(system.now):.0f} µs, "
          f"{observatory.sampler.samples_taken} samples")
    print(f"controller         : "
          f"{final('hub0.controller.commands')} commands, busy "
          f"{controller.mean:.2%} mean, {controller.maximum:.1%} peak")
    print(f"hub counters       : "
          f"{final('hub0.packets_forwarded')} packets forwarded, "
          f"{final('hub0.closes')} connections closed")

    print("\nbusiest output ports (sampled utilization, 100 µs period):")
    ports = sorted(((trace.mean, name) for name, trace in series.items()
                    if name.startswith("hub0.p") and name.endswith(".util")),
                   reverse=True)
    for mean, name in ports[:4]:
        bar = "#" * max(1, round(mean * 100))
        print(f"  {name:12s} mean {mean:6.2%} "
              f"peak {series[name].maximum:6.1%}  {bar}")

    trace_path = os.path.join(tempfile.gettempdir(), "hub_monitoring.json")
    events = observatory.export_chrome_trace(trace_path)
    print(f"\nwrote {events} trace events to {trace_path} "
          f"(open in https://ui.perfetto.dev)")
    print(f"messages delivered: {len(receipts)}")


if __name__ == "__main__":
    main()
