"""The HUB instrumentation board (§4.1, Figure 6).

"An additional instrumentation board can be plugged into the backplane
...; it can monitor and record events related to the crossbar and its
controller."

:class:`InstrumentationBoard` taps a HUB the way the hardware card taps
backplane signals: it interposes probes on the crossbar and the
controller, reads the port output fibers' own counters, and accumulates

* connection setup latencies (controller submit → crossbar connect),
* connection hold times (connect → disconnect, per output port),
* per-port forwarded bytes and packets (link utilisation),
* controller occupancy (commands executed, refused opens).

Probes add zero simulated time — monitoring hardware watches, it does
not slow the datapath.

Port bytes and packets are what each output fiber has *serialised*
since the board was attached (``Fiber.bytes_sent`` / ``packets_sent``
against a baseline taken at attach), so they include the cycle-stolen
reply and ready-signal bytes and agree with the ``<hub>.p<i>.util``
probe of :mod:`repro.observe`, which reads the same counter: there is
one definition of link bytes, not a second one counted at ``send``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..stats.recorders import LatencyRecorder

if TYPE_CHECKING:  # pragma: no cover
    from .hub import Hub


class InstrumentationBoard:
    """A monitoring card plugged into one HUB's backplane."""

    def __init__(self, hub: "Hub") -> None:
        self.hub = hub
        self.sim = hub.sim
        self.attached_at = self.sim.now
        self.setup_latency = LatencyRecorder("connection-setup")
        self.hold_time = LatencyRecorder("connection-hold")
        #: Output fibers wired at attach: port index -> (fiber, its
        #: bytes and packets already sent when the board went in).
        self._fibers = {
            port.index: (port.out_fiber, port.out_fiber.bytes_sent,
                         port.out_fiber.packets_sent)
            for port in hub.ports if port.out_fiber is not None}
        self.connects_seen = 0
        self.disconnects_seen = 0
        self.commands_seen = 0
        self._open_since: dict[int, int] = {}
        self._submit_times: dict[int, int] = {}
        self._install_probes()

    # ------------------------------------------------------------------
    # probe installation (signal taps)
    # ------------------------------------------------------------------

    def _install_probes(self) -> None:
        crossbar = self.hub.crossbar
        controller = self.hub.controller

        original_connect = crossbar.connect

        def probed_connect(in_port: int, out_port: int) -> bool:
            ok = original_connect(in_port, out_port)
            if ok:
                self.connects_seen += 1
                self._open_since.setdefault(out_port, self.sim.now)
            return ok
        crossbar.connect = probed_connect

        original_disconnect = crossbar.disconnect

        def probed_disconnect(out_port: int) -> Optional[int]:
            owner = original_disconnect(out_port)
            if owner is not None:
                self.disconnects_seen += 1
                opened = self._open_since.pop(out_port, None)
                if opened is not None:
                    self.hold_time.add(self.sim.now - opened)
            return owner
        crossbar.disconnect = probed_disconnect

        original_submit = controller.submit

        def probed_submit(command, in_port, reverse_path):
            self._submit_times[command.seq] = self.sim.now
            done = original_submit(command, in_port, reverse_path)

            def on_done(event):
                submitted = self._submit_times.pop(command.seq, None)
                if submitted is not None and event._ok \
                        and isinstance(event._value, dict) \
                        and event._value.get("ok"):
                    self.setup_latency.add(self.sim.now - submitted)
            done.add_callback(on_done)
            return done
        controller.submit = probed_submit

        original_dispatch = controller._dispatch

        def probed_dispatch(job):
            self.commands_seen += 1
            original_dispatch(job)
        controller._dispatch = probed_dispatch

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------

    @property
    def port_bytes(self) -> dict[int, int]:
        """Bytes serialised per output port since attach (ports that
        sent nothing are absent)."""
        return {index: fiber.bytes_sent - base
                for index, (fiber, base, _packets) in self._fibers.items()
                if fiber.bytes_sent != base}

    @property
    def port_packets(self) -> dict[int, int]:
        """Packets serialised per output port since attach."""
        return {index: fiber.packets_sent - base
                for index, (fiber, _bytes, base) in self._fibers.items()
                if fiber.packets_sent != base}

    def port_utilization(self, port_index: int) -> float:
        """Fraction of the observation window the port's output fiber
        spent transmitting."""
        elapsed = self.sim.now - self.attached_at
        if elapsed <= 0:
            return 0.0
        byte_time = self.hub.fiber_cfg.ns_per_byte
        busy = self.port_bytes.get(port_index, 0) * byte_time
        return min(busy / elapsed, 1.0)

    def busiest_ports(self, count: int = 4) -> list[tuple[int, int]]:
        ordered = sorted(self.port_bytes.items(),
                         key=lambda item: -item[1])
        return ordered[:count]

    def report(self) -> dict[str, Any]:
        """A snapshot of everything the board has recorded."""
        port_bytes = self.port_bytes
        return {
            "hub": self.hub.name,
            "window_ns": self.sim.now - self.attached_at,
            "connects": self.connects_seen,
            "disconnects": self.disconnects_seen,
            "commands": self.commands_seen,
            "setup_latency": self.setup_latency.summary(),
            "hold_time": self.hold_time.summary(),
            "port_bytes": port_bytes,
            "utilization": {index: self.port_utilization(index)
                            for index in port_bytes},
        }
