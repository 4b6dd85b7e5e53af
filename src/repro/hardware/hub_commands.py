"""The HUB command set (§4.2).

The prototype hardware documents 38 user and 14 supervisor commands.  The
paper describes their *categories* — "connections, locks, status, and flow
control" for user commands; "system testing and reconfiguration" for
supervisor commands — and works through the connection commands in detail.
We implement every command whose semantics the paper specifies or implies,
collapsing pure encoding variants; the resulting set below covers all four
user categories and the supervisor category with 24 + 14 operations.

Commands that require serialisation (opens, locks) are executed by the
central controller at one command per 70 ns cycle; "localized" commands
(closes, ready-bit and status operations) execute inside the I/O port
(§4.1).  Each member declares that nature once, as the words of its value:

* ``controller`` or ``port`` — where it executes (exactly one of the two);
* ``open`` — it establishes a crossbar connection;
* ``test`` — the open also waits for the downstream ready bit (§4.2.3);
* ``retry`` — a refused open or lock waits and retries instead of failing;
* ``reply`` — the generic execute-then-reply path answers the origin;
* ``supervisor`` — a supervisor command (testing and reconfiguration);
* ``collective`` — an in-network combining command (``repro.collectives``).

The words become read-only boolean attributes of the member
(``needs_controller``, ``is_open``, ``is_test_open``, ``has_retry``,
``wants_reply``, ``is_supervisor``, ``is_collective``), so classifying a
command is one attribute load.  Member values are the positions 1…42,
which the scale-out wire codec ships.
"""

from __future__ import annotations

from enum import Enum

#: Declaration word -> the member attribute it sets (``port`` sets none).
_NATURE = {"controller": "needs_controller", "open": "is_open",
           "test": "is_test_open", "retry": "has_retry",
           "reply": "wants_reply", "supervisor": "is_supervisor",
           "collective": "is_collective"}


class CommandOp(Enum):
    """Operation codes for the 3-byte HUB commands."""

    def __new__(cls, nature: str) -> CommandOp:
        words = set(nature.split())
        if not words <= {*_NATURE, "port"} \
                or ("port" in words) == ("controller" in words):
            raise ValueError(f"bad HUB command nature {nature!r}")
        op = object.__new__(cls)
        op._value_ = len(cls._member_names_) + 1
        # Into the instance dict directly: __setattr__ refuses these names.
        vars(op).update({attr: word in words
                         for word, attr in _NATURE.items()})
        return op

    def __setattr__(self, name: str, value: object) -> None:
        if name in _NATURE.values():
            raise AttributeError(f"{self._name_}.{name} is fixed by the "
                                 f"command set")
        super().__setattr__(name, value)

    # --- connections ---
    #: try once; silently drop on failure
    OPEN = "controller open"
    #: try once; reply with outcome
    OPEN_REPLY = "controller open reply"
    #: retry until the output frees
    OPEN_RETRY = "controller open retry"
    #: "open with retry and reply"
    OPEN_RETRY_REPLY = "controller open retry reply"
    #: open only if downstream queue ready
    TEST_OPEN = "controller open test"
    #: ditto, with reply
    TEST_OPEN_REPLY = "controller open test reply"
    #: "test open with retry" (§4.2.3)
    TEST_OPEN_RETRY = "controller open test retry"
    #: ditto, with reply
    TEST_OPEN_RETRY_REPLY = "controller open test retry reply"
    #: close the connection feeding output port <param>
    CLOSE = "port"
    #: close every connection fed by input port <param>
    CLOSE_INPUT = "port"
    #: travelling close: tear down behind the data
    CLOSE_ALL = "port"

    # --- locks ---
    #: reserve output port <param> for the origin
    LOCK = "controller"
    #: ditto, with reply
    LOCK_REPLY = "controller reply"
    #: wait for the lock, then reply
    LOCK_RETRY_REPLY = "controller retry reply"
    #: release a held lock
    UNLOCK = "controller"

    # --- status ---
    #: who owns output <param>?
    STATUS_OUTPUT = "port reply"
    #: which outputs does input <param> feed?
    STATUS_INPUT = "port reply"
    #: ready bit of port <param>
    STATUS_READY = "port reply"
    #: lock holder of output <param>
    STATUS_LOCK = "port reply"
    #: full status-table snapshot
    STATUS_TABLE = "port reply"

    # --- flow control ---
    #: force the ready bit of port <param> on
    SET_READY = "port"
    #: force the ready bit of port <param> off
    CLEAR_READY = "port"

    # --- misc user ---
    #: consume a cycle (timing/diagnostics)
    NOP = "port"
    #: reply unconditionally (liveness probe)
    ECHO = "port reply"

    # --- supervisor: testing and reconfiguration (§4.2) ---
    #: drop all connections, locks, retries
    SV_RESET_HUB = "port supervisor"
    #: reset one port (queue, ready bit)
    SV_RESET_PORT = "port supervisor"
    #: (re-)enable a port
    SV_ENABLE_PORT = "port supervisor"
    #: take a port out of service
    SV_DISABLE_PORT = "port supervisor"
    #: port echoes its input to its output
    SV_LOOPBACK_ON = "port supervisor"
    #: back to normal forwarding
    SV_LOOPBACK_OFF = "port supervisor"
    #: reply with event counters
    SV_READ_COUNTERS = "port supervisor reply"
    #: zero the event counters
    SV_CLEAR_COUNTERS = "port supervisor"
    #: run built-in self test, reply outcome
    SV_SELFTEST = "port supervisor reply"
    #: reply hardware revision
    SV_READ_VERSION = "port supervisor reply"
    #: stop accepting user commands
    SV_FREEZE = "port supervisor"
    #: resume accepting user commands
    SV_UNFREEZE = "port supervisor"
    #: configure the retry-watchdog (param cycles)
    SV_SET_TIMEOUT = "port supervisor"
    #: supervisor status snapshot (incl. frozen)
    SV_READ_STATUS = "port supervisor reply"

    # --- supervisor: in-network collectives (extension; DESIGN.md §5) ---
    # Serialised through the central controller, whose cycle is the
    # combining point (cf. the Ultracomputer's combining switches).  No
    # ``reply``: each one answers its origin through the HUB's collective
    # unit, often cycles later when the whole group has arrived.
    #: atomic fetch-and-add on HUB counter <param>
    SV_FETCH_ADD = "controller supervisor collective"
    #: join barrier group <param>; multicast release
    SV_BARRIER = "controller supervisor collective"
    #: join reduction group <param>; combine values
    SV_REDUCE = "controller supervisor collective"
    #: clear group/counter <param>; fail parked joins
    SV_COLL_RESET = "controller supervisor collective"
