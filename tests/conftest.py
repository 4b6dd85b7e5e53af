"""Shared fixtures for the Nectar reproduction test suite."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.config import NectarConfig
from repro.sim import Simulator
from repro.topology import single_hub_system


@pytest.fixture(scope="session")
def load_script():
    """Import a repo script that is not in a package (``tools/x.py``) by
    its path relative to the repo root."""
    def load(relative: str):
        path = Path(__file__).resolve().parents[1] / relative
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load


@pytest.fixture(scope="session")
def result_sweep(load_script):
    """``tools/result_sweep.py``, the one writer of ``data/pins.json``."""
    return load_script("tools/result_sweep.py")


@pytest.fixture(scope="session")
def pinned():
    """``data/pins.json``, as ``tools/result_sweep.py --repin`` wrote it."""
    return json.loads((Path(__file__).parent / "data" / "pins.json")
                      .read_text())


@pytest.fixture(scope="session")
def written(result_sweep):
    """``(document, broken, timelines)`` as ``--repin`` computes them,
    once for every test that holds the pins to the model."""
    return result_sweep.document(list(result_sweep.PIN_SEEDS),
                                 result_sweep.PIN_SCALE)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def cfg() -> NectarConfig:
    return NectarConfig()


@pytest.fixture
def hub_pair():
    """A 4-CAB single-HUB system plus the two CAB stacks tests use most."""
    system = single_hub_system(4)
    return system, system.cab("cab0"), system.cab("cab1")


@pytest.fixture
def node_pair():
    """A single-HUB system with nodes attached to every CAB."""
    system = single_hub_system(4, with_nodes=True)
    return system, system.cab("cab0"), system.cab("cab1")


def run_exchange(system, sender_stack, receiver_stack, mailbox_name,
                 send_body, until=1_000_000_000):
    """Spawn sender/receiver threads and return (message, latency_ns).

    ``send_body`` is a generator function taking the sender stack.
    """
    inbox = receiver_stack.create_mailbox(mailbox_name)
    result = {}

    def receiver():
        message = yield from receiver_stack.kernel.wait(inbox.get())
        result["message"] = message
        result["t_recv"] = system.now

    def sender():
        result["t_send"] = system.now
        yield from send_body(sender_stack)

    receiver_stack.spawn(receiver(), name="rx")
    sender_stack.spawn(sender(), name="tx")
    system.run(until=until)
    if "message" not in result:
        raise AssertionError("message was not delivered")
    return result["message"], result["t_recv"] - result["t_send"]
