"""The HUB command-set inventory (§4.2) as enforced documentation.

The prototype documents "38 user commands and 14 supervisor commands";
DESIGN.md §5 records that encoding variants with identical semantics are
collapsed to 24 + 14 operations covering every category the paper names.
These tests pin those counts, the category coverage and the consistency
of the flags each ``CommandOp`` member declares, so the claim in the docs
can never silently drift from the code.
"""

import pytest

from repro.hardware.hub_commands import CommandOp

FLAGS = ("needs_controller", "is_collective", "is_supervisor", "is_open",
         "is_test_open", "has_retry", "wants_reply")


def ops_with(flag, value=True):
    return {op for op in CommandOp if getattr(op, flag) is value}


def user_ops():
    return ops_with("is_supervisor", False)


class TestInventory:
    def test_user_command_count_matches_design_md(self):
        assert len(user_ops()) == 24

    def test_supervisor_command_count_matches_paper(self):
        """§4.2: "14 supervisor commands" (collectives are an extension)."""
        assert len(ops_with("is_supervisor") - ops_with("is_collective")) \
            == 14

    def test_collective_extension_inventory(self):
        """The in-network collectives add exactly four supervisor ops."""
        collective = ops_with("is_collective")
        assert len(collective) == 4
        assert collective <= ops_with("is_supervisor")
        assert {op.name for op in collective} == {
            "SV_FETCH_ADD", "SV_BARRIER", "SV_REDUCE", "SV_COLL_RESET"}

    def test_every_paper_category_is_covered(self):
        """§4.2: connections, locks, status, and flow control."""
        names = {op.name for op in user_ops()}
        assert any(name.startswith("OPEN") for name in names)
        assert any(name.startswith("CLOSE") for name in names)
        assert any(name.startswith("LOCK") for name in names)
        assert any(name.startswith("STATUS") for name in names)
        assert {"SET_READY", "CLEAR_READY"} <= names

    def test_supervisor_categories(self):
        """§4.2: supervisor commands are for testing and reconfiguration."""
        names = {op.name for op in ops_with("is_supervisor")}
        assert {"SV_SELFTEST", "SV_LOOPBACK_ON", "SV_READ_COUNTERS"} \
            <= names                                       # testing
        assert {"SV_RESET_HUB", "SV_ENABLE_PORT", "SV_DISABLE_PORT"} \
            <= names                                       # reconfiguration

    def test_values_are_positions_and_round_trip(self):
        """The wire codec ships ``op.value`` and rebuilds ``CommandOp(v)``."""
        assert [op.value for op in CommandOp] == list(range(1, 43))
        for op in CommandOp:
            assert CommandOp(op.value) is op


class TestClassifierConsistency:
    def test_controller_ops_are_opens_locks_and_collectives(self):
        for op in ops_with("needs_controller"):
            assert op.is_open or "LOCK" in op.name or op.is_collective

    def test_test_ops_subset_of_opens(self):
        assert ops_with("is_test_open") <= ops_with("is_open")

    def test_retry_ops_subset_of_controller_ops(self):
        assert ops_with("has_retry") <= ops_with("needs_controller")

    def test_every_status_command_replies(self):
        for op in CommandOp:
            if op.name.startswith("STATUS"):
                assert op.wants_reply

    def test_flags_are_fixed_booleans(self):
        for op in CommandOp:
            for flag in FLAGS:
                assert type(getattr(op, flag)) is bool
        with pytest.raises(AttributeError):
            CommandOp.OPEN.wants_reply = True
        assert not CommandOp.OPEN.wants_reply

    def test_supervisor_ops_never_need_controller_serialisation(self):
        """Paper supervisor commands are port-local; the collective
        extension deliberately rides the controller pipeline, which is
        its combining serialisation point."""
        for op in ops_with("is_supervisor") - ops_with("is_collective"):
            assert not op.needs_controller
        for op in ops_with("is_collective"):
            assert op.needs_controller

    def test_collectives_reply_through_their_own_unit(self):
        """Collective replies come from the collective unit (often cycles
        later), never from the generic execute-then-reply path."""
        for op in ops_with("is_collective"):
            assert not op.wants_reply

    def test_closes_are_port_local(self):
        """§4.1: 'localized' commands execute inside the I/O port."""
        for op in (CommandOp.CLOSE, CommandOp.CLOSE_INPUT,
                   CommandOp.CLOSE_ALL):
            assert not op.needs_controller
