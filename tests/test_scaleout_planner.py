"""repro.scaleout.planner: the grant arithmetic, checked without processes.

Three angles on one function.  Hypothesis properties state the
soundness argument ``docs/SCALEOUT.md`` makes in prose (causal closure,
progress, idle elision, termination) over random partition graphs.  A
reference copy of the coordinator loop the planner replaced —
list-based pending, three linear passes per worker — must agree with it
grant for grant, due batch for due batch, on the same random inputs and
on the rounds of real ``escl-torus-16`` runs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scaleout import Supervisor, run_single, scenarios
from repro.scaleout.planner import plan_round, post, take_due


def reference_round(peeks, pending, distance, lookahead, batch):
    """The replaced ``Supervisor._round`` arithmetic, on plain lists.

    ``pending[i]`` is an unordered list of ``(arrival, source, seq,
    envelope)``.  Returns ``None`` when the run is done, else ``(cap,
    windows, sends)``: every worker's window end, and for the workers
    actually messaged ``index -> (grant, due envelopes)``.  Rebuilds the
    ``pending`` lists of granted workers, as the old loop did.
    """
    horizons = []
    for index in range(len(peeks)):
        earliest = peeks[index]
        for entry in pending[index]:
            if earliest is None or entry[0] < earliest:
                earliest = entry[0]
        horizons.append(earliest)
    finite = [t for t in horizons if t is not None]
    if not finite:
        return None
    cap = min(finite) + batch * lookahead
    windows, sends = [], {}
    for index in range(len(peeks)):
        bound = cap
        for source, available in enumerate(horizons):
            if available is None:
                continue
            reach = available + distance[source][index]
            if reach < bound:
                bound = reach
        grant = bound - 1
        windows.append(grant)
        due = sorted(e for e in pending[index] if e[0] <= grant)
        peek = peeks[index]
        if not due and (peek is None or peek > grant):
            continue
        if due:
            pending[index] = [e for e in pending[index] if e[0] > grant]
        sends[index] = (grant, [entry[3] for entry in due])
    return cap, windows, sends


def planned_round(peeks, heaps, distance, lookahead, batch):
    """The same round through the planner: ``(cap, sends)`` or None."""
    before = (list(peeks), [list(heap) for heap in heaps])
    plan = plan_round(peeks, heaps, distance, lookahead, batch)
    assert (peeks, heaps) == before, "plan_round reads, never writes"
    if plan is None:
        return None
    return plan.cap, {index: (grant, take_due(heaps[index], grant))
                      for index, grant in enumerate(plan.grants)
                      if grant is not None}


def heaps_of(pending, shuffle_seed=0):
    """``post`` every entry of list-based ``pending``, in shuffled order."""
    rng = random.Random(shuffle_seed)
    heaps = []
    for entries in pending:
        entries = list(entries)
        rng.shuffle(entries)
        heap = []
        for _arrival, source, _seq, envelope in entries:
            post(heap, source, envelope)
        heaps.append(heap)
    return heaps


# ----------------------------------------------------------------------
# random coordinator states
# ----------------------------------------------------------------------

def closure(count, cuts):
    """Shortest-path closure of per-cut lookaheads; the diagonal is the
    shortest feedback cycle (what ``lookahead_matrix`` computes)."""
    infinity = float("inf")
    dist = [[infinity] * count for _ in range(count)]
    for (a, b), cost in cuts.items():
        dist[a][b] = dist[b][a] = min(dist[a][b], cost)
    for via in range(count):
        for src in range(count):
            for dst in range(count):
                if src != dst and dist[src][via] + dist[via][dst] \
                        < dist[src][dst]:
                    dist[src][dst] = dist[src][via] + dist[via][dst]
    for index in range(count):
        dist[index][index] = min(dist[index][via] + dist[via][index]
                                 for via in range(count) if via != index)
    return dist


@st.composite
def coordinator_states(draw, uniform=False):
    """(peeks, pending, distance, lookahead) over a random connected
    partition graph: a random spanning tree plus random extra cuts."""
    count = draw(st.integers(2, 6))
    costs = st.just(draw(st.integers(1, 900))) if uniform \
        else st.integers(1, 900)
    cuts = {}
    for node in range(1, count):
        cuts[(draw(st.integers(0, node - 1)), node)] = draw(costs)
    for _ in range(draw(st.integers(0, count))):
        a, b = draw(st.integers(0, count - 1)), draw(st.integers(0, count - 1))
        if a != b:
            key = (min(a, b), max(a, b))
            cuts[key] = min(cuts.get(key, 10 ** 9), draw(costs))
    distance = closure(count, cuts)
    lookahead = min(cuts.values())
    times = st.integers(0, 5_000)
    peeks = [draw(st.none() | times) for _ in range(count)]
    pending = [[] for _ in range(count)]
    for seq in range(draw(st.integers(0, 24))):
        destination = draw(st.integers(0, count - 1))
        source = draw(st.integers(0, count - 1))
        arrival = draw(times)
        # seq is unique, so (arrival, source, seq) orders totally.
        envelope = (arrival, seq, "packet", f"hub{destination}", 0, None, 64)
        pending[destination].append((arrival, source, seq, envelope))
    return peeks, pending, distance, lookahead


def triggers_of(peeks, pending):
    return [min([t for t in [peek] + [e[0] for e in entries]
                 if t is not None], default=None)
            for peek, entries in zip(peeks, pending)]


BATCHES = st.integers(1, 16)


@given(coordinator_states(), BATCHES)
@settings(deadline=None, max_examples=300)
def test_every_grant_is_causally_closed(state, batch):
    peeks, pending, distance, lookahead = state
    plan = plan_round(peeks, heaps_of(pending), distance, lookahead, batch)
    triggers = triggers_of(peeks, pending)
    if plan is None:
        return
    for index, grant in enumerate(plan.grants):
        if grant is None:
            continue
        assert grant < plan.cap
        for source, trigger in enumerate(triggers):
            # Nothing partition ``source`` has yet to commit can land on
            # ``index`` inside the grant — its own feedback included.
            if trigger is not None:
                assert grant < trigger + distance[source][index]


@given(coordinator_states(), BATCHES)
@settings(deadline=None, max_examples=300)
def test_global_minimum_worker_always_progresses(state, batch):
    peeks, pending, distance, lookahead = state
    plan = plan_round(peeks, heaps_of(pending), distance, lookahead, batch)
    triggers = triggers_of(peeks, pending)
    live = [t for t in triggers if t is not None]
    # Done iff every worker is idle and nothing is pending.
    assert (plan is None) == (not live)
    assert (plan is None) == (all(peek is None for peek in peeks)
                              and not any(pending))
    if plan is None:
        return
    horizon = min(live)
    assert plan.cap == horizon + batch * lookahead
    for index, trigger in enumerate(triggers):
        if trigger == horizon:
            assert plan.grants[index] is not None
            assert plan.grants[index] >= horizon + lookahead - 1 >= horizon


@given(coordinator_states(), coordinator_states(uniform=True))
@settings(deadline=None, max_examples=200)
def test_batch_one_grants_are_the_classic_windows(general, uniform):
    # With batch=1 the cap N + L undercuts every chain term (each is at
    # least N + L): the uniform plant is the classic protocol, and a
    # heterogeneous one grants no more until batch > 1.
    for peeks, pending, distance, lookahead in (uniform, general):
        plan = plan_round(peeks, heaps_of(pending), distance, lookahead, 1)
        if plan is None:
            continue
        horizon = min(t for t in triggers_of(peeks, pending)
                      if t is not None)
        for grant in plan.grants:
            assert grant is None or grant == horizon + lookahead - 1


@given(coordinator_states(), BATCHES, st.integers(0, 1 << 16))
@settings(deadline=None, max_examples=400)
def test_planner_matches_the_replaced_loop(state, batch, shuffle_seed):
    peeks, pending, distance, lookahead = state
    heaps = heaps_of(pending, shuffle_seed)
    expected = reference_round(peeks, pending, distance, lookahead, batch)
    planned = planned_round(peeks, heaps, distance, lookahead, batch)
    if expected is None:
        assert planned is None
        return
    cap, windows, sends = expected
    # Same cap, same workers messaged, same grants, and the due batches
    # pop off the heap in exactly the old sort's injection order.
    assert planned == (cap, sends)
    assert [sorted(heap) for heap in heaps] \
        == [sorted(entries) for entries in pending]
    # An elided worker has nothing due and no local event in its window.
    for index, window in enumerate(windows):
        if index not in sends:
            assert peeks[index] is None or peeks[index] > window
            assert all(entry[0] > window for entry in pending[index])


# ----------------------------------------------------------------------
# recorded rounds of real runs
# ----------------------------------------------------------------------

class _RecordingSupervisor(Supervisor):
    """Records what the coordinator knew at the top of every round and
    the advance messages that round then sent."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace = []

    def _round(self):
        known = (list(self.peeks), [sorted(heap) for heap in self.pending])
        logged = [len(worker.log) for worker in self.workers]
        more = super()._round()
        sent = {worker.index: worker.log[logged[worker.index]][1:]
                for worker in self.workers
                if len(worker.log) > logged[worker.index]}
        self.trace.append((known, sent if more else None))
        return more


@pytest.mark.parametrize("num_partitions", [2, 4])
@pytest.mark.parametrize("batch", [1, 8])
def test_recorded_run_matches_the_replaced_loop(num_partitions, batch):
    scenario = scenarios()["escl-torus-16"]
    supervisor = _RecordingSupervisor(scenario, num_partitions, batch=batch)
    outcome = supervisor.run()
    assert outcome.digest == run_single(scenario).digest
    assert len(supervisor.trace) == outcome.rounds + 1
    advances = 0
    for (peeks, pending), sent in supervisor.trace:
        heaps = heaps_of(pending)
        expected = reference_round(peeks, pending, supervisor.distance,
                                   supervisor.lookahead, batch)
        planned = planned_round(peeks, heaps, supervisor.distance,
                                supervisor.lookahead, batch)
        if sent is None:
            assert expected is None and planned is None
            continue
        cap, _windows, sends = expected
        assert planned == (cap, sends)
        # ...and it is what actually crossed the pipes that round.
        assert sent == sends
        advances += len(sends)
    assert advances == outcome.advances
