"""repro.scaleout.planner: the grant arithmetic, checked without processes.

Three angles on one function.  Hypothesis properties state the
soundness argument ``docs/SCALEOUT.md`` makes in prose (causal closure,
progress, tightness, idle elision, termination) over random directed
partition graphs, in which some pairs have no edge at all.  A reference
copy of the coordinator loop the planner replaced — list-based pending,
three linear passes per worker — must agree with it grant for grant,
due envelope for due envelope, on the same random inputs and on the
rounds every worker of real 16-hub hypercube runs planned.
"""

import heapq
import multiprocessing
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scaleout import (ScaleoutScenario, flow_paths, lookahead_matrix,
                            partition_fabric, route_set, run_partitioned,
                            run_single)
from repro.scaleout import worker as worker_module
from repro.scaleout.partition import PartitionSystem
from repro.scaleout.planner import plan_round, post, take_due
from repro.topology.fabrics import hypercube_fabric


def reference_round(peeks, pending, distance):
    """The replaced ``Supervisor._round`` arithmetic, on plain lists.

    ``pending[i]`` is an unordered list of ``(arrival, source, seq,
    envelope)``.  Returns ``None`` when the run is done, else ``(windows,
    sends)``: every worker's window end (``None``: no live partition
    bounds it), and for the workers actually messaged ``index ->
    (grant, due envelopes)``.  Rebuilds the ``pending`` lists of
    granted workers, as the old loop did.
    """
    horizons = []
    for index in range(len(peeks)):
        earliest = peeks[index]
        for entry in pending[index]:
            if earliest is None or entry[0] < earliest:
                earliest = entry[0]
        horizons.append(earliest)
    if all(t is None for t in horizons):
        return None
    windows, sends = [], {}
    for index in range(len(peeks)):
        bound = None
        for source, available in enumerate(horizons):
            if available is None or distance[source][index] is None:
                continue
            reach = available + distance[source][index]
            if bound is None or reach < bound:
                bound = reach
        grant = None if bound is None else bound - 1
        windows.append(grant)
        due = sorted(e for e in pending[index]
                     if grant is None or e[0] <= grant)
        peek = peeks[index]
        if not due and (peek is None or grant is not None and peek > grant):
            continue
        if due:
            pending[index] = [e for e in pending[index]
                              if grant is not None and e[0] > grant]
        sends[index] = (grant, [entry[3] for entry in due])
    return windows, sends


def planned_round(peeks, heaps, distance):
    """The same round through the planner: ``sends`` or None."""
    before = (list(peeks), [list(heap) for heap in heaps])
    grants = plan_round(peeks, heaps, distance)
    assert (peeks, heaps) == before, "plan_round reads, never writes"
    if grants is None:
        return None
    return {index: (grant, take_due(heaps[index], grant))
            for index, grant in grants.items()}


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
    """Shortest-path closure of directed per-cut lookaheads, ``None``
    where no path exists; the diagonal is the shortest feedback cycle
    (what ``lookahead_matrix`` computes)."""
    dist = [[None] * count for _ in range(count)]
    for (a, b), cost in cuts.items():
        dist[a][b] = cost
    for via in range(count):
        for src in range(count):
            for dst in range(count):
                if len({src, via, dst}) < 3 or dist[src][via] is None \
                        or dist[via][dst] is None:
                    continue
                through = dist[src][via] + dist[via][dst]
                if dist[src][dst] is None or through < dist[src][dst]:
                    dist[src][dst] = through
    for index in range(count):
        dist[index][index] = min(
            (dist[index][via] + dist[via][index] for via in range(count)
             if via != index and dist[index][via] is not None
             and dist[via][index] is not None), default=None)
    return dist


def earliest_arrival(count, cuts, source, target):
    """The least total lookahead of a chain of at least one cut from
    ``source`` to ``target`` (Dijkstra over the raw cuts, not the
    closure), or ``None`` when no chain exists."""
    best = {}
    frontier = [(cost, dst) for (src, dst), cost in cuts.items()
                if src == source]
    heapq.heapify(frontier)
    while frontier:
        cost, node = heapq.heappop(frontier)
        if node in best:
            continue
        best[node] = cost
        frontier += [(cost + more, dst) for (src, dst), more in cuts.items()
                     if src == node and dst not in best]
        heapq.heapify(frontier)
    return best.get(target)


@st.composite
def coordinator_states(draw, uniform=False):
    """(peeks, pending, distance, cuts) over a random directed partition
    graph: every ordered pair has a cut with some probability, so some
    partitions reach each other one way only, some not at all."""
    count = draw(st.integers(2, 6))
    costs = st.just(draw(st.integers(1, 900))) if uniform \
        else st.integers(1, 900)
    density = draw(st.sampled_from([0.0, 0.3, 0.6, 1.0]))
    cuts = {}
    for a in range(count):
        for b in range(count):
            if a != b and draw(st.floats(0, 1)) < density:
                cuts[(a, b)] = draw(costs)
    distance = closure(count, cuts)
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
    return peeks, pending, distance, cuts


def triggers_of(peeks, pending):
    return [min([t for t in [peek] + [e[0] for e in entries]
                 if t is not None], default=None)
            for peek, entries in zip(peeks, pending)]


@given(coordinator_states())
@settings(deadline=None, max_examples=300)
def test_every_grant_is_causally_closed(state):
    peeks, pending, distance, cuts = state
    grants = plan_round(peeks, heaps_of(pending), distance)
    triggers = triggers_of(peeks, pending)
    if grants is None:
        return
    for index, grant in grants.items():
        for source, trigger in enumerate(triggers):
            # Nothing partition ``source`` has yet to commit can land on
            # ``index`` inside the grant — its own feedback included;
            # and where no chain of cuts joins them, nothing can land
            # at all, which is the only case a grant has no bound.
            arrival = earliest_arrival(len(peeks), cuts, source, index)
            if trigger is None or arrival is None:
                continue
            assert grant is not None and grant < trigger + arrival


@given(coordinator_states())
@settings(deadline=None, max_examples=300)
def test_global_minimum_worker_always_progresses(state):
    peeks, pending, distance, cuts = state
    grants = plan_round(peeks, heaps_of(pending), distance)
    triggers = triggers_of(peeks, pending)
    live = [t for t in triggers if t is not None]
    # Done iff every worker is idle and nothing is pending.
    assert (grants is None) == (not live)
    assert (grants is None) == (all(peek is None for peek in peeks)
                                and not any(pending))
    if grants is None:
        return
    horizon = min(live)
    lookahead = min(cuts.values(), default=None)
    for index, trigger in enumerate(triggers):
        if trigger == horizon:
            assert index in grants
            if grants[index] is not None:
                assert grants[index] >= horizon + lookahead - 1 >= horizon


@given(coordinator_states())
@settings(deadline=None, max_examples=300)
def test_every_grant_is_the_tightest_bound(state):
    # One rule and no cap: a grant is exactly the earliest reach of any
    # live trigger (no bound where none reaches), and a worker is elided
    # iff it has no trigger or its trigger is past its bound.
    peeks, pending, distance, _cuts = state
    grants = plan_round(peeks, heaps_of(pending), distance)
    if grants is None:
        return
    triggers = triggers_of(peeks, pending)
    for index, trigger in enumerate(triggers):
        reaches = [available + distance[source][index]
                   for source, available in enumerate(triggers)
                   if available is not None
                   and distance[source][index] is not None]
        bound = min(reaches) - 1 if reaches else None
        elided = trigger is None or bound is not None and trigger > bound
        assert (index not in grants) == elided
        if not elided:
            assert grants[index] == bound


@given(coordinator_states(), st.integers(0, 1 << 16))
@settings(deadline=None, max_examples=400)
def test_planner_matches_the_replaced_loop(state, shuffle_seed):
    peeks, pending, distance, _cuts = state
    heaps = heaps_of(pending, shuffle_seed)
    expected = reference_round(peeks, pending, distance)
    planned = planned_round(peeks, heaps, distance)
    if expected is None:
        assert planned is None
        return
    windows, sends = expected
    # Same workers messaged, same grants, and the due envelopes pop off
    # the heap in exactly the old sort's injection order.
    assert planned == sends
    assert [sorted(heap) for heap in heaps] \
        == [sorted(entries) for entries in pending]
    # An elided worker has nothing due and no local event in its window.
    for index, window in enumerate(windows):
        if index not in sends and window is None:
            assert peeks[index] is None and not pending[index]
        elif index not in sends:
            assert peeks[index] is None or peeks[index] > window
            assert all(entry[0] > window for entry in pending[index])


# ----------------------------------------------------------------------
# recorded rounds of real runs
# ----------------------------------------------------------------------

def _record_workers(monkeypatch, directory):
    """Make every worker process append, to a file named after it, what
    it knew and planned each round and the envelopes it injected."""
    plan, inject = worker_module.plan_round, PartitionSystem.inject

    def dump(kind, record):
        name = multiprocessing.current_process().name
        with open(directory / f"{kind}-{name}", "ab") as handle:
            pickle.dump(record, handle)

    def recording_plan(peeks, pending, distance):
        grants = plan(peeks, pending, distance)
        dump("plan", ((list(peeks), [sorted(heap) for heap in pending],
                       distance), grants))
        return grants

    def recording_inject(self, envelopes):
        dump("inject", list(envelopes))
        return inject(self, envelopes)

    # Workers fork from this process, so they inherit the patches.
    monkeypatch.setattr(worker_module, "plan_round", recording_plan)
    monkeypatch.setattr(PartitionSystem, "inject", recording_inject)


def _records(path):
    with open(path, "rb") as handle:
        while True:
            try:
                yield pickle.load(handle)
            except EOFError:
                return


@pytest.mark.parametrize("num_partitions", [2, 4])
@pytest.mark.parametrize("messages", [1, 8])
def test_recorded_run_matches_the_replaced_loop(monkeypatch, tmp_path,
                                                num_partitions, messages):
    # Every worker plans every round itself, on its mirror of every
    # partition's state; all of them plan what the replaced loop would
    # have (8 messages per CAB give more rounds to check).  On a 4-cube
    # every flow crosses the cut, so every round has envelopes to file;
    # cut four ways, some pairs of partitions no route joins.
    scenario = ScaleoutScenario(f"hypercube-16-m{messages}",
                                "4-cube, 16 CABs, every flow crosses",
                                hypercube_fabric(4),
                                messages_per_cab=messages)
    paths = flow_paths(scenario.fabric, scenario.flows())
    distance = lookahead_matrix(
        partition_fabric(scenario.fabric, num_partitions, paths),
        scenario.config(), route_set(paths))
    _record_workers(monkeypatch, tmp_path)
    outcome = run_partitioned(scenario, num_partitions)
    assert outcome.digest == run_single(scenario).digest
    # The run's workers, by process name.
    names = [f"scaleout-{scenario.name}-p{index}"
             for index in range(num_partitions)]
    plans = [list(_records(tmp_path / f"plan-{name}")) for name in names]
    assert all(plan == plans[0] for plan in plans)
    assert len(plans[0]) == outcome.rounds + 1
    injected = [[] for _ in names]
    advances = 0
    for (peeks, pending, used), grants in plans[0]:
        # The workers planned on the route-aware matrix built here.
        assert used == distance
        heaps = heaps_of(pending)
        expected = reference_round(peeks, pending, distance)
        planned = planned_round(peeks, heaps, distance)
        if grants is None:
            assert expected is None and planned is None
            continue
        _windows, sends = expected
        assert planned == sends
        assert grants == {index: grant
                          for index, (grant, _due) in sends.items()}
        for index, (_grant, due) in sends.items():
            injected[index].append(due)
        advances += len(sends)
    assert advances == outcome.advances
    # ...and each worker injected exactly its due envelopes, in order.
    for index, name in enumerate(names):
        assert list(_records(tmp_path / f"inject-{name}")) \
            == injected[index]
