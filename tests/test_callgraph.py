"""Call-graph profile: propagation, parents/children, cycles."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.gprof.callgraph import ArcShare, CallGraphEntry, CallGraphProfile, strongly_connected
from repro.gprof.gmon import GmonData
from repro.simulate.engine import SPONTANEOUS


def chain_gmon():
    """main -> a -> b, with self time on each."""
    data = GmonData()
    data.add_ticks("main", 100)
    data.add_ticks("a", 200)
    data.add_ticks("b", 300)
    data.add_arc(SPONTANEOUS, "main", 1)
    data.add_arc("main", "a", 2)
    data.add_arc("a", "b", 4)
    return data


def test_total_time_propagates_up():
    profile = CallGraphProfile.from_gmon(chain_gmon())
    assert profile.get("b").total_seconds == pytest.approx(3.0)
    assert profile.get("a").total_seconds == pytest.approx(2.0 + 3.0)
    assert profile.get("main").total_seconds == pytest.approx(1.0 + 5.0)


def test_children_listed_with_shares():
    profile = CallGraphProfile.from_gmon(chain_gmon())
    children = profile.get("main").children
    assert len(children) == 1
    assert children[0].name == "a"
    assert children[0].self_seconds == pytest.approx(2.0)
    assert children[0].children_seconds == pytest.approx(3.0)


def test_parents_recorded():
    profile = CallGraphProfile.from_gmon(chain_gmon())
    parents = profile.get("b").parents
    assert [p.name for p in parents] == ["a"]
    assert parents[0].calls == 4


def test_split_attribution_by_call_counts():
    """A child called from two parents splits its time proportionally."""
    data = GmonData()
    data.add_ticks("shared", 100)
    data.add_arc("p1", "shared", 3)
    data.add_arc("p2", "shared", 1)
    profile = CallGraphProfile.from_gmon(data)
    p1_share = [c for c in profile.get("p1").children if c.name == "shared"][0]
    p2_share = [c for c in profile.get("p2").children if c.name == "shared"][0]
    assert p1_share.self_seconds == pytest.approx(0.75)
    assert p2_share.self_seconds == pytest.approx(0.25)


def test_cycle_does_not_crash_and_reports_cycle_total():
    data = GmonData()
    data.add_ticks("x", 100)
    data.add_ticks("y", 100)
    data.add_arc("x", "y", 1)
    data.add_arc("y", "x", 1)
    profile = CallGraphProfile.from_gmon(data)
    assert profile.get("x").total_seconds == pytest.approx(2.0)
    assert profile.get("y").total_seconds == pytest.approx(2.0)


def test_self_recursion_ignored_in_propagation():
    data = GmonData()
    data.add_ticks("rec", 100)
    data.add_arc("rec", "rec", 50)
    profile = CallGraphProfile.from_gmon(data)
    assert profile.get("rec").total_seconds == pytest.approx(1.0)


def test_index_ordering_by_total_time():
    profile = CallGraphProfile.from_gmon(chain_gmon())
    assert profile.get("main").index == 1  # largest total


def test_render_contains_primary_lines():
    text = CallGraphProfile.from_gmon(chain_gmon()).render()
    assert "Call graph" in text
    assert "main [1]" in text


def test_spontaneous_not_an_entry():
    profile = CallGraphProfile.from_gmon(chain_gmon())
    assert SPONTANEOUS not in profile.entries


# ----------------------------------------------------------------------
# The SCC pass against a brute-force reference
# ----------------------------------------------------------------------
def reference_profile(data: GmonData) -> CallGraphProfile:
    """``from_gmon`` by brute force: a component is the set of functions
    each reachable from the other, and a component is processed once
    every callee outside it has its total.  Cycle members are summed in
    name order and out-arcs in ``data.arcs`` order, as ``from_gmon``
    does, so the two agree to the last bit."""
    out = {n: [] for n in data.functions() if n != SPONTANEOUS}
    calls_in = {}
    for (caller, callee), count in data.arcs.items():
        if caller == callee:
            continue
        calls_in[callee] = calls_in.get(callee, 0) + count
        if caller != SPONTANEOUS:
            out[caller].append((callee, count))
            out.setdefault(callee, [])

    def reachable(start):
        seen, todo = set(), [start]
        while todo:
            for callee, _ in out[todo.pop()]:
                if callee not in seen:
                    seen.add(callee)
                    todo.append(callee)
        return seen

    reach = {n: reachable(n) for n in out}
    pending = {frozenset({n} | {m for m in reach[n] if n in reach[m]}) for n in out}
    totals = {}
    while pending:
        ready = [c for c in pending
                 if all(callee in totals for m in c for callee, _ in out[m]
                        if callee not in c)]
        assert ready, "the components of a finite graph form a DAG"
        for component in ready:
            pending.discard(component)
            members = sorted(component)
            children = 0.0
            for m in members:
                for callee, count in out[m]:
                    if callee not in component:
                        children += totals[callee] * (count / max(1, calls_in[callee]))
            if len(members) == 1:
                totals[members[0]] = data.self_seconds(members[0]) + children
            else:
                total = sum(data.self_seconds(m) for m in members) + children
                totals.update((m, total) for m in members)

    entries = {}
    for idx, name in enumerate(sorted(totals, key=lambda n: (-totals[n], n)), start=1):
        self_s = data.self_seconds(name)
        entries[name] = CallGraphEntry(name, idx, self_s, max(0.0, totals[name] - self_s),
                                       calls_in.get(name, 0))
    for (caller, callee), count in sorted(data.arcs.items()):
        if caller == callee or callee not in entries:
            continue
        share = count / max(1, calls_in[callee])
        shares = (count, data.self_seconds(callee) * share,
                  entries[callee].children_seconds * share)
        if caller in entries:
            entries[caller].children.append(ArcShare(callee, *shares))
        entries[callee].parents.append(ArcShare(caller, *shares))
    return CallGraphProfile(entries, data.total_seconds())


NAMES = ["a", "b", "c", "d", "e", "f"]


@st.composite
def gmons(draw, acyclic=False):
    """Random gmons with cycles, self-arcs and ``<spontaneous>`` callers
    (or, with ``acyclic``, arcs only from earlier to later names)."""
    data = GmonData(sample_period=draw(st.sampled_from([0.01, 0.003, 1.0])))
    for name in draw(st.lists(st.sampled_from(NAMES), max_size=6)):
        data.add_ticks(name, draw(st.integers(0, 500)))
    callers = st.sampled_from(NAMES + [SPONTANEOUS])
    for caller, callee, count in draw(st.lists(
            st.tuples(callers, st.sampled_from(NAMES), st.integers(1, 50)),
            max_size=14)):
        if acyclic and caller != SPONTANEOUS and caller >= callee:
            continue
        data.add_arc(caller, callee, count)
    return data


def assert_same_profile(got: CallGraphProfile, want: CallGraphProfile) -> None:
    assert got.total_seconds == want.total_seconds
    assert list(got.entries) == list(want.entries)
    for name, entry in want.entries.items():
        assert got.entries[name] == entry
        assert got.entries[name].total_seconds == entry.total_seconds
    assert got.render() == want.render()


@settings(max_examples=200, deadline=None)
@given(gmons(acyclic=True))
def test_acyclic_profile_matches_reference(data):
    assert_same_profile(CallGraphProfile.from_gmon(data), reference_profile(data))


@settings(max_examples=300, deadline=None)
@given(gmons())
# A three-cycle whose self times sum to 0.6 in the pass's discovery
# order and to 0.6000000000000001 in name order.
@example(GmonData(hist={"a": 10, "b": 20, "c": 30},
                  arcs={("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1}))
def test_cyclic_profile_matches_reference(data):
    assert_same_profile(CallGraphProfile.from_gmon(data), reference_profile(data))


def test_components_come_out_sinks_first():
    graph = {"main": ["x", "leaf"], "x": ["y"], "y": ["x", "leaf"], "leaf": [],
             "lone": []}
    components = [sorted(c) for c in strongly_connected(graph)]
    assert sorted(map(tuple, components)) == [("leaf",), ("lone",), ("main",), ("x", "y")]
    position = {name: i for i, c in enumerate(components) for name in c}
    for caller, callees in graph.items():
        for callee in callees:
            assert position[callee] <= position[caller]


def test_deep_call_chain_stays_within_the_recursion_limit():
    depth = 5000
    data = GmonData()
    for i in range(depth):
        data.add_ticks(f"f{i:05d}", 1)
        data.add_arc(f"f{i:05d}", f"f{i + 1:05d}", 1)
    data.add_arc(f"f{depth:05d}", "f00000", 1)  # and one cycle through all of it
    profile = CallGraphProfile.from_gmon(data)
    assert profile.get("f00000").total_seconds == pytest.approx(depth * 0.01)
    assert profile.get(f"f{depth:05d}").total_seconds == profile.get("f00000").total_seconds
