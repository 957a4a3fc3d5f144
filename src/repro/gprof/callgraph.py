"""The gprof call-graph profile.

gprof's second table attributes each function's time to its callers by
propagating child time up call arcs in proportion to call counts.  The
paper's published analysis uses only the flat profile, but explicitly
mentions ongoing work with the call-graph data; we implement it both for
fidelity of the substrate and for the call-graph ablation bench.

Cycles are handled the way gprof does conceptually: strongly connected
components are collapsed and treated as a unit for propagation.  They
come from an iterative Tarjan pass (:func:`strongly_connected`), whose
sinks-first order is the bottom-up order propagation needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.gprof.gmon import SPONTANEOUS, GmonData


@dataclass(frozen=True)
class ArcShare:
    """A caller's or callee's share of a function's propagated time."""

    name: str
    calls: int
    self_seconds: float
    children_seconds: float


@dataclass
class CallGraphEntry:
    """One primary line of the call-graph profile."""

    name: str
    index: int
    self_seconds: float
    children_seconds: float
    calls: int
    parents: List[ArcShare] = field(default_factory=list)
    children: List[ArcShare] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.self_seconds + self.children_seconds


class CallGraphProfile:
    """Call-graph profile computed from gmon arcs and histogram."""

    def __init__(self, entries: Dict[str, CallGraphEntry], total_seconds: float) -> None:
        self.entries = entries
        self.total_seconds = total_seconds

    @classmethod
    def from_gmon(cls, data: GmonData) -> "CallGraphProfile":
        # Out-arcs per function, in ``data.arcs`` order: the propagation
        # sums below add callee shares in that order.
        out_arcs: Dict[str, List[Tuple[str, int]]] = {
            name: [] for name in data.functions() if name != SPONTANEOUS}
        calls_in: Dict[str, int] = {}
        for (caller, callee), count in data.arcs.items():
            if caller == callee:
                continue
            calls_in[callee] = calls_in.get(callee, 0) + count
            if caller != SPONTANEOUS:
                out_arcs[caller].append((callee, count))
                out_arcs.setdefault(callee, [])

        # Propagate total time bottom-up over the components (gprof's
        # "time propagation" step): total(f) = self(f) + sum over callees
        # of total(callee) * (calls f->callee / total calls into callee).
        # Components arrive callees first, so every callee outside the
        # component already has its total.
        totals: Dict[str, float] = {}
        successors = {name: [callee for callee, _ in arcs]
                      for name, arcs in out_arcs.items()}
        for component in strongly_connected(successors):
            members = sorted(component)
            inside = set(members)
            scc_children = 0.0
            for member in members:
                for callee, count in out_arcs[member]:
                    if callee in inside:
                        continue  # intra-cycle arcs don't propagate
                    share = count / max(1, calls_in.get(callee, count))
                    scc_children += totals[callee] * share
            if len(members) == 1:
                totals[members[0]] = data.self_seconds(members[0]) + scc_children
                continue
            # Within a cycle gprof reports the cycle total on each member.
            scc_total = sum(data.self_seconds(m) for m in members) + scc_children
            for member in members:
                totals[member] = scc_total

        entries: Dict[str, CallGraphEntry] = {}
        order = sorted(totals, key=lambda n: (-totals[n], n))
        for idx, name in enumerate(order, start=1):
            self_s = data.self_seconds(name)
            entry = CallGraphEntry(
                name=name,
                index=idx,
                self_seconds=self_s,
                children_seconds=max(0.0, totals[name] - self_s),
                calls=calls_in.get(name, 0),
            )
            entries[name] = entry

        for (caller, callee), count in sorted(data.arcs.items()):
            if caller == callee:
                continue
            child = entries.get(callee)
            if child is None:
                continue
            share = count / max(1, calls_in.get(callee, count))
            child_self = data.self_seconds(callee) * share
            child_children = entries[callee].children_seconds * share
            if caller != SPONTANEOUS and caller in entries:
                entries[caller].children.append(
                    ArcShare(callee, count, child_self, child_children)
                )
            child.parents.append(ArcShare(caller, count, child_self, child_children))

        return cls(entries, data.total_seconds())

    # ------------------------------------------------------------------
    def get(self, name: str) -> CallGraphEntry:
        return self.entries[name]

    def render(self) -> str:
        """Render a gprof-style call-graph section."""
        lines = [
            "                     Call graph",
            "",
            "index % time    self  children    called     name",
        ]
        total = self.total_seconds or 1.0
        for entry in sorted(self.entries.values(), key=lambda e: e.index):
            for parent in entry.parents:
                lines.append(
                    f"            {parent.self_seconds:8.2f} {parent.children_seconds:8.2f} "
                    f"{parent.calls:10d}/{entry.calls:<10d}    {parent.name}"
                )
            pct = 100.0 * entry.total_seconds / total
            lines.append(
                f"[{entry.index}] {pct:6.1f} {entry.self_seconds:8.2f} "
                f"{entry.children_seconds:8.2f} {entry.calls:10d}         {entry.name} [{entry.index}]"
            )
            for child in entry.children:
                callee_calls = self.entries[child.name].calls
                lines.append(
                    f"            {child.self_seconds:8.2f} {child.children_seconds:8.2f} "
                    f"{child.calls:10d}/{callee_calls:<10d}    {child.name}"
                )
            lines.append("-" * 70)
        return "\n".join(lines) + "\n"


def strongly_connected(successors: Mapping[str, Iterable[str]]) -> List[List[str]]:
    """Strongly connected components of a directed graph, sinks first.

    ``successors`` maps every node to the nodes it has arcs into.  This
    is Tarjan's algorithm with an explicit stack, so call chains of any
    depth stay within Python's recursion limit.  A component comes out
    only after every component it has an arc into.
    """
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    stack: List[str] = []
    on_stack = set()
    components: List[List[str]] = []
    for root in successors:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors[root]))]
        while work:
            node, pending = work[-1]
            for child in pending:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(successors[child])))
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components
