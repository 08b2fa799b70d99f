"""The breadth-first core shared by the rule explorers
(``tests/ha_explorer.py``, ``tests/write_explorer.py``).

A model supplies four things — ``initial()``, ``events(state)``,
``step(state, event) -> (child or None, violated invariants)`` and
``name(event)`` — over hashable states. :func:`explore` visits every
state reachable in ``depth`` events, once each, and keeps a parent map,
so the first trace it finds for an invariant is a shortest one. A model
calls its rule functions through :func:`bind_rules`, which lets a test
swap any of them, by name, for a mutant. Standard library only.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple


class Result(NamedTuple):
    states: int
    depth: int
    elapsed: float
    #: Shortest trace per violated invariant.
    counterexamples: Dict[str, List[str]]


def bind_rules(
    modules: Sequence[Any], names: Iterable[str], overrides: Dict[str, Callable[..., Any]]
) -> Dict[str, Callable[..., Any]]:
    """The rule functions a model calls, by name: each from the first of
    ``modules`` that defines it, unless ``overrides`` replaces it."""
    names = tuple(names)
    unknown = set(overrides) - set(names)
    if unknown:
        raise ValueError(f"no such rule: {sorted(unknown)}")
    return {
        name: overrides.get(name) or next(getattr(m, name) for m in modules if hasattr(m, name))
        for name in names
    }


def explore(model: Any, depth: int, stop_at: Optional[str] = None) -> Result:
    """Every state of ``model`` reachable in ``depth`` events, breadth
    first; the first trace found per violated invariant is a shortest
    one. With ``stop_at`` the search ends at the first violation of that
    invariant."""
    started = time.monotonic()
    initial = model.initial()
    parents: Dict[Any, Optional[Tuple[Any, Any]]] = {initial: None}
    frontier = [initial]
    counterexamples: Dict[str, List[str]] = {}
    reached = 0

    def trace(state: Any, last: Any) -> List[str]:
        events = [last]
        while parents[state] is not None:
            state, event = parents[state]
            events.append(event)
        return [model.name(event) for event in reversed(events)]

    for level in range(1, depth + 1):
        next_frontier = []
        for state in frontier:
            for event in model.events(state):
                child, violations = model.step(state, event)
                for invariant in violations:
                    if invariant not in counterexamples:
                        counterexamples[invariant] = trace(state, event)
                        if invariant == stop_at:
                            return Result(len(parents), level, time.monotonic() - started, counterexamples)
                if child is not None and child not in parents:
                    parents[child] = (state, event)
                    next_frontier.append(child)
        if not next_frontier:
            break
        frontier = next_frontier
        reached = level
    return Result(len(parents), reached, time.monotonic() - started, counterexamples)


def report(result: Result, invariants: Sequence[str]) -> int:
    """Print what :func:`explore` found, one line per invariant; the exit
    status is 1 when any was violated."""
    print(f"explored {result.states} states to depth {result.depth} in {result.elapsed:.1f} s")
    for invariant in invariants:
        found = result.counterexamples.get(invariant)
        print(f"{invariant}: " + ("holds" if found is None else "violated by: " + ", ".join(found)))
    return 1 if result.counterexamples else 0
