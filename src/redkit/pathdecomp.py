"""Path decompositions: validation, the nice normal form, and label assignment.

A decomposition is a sequence of bags (vertex sets).  The nice normal form
replays it as a command stream -- ``("introduce", v)``, ``("forget", v)``,
``("edge", u, v)`` -- in which every vertex is introduced exactly once,
forgotten exactly once afterwards, and every edge is emitted at a point where
both endpoints are live.
"""

from __future__ import annotations

from itertools import islice

from .errors import ValidationError

Command = tuple

# Vertices in no bag that are named one by one; the rest are counted, so a
# huge vertex count costs no more to check than the bags themselves.
_NAMED_UNCOVERED = 20


def check_path_decomposition(n: int, edges, bags) -> list[str]:
    """Return the list of axiom violations (empty means valid)."""
    problems = []
    bags = [frozenset(b) for b in bags]
    for b in bags:
        for v in b:
            if not 0 <= v < n:
                problems.append(f"bag vertex {v} out of range")
    covered = set().union(*bags) if bags else set()
    present = sorted(v for v in covered if 0 <= v < n)
    uncovered = (v for v in range(n) if v not in covered)
    for v in islice(uncovered, _NAMED_UNCOVERED):
        problems.append(f"vertex {v} in no bag")
    unnamed = n - len(present) - _NAMED_UNCOVERED
    if unnamed > 0:
        problems.append(f"{unnamed} more vertices in no bag")
    for u, v in edges:
        if not any(u in b and v in b for b in bags):
            problems.append(f"edge ({u},{v}) covered by no bag")
    for v in present:
        hits = [i for i, b in enumerate(bags) if v in b]
        if hits and hits != list(range(hits[0], hits[-1] + 1)):
            problems.append(f"vertex {v} appears in non-contiguous bags")
    return problems


def width(bags) -> int:
    """Width of a decomposition; -1 for an empty bag list."""
    return max((len(b) for b in bags), default=0) - 1


def make_nice(n: int, edges, bags) -> tuple[tuple[frozenset, ...], tuple[Command, ...]]:
    """Nice form of a valid decomposition: (bag sequence, command stream).

    The returned bags start and end empty and consecutive bags differ by one
    vertex; the width never increases.  Between original bags we first forget
    the departing vertices (most recently introduced first), then introduce
    the arriving ones in sorted order; each edge command is emitted right
    after the introduction that makes both endpoints live.
    """
    problems = check_path_decomposition(n, edges, bags)
    if problems:
        raise ValidationError("; ".join(problems))

    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    pending: dict[int, list[int]] = {}
    for u, v in edge_set:
        pending.setdefault(u, []).append(v)
        pending.setdefault(v, []).append(u)

    nice: list[frozenset] = [frozenset()]
    commands: list[Command] = []
    live: list[int] = []  # introduction order, for LIFO forgets
    emitted = set()

    def forget(v):
        live.remove(v)
        nice.append(frozenset(live))
        commands.append(("forget", v))

    def introduce(v):
        live.append(v)
        nice.append(frozenset(live))
        commands.append(("introduce", v))
        for u in sorted(pending.get(v, ())):
            key = (min(u, v), max(u, v))
            if u in live and key not in emitted:
                emitted.add(key)
                commands.append(("edge", u, v))

    for bag in [frozenset(b) for b in bags] + [frozenset()]:
        for v in [v for v in reversed(live) if v not in bag]:
            forget(v)
        for v in sorted(bag - set(live)):
            introduce(v)

    if emitted != edge_set:
        raise ValidationError("decomposition does not cover every edge")
    return tuple(nice), tuple(commands)


def greedy_labels(commands, width: int) -> dict[int, int]:
    """Assign labels in 1..width+1 so that live vertices have distinct labels.

    Scans the command stream once and gives each introduced vertex the
    smallest label unused in the current bag.  Labels are fixed for good at
    introduction time.
    """
    labels: dict[int, int] = {}
    live: set[int] = set()
    for cmd in commands:
        if cmd[0] == "introduce":
            v = cmd[1]
            used = {labels[u] for u in live}
            for cand in range(1, width + 2):
                if cand not in used:
                    labels[v] = cand
                    break
            else:
                raise ValidationError("bag larger than width+1 during labelling")
            live.add(v)
        elif cmd[0] == "forget":
            live.discard(cmd[1])
    return labels
