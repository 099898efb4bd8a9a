"""Path decomposition validation, nice normal form, and labelling."""

import pytest

from redkit.errors import ValidationError
from redkit.families import graphs_upto, named_graph
from redkit.pathdecomp import check_path_decomposition, greedy_labels, \
    make_nice, width

P4 = (4, ((0, 1), (1, 2), (2, 3)), ((0, 1), (1, 2), (2, 3)))
C5 = (5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)),
      ((0, 1, 2), (0, 2, 3), (0, 3, 4)))


def test_valid_decompositions():
    assert check_path_decomposition(*P4) == []
    assert check_path_decomposition(*C5) == []
    assert check_path_decomposition(0, (), ()) == []


def test_violations_are_reported():
    # uncovered vertex, uncovered edge, non-contiguous occurrence
    assert check_path_decomposition(3, (), ((0, 1),))
    assert check_path_decomposition(3, ((0, 2),), ((0, 1), (1, 2)))
    assert check_path_decomposition(3, (), ((0,), (1,), (0, 2)))
    assert check_path_decomposition(2, (), ((0, 5),))


def test_uncovered_vertices_are_named_up_to_a_cap():
    # past _NAMED_UNCOVERED they are counted, so no check walks every vertex
    # of a huge vertex count
    got = check_path_decomposition(25, (), ((3, 4),))
    assert got[:3] == ["vertex 0 in no bag", "vertex 1 in no bag",
                       "vertex 2 in no bag"]
    assert got[3] == "vertex 5 in no bag"
    assert got[19:] == ["vertex 21 in no bag", "3 more vertices in no bag"]


def test_width():
    assert width(()) == -1
    assert width(((0,),)) == 0
    assert width(P4[2]) == 1
    assert width(C5[2]) == 2


def test_make_nice_structure():
    bags, commands = make_nice(*C5)
    assert bags[0] == frozenset() and bags[-1] == frozenset()
    for a, b in zip(bags, bags[1:]):
        assert len(a.symmetric_difference(b)) == 1
    assert max(len(b) for b in bags) - 1 <= width(C5[2])
    intro = [c[1] for c in commands if c[0] == "introduce"]
    forgot = [c[1] for c in commands if c[0] == "forget"]
    assert sorted(intro) == sorted(forgot) == list(range(5))
    edges = {(min(u, v), max(u, v))
             for c, u, v in [c for c in commands if c[0] == "edge"]}
    assert edges == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}


def test_make_nice_ends_on_an_empty_bag():
    # the coloring DP relies on it: its last layer then holds only the
    # empty assignment whenever it is nonempty
    graphs = [*graphs_upto(5), *map(named_graph, ("k3", "k4", "c5", "p4"))]
    for g in graphs:
        bags, _ = make_nice(g.num_vertices, g.edges, g.bags)
        assert bags[-1] == frozenset(), g
    assert len(graphs) == 1 + 1 + 2 + 8 + 64 + 1024 + 4


def test_make_nice_edges_have_live_endpoints():
    _, commands = make_nice(*C5)
    live = set()
    for cmd in commands:
        if cmd[0] == "introduce":
            live.add(cmd[1])
        elif cmd[0] == "forget":
            live.remove(cmd[1])
        else:
            assert cmd[1] in live and cmd[2] in live


def test_make_nice_rejects_invalid():
    with pytest.raises(ValidationError):
        make_nice(3, ((0, 2),), ((0, 1), (1, 2)))


def test_greedy_labels_distinct_within_bags():
    for n, edges, bags in (P4, C5):
        _, commands = make_nice(n, edges, bags)
        labels = greedy_labels(commands, width(bags))
        assert set(labels) == set(range(n))
        assert all(1 <= lab <= width(bags) + 1 for lab in labels.values())
        live = set()
        for cmd in commands:
            if cmd[0] == "introduce":
                assert labels[cmd[1]] not in {labels[u] for u in live}
                live.add(cmd[1])
            elif cmd[0] == "forget":
                live.remove(cmd[1])
