from __future__ import annotations

import hashlib
import types

import pytest

from pirates_treasure import model
from pirates_treasure.errors import ParseError, ValidationError
from pirates_treasure.model import (
    MAX_RANDOM_VERTICES,
    MAX_VERTICES,
    Graph,
    GridSpec,
    Instance,
    grid_graph,
    make_grid,
    parse_graph,
    parse_instance,
    random_instance,
    serialize_graph,
    serialize_instance,
    validate,
)

BOARD = """\
# a comment line
vertices 3
v 0 ship L
v 1 value 2   # trailing comment
v 2 ship R
e 0 1
e 1 2
"""


def test_parse_basic():
    inst = parse_instance(BOARD)
    assert inst.graph.vertex_count == 3
    assert inst.graph.edges == frozenset({(0, 1), (1, 2)})
    assert inst.weights == {1: 2}
    assert inst.pile_values == (0, 2, 0)  # 0 on both berths
    assert inst.left_starts == (0,)
    assert inst.right_starts == (2,)
    assert inst.initial_score == 0


def test_round_trip_is_byte_stable():
    inst = parse_instance(BOARD)
    text = serialize_instance(inst)
    assert serialize_instance(parse_instance(text)) == text


def test_serialize_orders_vertices_and_edges():
    inst = Instance(
        Graph.from_edges(3, [(2, 1), (1, 0)]), {1: 5}, left_starts=(2,), right_starts=(0,)
    )
    assert serialize_instance(inst) == (
        "vertices 3\nv 0 ship R\nv 1 value 5\nv 2 ship L\ne 0 1\ne 1 2\n"
    )


def test_score_line_round_trip():
    inst = Instance(Graph.from_edges(2, [(0, 1)]), {1: 1}, (0,), (), initial_score=-4)
    text = serialize_instance(inst)
    assert text.endswith("score -4\n")
    assert parse_instance(text).initial_score == -4


def test_zero_score_not_emitted():
    inst = parse_instance(BOARD)
    assert "score" not in serialize_instance(inst)


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("", 1),
        ("e 0 1", 1),
        ("vertices 2\nv 0 ship L\nv 1 ship X", 3),
        ("vertices 2\nv 0 frob 3", 2),
        ("vertices 2\nboop", 2),
        ("vertices 2\nv 0 value x", 2),
        ("vertices 1\nv 0 value 0\nscore 1\nscore 2", 4),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert f"line {line_no}" in str(err.value)


@pytest.mark.parametrize(
    "text",
    [
        "vertices 2\nv 0 ship L\nv 1 ship R\ne 0 0",
        "vertices 2\nv 0 ship L\nv 1 ship R\ne 0 5",
        "vertices 2\nv 0 ship L\nv 1 ship R\ne 0 1\ne 1 0",
        "vertices 2\nv 0 ship L\nv 0 ship R",
        "vertices 2\nv 0 ship L",
        "vertices 3\nv 0 ship L\nv 1 value 1\nv 5 value 2",
    ],
)
def test_bad_boards_rejected(text):
    with pytest.raises(ValidationError):
        parse_instance(text)


def test_parse_graph_ignores_roles():
    g = parse_graph(BOARD)
    assert g.vertex_count == 3
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert serialize_graph(g) == "vertices 3\ne 0 1\ne 1 2\n"


def test_vertex_count_is_capped_at_parse_time():
    assert MAX_VERTICES == 100_000
    assert parse_graph("vertices 100000").vertex_count == 100_000
    with pytest.raises(ValidationError) as exc:
        parse_graph("vertices 100001\ne 0 1\n")
    assert str(exc.value) == "100001 vertices, more than the 100000 allowed"


def test_validate_warns_on_negative_values():
    inst = Instance(Graph.from_edges(2, [(0, 1)]), {1: -2}, (0,), ())
    warnings = validate(inst)
    assert len(warnings) == 1
    assert "negative" in warnings[0]


def test_validate_rejects_weighted_berth():
    inst = Instance(Graph.from_edges(2, [(0, 1)]), {0: 3, 1: 1}, (0,), ())
    with pytest.raises(ValidationError):
        validate(inst)


def test_validate_rejects_shared_berth():
    inst = Instance(Graph.from_edges(2, [(0, 1)]), {1: 1}, (0,), (0,))
    with pytest.raises(ValidationError):
        validate(inst)


def test_graph_rejects_self_loop_and_bad_range():
    with pytest.raises(ValidationError):
        Graph(2, frozenset({(1, 1)}))
    with pytest.raises(ValidationError):
        Graph(2, frozenset({(0, 3)}))
    with pytest.raises(ValidationError):
        Graph(2, frozenset({(1, 0)}))  # unnormalized; use from_edges


def test_adjacency_and_connectivity():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert g.adjacency_bits[1] == 0b101
    assert not g.is_connected()
    assert Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]).is_connected()
    assert Graph(1, frozenset()).is_connected()
    assert Graph(0, frozenset()).is_connected()


def test_instance_normalizes_ship_order():
    inst = Instance(Graph.from_edges(3, [(0, 1), (1, 2)]), {}, (2, 0), (1,))
    assert inst.left_starts == (0, 2)
    assert inst.start_vertices == frozenset({0, 1, 2})
    assert inst.weight_of(0) == 0


def test_total_positive_weight_ignores_negatives():
    inst = Instance(Graph.from_edges(3, [(0, 1), (1, 2)]), {1: 4, 2: -7}, (0,), ())
    assert inst.total_positive_weight() == 4


def test_grid_spec_vertex_ids():
    spec = GridSpec(cols=3, rows=2)
    assert spec.vertex_id(1, 1) == 0
    assert spec.vertex_id(3, 1) == 2
    assert spec.vertex_id(1, 2) == 3
    assert spec.vertex_id(3, 2) == 5
    with pytest.raises(ValidationError):
        spec.vertex_id(4, 1)


def test_grid_graph_edge_count():
    g = grid_graph(4, 3)
    assert g.vertex_count == 12
    # horizontal: 3 per row * 3 rows, vertical: 4 per column gap * 2 gaps
    assert len(g.edges) == 9 + 8
    assert g.is_connected()


def test_make_grid_places_ships():
    inst = make_grid(GridSpec(2, 2, value=3), [(1, 1)], [(2, 2)])
    assert inst.left_starts == (0,)
    assert inst.right_starts == (3,)
    assert inst.weights == {1: 3, 2: 3}
    with pytest.raises(ValidationError):
        make_grid(GridSpec(2, 2), [(1, 1)], [(1, 1)])


def test_random_instance_deterministic():
    kwargs = dict(
        vertex_count=8,
        edge_probability=0.5,
        weight_range=(-2, 5),
        left_ships=2,
        right_ships=1,
        seed=42,
    )
    a = random_instance(**kwargs)
    b = random_instance(**kwargs)
    assert serialize_instance(a) == serialize_instance(b)
    c = random_instance(**{**kwargs, "seed": 43})
    assert serialize_instance(a) != serialize_instance(c)
    assert len(a.left_starts) == 2 and len(a.right_starts) == 1


def test_random_instance_rejects_bad_args():
    with pytest.raises(ValidationError):
        random_instance(2, 0.5, (1, 2), 2, 1, seed=0)
    with pytest.raises(ValidationError):
        random_instance(4, 0.5, (3, 1), 1, 1, seed=0)
    # Random(-1) draws what Random(1) draws
    with pytest.raises(ValidationError, match=r"^seed must be at least 0, got -1$"):
        random_instance(7, 0.5, (1, 5), 1, 1, seed=-1)


def test_random_instance_refuses_a_negative_vertex_count_first():
    # with no ships on the board, "more ships than vertices" names the wrong fault
    for left, right in ((0, 0), (1, 1)):
        with pytest.raises(ValidationError) as exc:
            random_instance(-3, 0.5, (1, 2), left, right, seed=0)
        assert str(exc.value) == "vertex count must be non-negative, got -3"
    assert random_instance(0, 0.5, (1, 2), 0, 0, seed=0).graph.vertex_count == 0


#: The boards of :func:`test_random_instance_draws_the_recorded_boards`.
RANDOM_DIGEST = "ecfa780f7db720ae055f19197e0b01a40f4e1448a9199b729554ab042d0e7cd5"


def test_random_instance_draws_the_recorded_boards():
    # random_instance reads Random.sample and randint, whose algorithms
    # Python does not pin across releases.  Two berths are sampled from a
    # pool up to 21 vertices and from a set above; six ships from a pool up
    # to 85 vertices, eight from a set above.
    texts = [
        serialize_instance(random_instance(n, p, weights, left, right, seed))
        for n, left, right in (
            (2, 1, 1), (7, 2, 1), (21, 1, 1), (22, 1, 1), (40, 3, 3), (90, 4, 4)
        )
        for p in (0.0, 0.3, 1.0)
        for weights in ((1, 4), (-3, 3))
        for seed in range(3)
    ]
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == RANDOM_DIGEST


def test_random_instance_refuses_a_board_past_its_cap_before_drawing(monkeypatch):
    # one draw per vertex pair: past the cap the time and memory run away
    assert MAX_RANDOM_VERTICES == 1000
    assert random_instance(1000, 0.0, (1, 2), 1, 1, seed=0).graph.vertex_count == 1000
    monkeypatch.setattr(model, "random", types.SimpleNamespace(Random=None))
    for n in (1001, 100_000):
        with pytest.raises(ValidationError) as exc:
            random_instance(n, 1.0, (1, 2), 1, 1, seed=0)
        assert str(exc.value) == f"{n} vertices, more than the 1000 a random board may have"


def test_missing_vertex_list_is_cut_short():
    with pytest.raises(ValidationError) as exc:
        parse_instance("vertices 200000")
    message = str(exc.value)
    assert len(message) < 200
    assert "[0, 1, 2" in message and "200000 in all" in message


def test_missing_vertex_message_names_the_first_eight_and_the_count():
    with pytest.raises(ValidationError) as exc:
        parse_instance("vertices 30000000\n")
    assert str(exc.value) == (
        "no 'v' line for vertices [0, 1, 2, 3, 4, 5, 6, 7, ...] (30000000 in all)"
    )
    with pytest.raises(ValidationError) as exc:
        parse_instance("vertices 12\nv 0 ship L\nv 3 ship R\nv 5 value 2\ne 0 3\n")
    assert str(exc.value) == "no 'v' line for vertices [1, 2, 4, 6, 7, 8, 9, 10, ...] (9 in all)"


def test_short_missing_vertex_list_stays_whole():
    with pytest.raises(ValidationError, match=r"no 'v' line for vertices \[1, 2\]$"):
        parse_instance("vertices 3\nv 0 ship L\n")


def test_negative_values_warning_is_cut_short():
    n = 5000
    inst = Instance(Graph(n, frozenset()), {v: -1 for v in range(1, n)}, (0,), ())
    (warning,) = validate(inst)
    assert len(warning) < 200
    assert f"{n - 1} in all" in warning
