"""Distinguishing contexts: telling non-identical games apart by summing.

Score-preserving play admits no nonzero game that sums invisibly: any
board with a Left ship is exposed by one overwhelming context.  The
context built here is a single edge holding a Right ship next to a pile
worth more than everything Left could ever collect; Left's forced opening
move elsewhere lets Right cash it, driving the Left-moving-first result
negative while the context alone ends level.
"""

from __future__ import annotations

from ..errors import ValidationError
from ..model import Graph, Instance
from ..solver import DEFAULT_NODE_BUDGET, classify, final_scores


def distinguishing_context(g_inst: Instance) -> Instance:
    """The overweight edge that separates ``g_inst`` from the empty game.

    The pile is worth one more than the sum of the positive piles of
    ``g_inst``.  Requires at least one Left ship; the construction leans
    on Left having to move somewhere on the board.
    """
    if not g_inst.left_starts:
        raise ValidationError("needs a Left ship on the board to distinguish")
    bait = 1 + g_inst.total_positive_weight()
    return Instance(
        Graph.from_edges(2, [(0, 1)]),
        weights={1: bait},
        left_starts=(),
        right_starts=(0,),
    )


def distinguish(
    g: Instance,
    h: Instance,
    pool: list[Instance],
    budget: int = DEFAULT_NODE_BUDGET,
):
    """First context from ``pool`` giving ``g`` and ``h`` different classes.

    Returns that context, or None when the pool cannot tell them apart.
    A None is only a failure to refute: equality over every context is not
    decidable by finite search.
    """
    for context in pool:
        g_class = classify(final_scores(g, context, budget=budget))
        h_class = classify(final_scores(h, context, budget=budget))
        if g_class != h_class:
            return context
    return None
