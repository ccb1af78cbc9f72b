"""Fractional popularity verdicts against a linear program, above the
brute-force oracle cap.

Weigh each edge uv by the votes of u and v for uv against M plus one for
each of u, v that M matches.  A fractional matching x (x >= 0, at most 1
at each node, the rest of a node parked on its loop) then beats M by its
weight minus 2|M|.  The polytope has half-integral vertices (Balinski
1965), so its maximum is reached by a half-integral matching, and M is
fractional popular exactly when the LP maximum is at most 2|M|.  scipy's
HiGHS solver is independent of popmatch's blossom search.
"""

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from conftest import TRIANGLE_PENDANT, TRIANGLE_PENDANT_M, TWO_TRIANGLES, TWO_TRIANGLES_M
from helpers import analysis_cases, gadget_cases
from popmatch.fractional import is_fractional_popular


def _lp_excess_times_two(inst, m) -> int:
    """Twice the LP maximum of the vote balance of a fractional matching against m."""
    partner = m.partner

    def vote(u, v):  # u's vote for v against its partner; unmatched ranks last
        p = partner[u]
        mine = len(inst.pref[u]) if p is None else inst.rank[u][p]
        return (inst.rank[u][v] < mine) - (mine < inst.rank[u][v])

    edges = sorted(inst.edges)
    if not edges:
        return 0
    weight = [
        vote(u, v) + vote(v, u) + (partner[u] is not None) + (partner[v] is not None)
        for u, v in edges
    ]
    ends = np.array(edges).ravel()
    cols = np.repeat(np.arange(len(edges)), 2)
    at_most_one = coo_matrix((np.ones(len(ends)), (ends, cols)), shape=(inst.n, len(edges)))
    res = linprog(-np.array(weight), A_ub=at_most_one, b_ub=np.ones(inst.n), method="highs")
    assert res.status == 0
    # vertices are half-integral, so twice the optimum is an integer
    return round(-2 * res.fun) - 4 * m.size()


def test_fractional_verdicts_agree_with_the_lp():
    gadgets = [(TRIANGLE_PENDANT, TRIANGLE_PENDANT_M), (TWO_TRIANGLES, TWO_TRIANGLES_M)]
    popular = not_popular = 0
    for inst, m in list(analysis_cases()) + list(gadget_cases(60, 12, gadgets)):
        excess2 = _lp_excess_times_two(inst, m)
        res = is_fractional_popular(inst, m)
        assert res.popular == (excess2 <= 0)
        if res.popular:
            popular += 1
        else:
            not_popular += 1
            assert 1 <= res.value_times_two <= excess2
    assert popular >= 50 and not_popular >= 100
