import os

import pytest
from hypothesis import settings

from popmatch.model import Matching, RoommatesInstance

# HYPOTHESIS_PROFILE=ci draws the same examples on every run and keeps no
# example database, so a hypothesis test cannot pass or fail by chance in CI.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# Two triangles {a,b,c} and {d,e,f} bridged by c-d, with pendant g on d
# and pendant h on f.  The tested matching {ab, cd, ef} loses: its three
# blocking edges ac, de, df feed an augmenting structure.
TWO_TRIANGLES_PENDANTS = RoommatesInstance(
    ((2, 1), (0, 2), (1, 0, 3), (4, 5, 2, 6), (3, 5), (3, 4, 7), (3,), (5,))
)
TWO_TRIANGLES_PENDANTS_M = Matching.from_pairs(
    TWO_TRIANGLES_PENDANTS, [(0, 1), (2, 3), (4, 5)]
)

# Triangle {a,b,c} with pendant d on c.  {ab, cd} is popular but a
# half-integral matching putting the triangle on half values wins.
TRIANGLE_PENDANT = RoommatesInstance(((2, 1), (2, 0), (0, 1, 3), (2,)))
TRIANGLE_PENDANT_M = Matching.from_pairs(TRIANGLE_PENDANT, [(0, 1), (2, 3)])

# Two triangles bridged by c-d, no pendants.  {ab, cd, ef} is popular;
# the alternating path a-c-d into the triangle {d,e,f} defeats it
# fractionally.
TWO_TRIANGLES = RoommatesInstance(
    ((2, 1), (0, 2), (1, 0, 3), (2, 4, 5), (3, 5), (3, 4))
)
TWO_TRIANGLES_M = Matching.from_pairs(TWO_TRIANGLES, [(0, 1), (2, 3), (4, 5)])

# Four-cycle where everyone prefers the two edges outside the matching.
SWAP_SQUARE = RoommatesInstance(((1, 3), (2, 0), (1, 3), (0, 2)))
SWAP_SQUARE_M = Matching.from_pairs(SWAP_SQUARE, [(0, 1), (2, 3)])


@pytest.fixture
def two_triangles_pendants():
    return TWO_TRIANGLES_PENDANTS, TWO_TRIANGLES_PENDANTS_M


@pytest.fixture
def triangle_pendant():
    return TRIANGLE_PENDANT, TRIANGLE_PENDANT_M


@pytest.fixture
def two_triangles():
    return TWO_TRIANGLES, TWO_TRIANGLES_M


@pytest.fixture
def swap_square():
    return SWAP_SQUARE, SWAP_SQUARE_M
