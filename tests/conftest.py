import os

import pytest
from hypothesis import settings

from popmatch.model import Matching, RoommatesInstance

# HYPOTHESIS_PROFILE=ci draws the same examples on every run and keeps no
# example database, so a hypothesis test cannot pass or fail by chance in CI.
# HYPOTHESIS_PROFILE=deep is ci with DEEP_EXAMPLES examples per hypothesis
# test, also for a test whose @settings names fewer; CI runs the parser
# tests under it.
DEEP_EXAMPLES = 2000
settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile("deep", settings.get_profile("ci"), max_examples=DEEP_EXAMPLES)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "default")
settings.load_profile(PROFILE)


def pytest_collection_modifyitems(items):
    if PROFILE != "deep":
        return
    for item in items:
        test = getattr(item, "obj", None)
        if not hasattr(test, "hypothesis"):  # not a @given test
            continue
        # a test's own settings outrank the profile; hypothesis reads them
        # from this attribute when the test runs
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is None:
            raise pytest.UsageError(f"cannot raise the examples of {item.nodeid}")
        if own.max_examples < DEEP_EXAMPLES:
            test._hypothesis_internal_use_settings = settings(own, max_examples=DEEP_EXAMPLES)


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
