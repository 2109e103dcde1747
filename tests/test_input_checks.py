"""Input checks of the library functions that the CLI never reaches, one
case each: the check must answer as documented and name what is wrong."""

import pytest

from medianlab.consensus import TabulatedConsensus, check_axiom, tabulate_median
from medianlab.errors import FormatError, InputError
from medianlab.formats import table_from_text
from medianlab.graph import complete, cycle
from medianlab.hypergraphs import Hypergraph
from medianlab.pairing import (
    auxiliary_graph,
    has_perfect_pi_matching,
    matching_stable_set_check,
    perfect_b_matching,
)
from medianlab.profiles import Profile
from medianlab.rational_lp import RationalLinearSystem


@pytest.mark.parametrize("call, error, message", [
    # an odd total demand has no perfect b-matching: a "no", not an error
    (lambda: perfect_b_matching(2, [(0, 1)], {0: 1, 1: 2}), None, None),
    (lambda: has_perfect_pi_matching(auxiliary_graph(cycle(4), 0), Profile.parse("1")),
     InputError, "even total"),
    (lambda: matching_stable_set_check(cycle(4), "triple"), InputError, "unknown variant"),
    (lambda: Profile(((1, 1), (0, 1))), InputError, "sorted"),
    (lambda: Profile(((0, 0),)), InputError, "must be positive"),
    (lambda: Profile.from_counts({0: 2, 1: -1}), InputError, "nonnegative"),
    (lambda: Profile.parse("0 1").power(0), InputError, ">= 1"),
    (lambda: table_from_text(cycle(4), "3 1\n0 | 0\n1 | 1\n2 | 2\n"), FormatError,
     "3 vertices, graph has 4"),
    (lambda: RationalLinearSystem(1).add([1], "<>", 0), InputError, "sense"),
    (lambda: TabulatedConsensus(complete(2), 1, {(0,): {0}, (1, 0): {0}}), InputError,
     "bad profile key"),
    (lambda: TabulatedConsensus(complete(2), 1, {(0,): frozenset(), (1,): {1}}), InputError,
     "empty value"),
    (lambda: check_axiom(tabulate_median(complete(2), 2), "D"), InputError, "unknown axiom"),
    (lambda: Hypergraph(2, (frozenset({0}), frozenset())), InputError, "nonempty"),
])
def test_input_checks(call, error, message):
    if error is None:
        assert call() is None
        return
    with pytest.raises(error, match=message):
        call()
