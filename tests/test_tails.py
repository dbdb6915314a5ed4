"""The agreement rule between an integral's tail class and an ODE verdict."""

import pytest

from vertexreg import tails
from vertexreg.tails import Classification as C

# a class decides Regular or Irregular, or nothing; a verdict that is not
# Regular or Irregular decides nothing either
TABLE = {
    C.DIVERGENT: (True, False, None),
    C.DIVERGENT_TO_MINUS_INFINITY: (True, False, None),
    C.CONVERGENT: (False, True, None),
    C.BOUNDED: (False, True, None),
    C.UNDETERMINED: (None, None, None),
}


@pytest.mark.parametrize("cls", list(C))
@pytest.mark.parametrize("column, verdict",
                         enumerate(["Regular", "Irregular", "Inconclusive"]))
def test_consistent_truth_table(cls, column, verdict):
    assert tails.consistent(cls.value, verdict) is TABLE[cls][column]
