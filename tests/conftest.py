"""Helpers shared by several test modules."""

import numpy as np
import pytest

from bellsim import gates


@pytest.fixture
def singular_h2():
    """h2 with the sign of entry (0, 1) flipped: rows 0 and 2 coincide, so the
    matrix is singular and the CNOT factorization cannot close."""
    m = gates.h2()
    m[0, 1] = -1.0 / np.sqrt(2.0)
    return m
