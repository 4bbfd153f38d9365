import sys
from pathlib import Path

import numpy as np
import pytest

# make the shared oracles module importable from any working directory
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def conjugated_w_minus(monkeypatch):
    """Make ``entdist verify`` read qubit 0's w_minus conjugated.

    A planted defect: it flips the sign of qubit 0's Bloch y component,
    which the Bloch check must catch whenever that component is not 0.
    """
    import entdist.verify as verify

    w_vectors = verify.w_vectors

    def conjugated(state):
        w_minus, w_3 = w_vectors(state)
        w_minus[0] = np.conj(w_minus[0])
        return w_minus, w_3

    monkeypatch.setattr(verify, "w_vectors", conjugated)
