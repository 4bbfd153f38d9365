"""One rule per kernel input: ``row_view`` for states, ``validate_directions`` for fields.

Every entry that takes a state array, ``validate_amplitudes``,
``bilinears`` and ``metric_matrices``, reads M and the row layout from
``row_view`` alone: the last axis must hold 2**M amplitudes, 1 <= M <=
MAX_QUBITS, and any other shape is refused with a ValueError that names
it.  The rows are C-contiguous complex128, of the input itself when it
has that layout, so a state of any batch layout gets the bits it gets
alone.  ``metric_matrices`` checks its field, one state's or a batch's,
by ``validate_directions``: a float array of shape (..., M, 3) whose rows
are finite unit vectors.
"""
from __future__ import annotations

import re

import numpy as np
import pytest

from entdist.metric import metric_matrices
from entdist.qstate import MAX_QUBITS, bilinears, row_view, validate_amplitudes

from oracles import random_state

_TAKES_STATES = {
    "validate_amplitudes": validate_amplitudes,
    "bilinears": bilinears,
    "metric_matrices": lambda amps: metric_matrices(amps, np.zeros((1, 3))),
}


def _unit_rows(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    v = rng.normal(size=shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@pytest.mark.parametrize("shape", [(), (0,), (1,), (6,), (12,), (2, 12)], ids=str)
@pytest.mark.parametrize("entry", sorted(_TAKES_STATES))
def test_state_shape_refused_by_name(entry, shape):
    """A 0-d array raised IndexError, 0 amplitudes a shift error, 1 passed as M = 0."""
    expected = (
        f"expected 2**M amplitudes, 1 <= M <= {MAX_QUBITS}, "
        f"got shape {shape}"
    )
    with pytest.raises(ValueError, match=re.escape(expected)):
        _TAKES_STATES[entry](np.ones(shape, dtype=np.complex128))


@pytest.mark.parametrize("m", [9, 15])
def test_fortran_batch_has_the_bits_of_its_states(m):
    """A batch in Fortran order moved the last bits of w_minus and of the metric."""
    rng = np.random.default_rng(180 + m)
    states = np.array([random_state(m, rng) for _ in range(3)])
    dirs = _unit_rows(rng, (3, m))
    batch = np.asfortranarray(states)
    w_minus, w_3 = bilinears(batch)
    g = metric_matrices(batch, dirs)
    for i, amps in enumerate(states):
        alone_minus, alone_3 = bilinears(amps)
        assert w_minus[i].tobytes() == alone_minus.tobytes()
        assert w_3[i].tobytes() == alone_3.tobytes()
        assert g[i].tobytes() == metric_matrices(amps, dirs[i]).tobytes()


_BAD_FIELDS = {
    "unit vector": lambda v: 2.0 * v,
    "non-finite": lambda v: np.where(np.arange(3) == 1, np.nan, v),
    "shape": lambda v: v[..., 1:, :],
}


@pytest.mark.parametrize("batch", [(), (2,)], ids=["one", "batch"])
@pytest.mark.parametrize("m", [4, 15])
@pytest.mark.parametrize("problem", sorted(_BAD_FIELDS))
def test_metric_matrices_refuses_a_bad_field(problem, m, batch):
    """2 v gave entries up to 9.4e3 at M = 15, NaN gave NaN entries; neither raised."""
    rng = np.random.default_rng(7 * m + len(batch))
    states = np.array([random_state(m, rng) for _ in range(2)])
    amps = states if batch else states[0]
    dirs = _BAD_FIELDS[problem](_unit_rows(rng, batch + (m,)))
    with pytest.raises(ValueError, match=problem):
        metric_matrices(amps, dirs)


@pytest.mark.parametrize("shape", [(8,), (3, 8), (1 << 15,), (2, 1 << 15)], ids=str)
def test_c_contiguous_complex_states_are_not_copied(shape):
    amps = np.zeros(shape, dtype=np.complex128)
    m, rows = row_view(amps)
    assert 1 << m == shape[-1]
    assert np.shares_memory(rows, amps)
    other = np.asfortranarray(amps) if len(shape) > 1 else amps.astype(np.complex64)
    rows = row_view(other)[1]
    assert rows.dtype == np.complex128 and rows.flags.c_contiguous
    assert not np.shares_memory(rows, other)
