"""The batched sweep: every row has the bits of its point alone, in bounded memory."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

import entdist.cli
from entdist import (
    FamilySpec,
    entanglement_metric,
    family_state,
    optimal_directions,
    spectrum,
)
from entdist import qstate
from entdist.cli import _ABSCISSA_DIVISOR, SweepSpec, _chunk_points, run_sweep
from entdist.families import family_amplitudes


def _per_point_rows(spec: SweepSpec) -> np.ndarray:
    """Sweep rows one state at a time: ``entanglement_metric`` and ``spectrum`` per point."""
    m = spec.family.m
    rows = []
    for value in np.linspace(spec.start, spec.stop, spec.points):
        fam = dataclasses.replace(spec.family, **{spec.parameter: float(value)})
        em = entanglement_metric(family_state(fam))
        eigs = spectrum(em).eigenvalues
        if spec.normalize:
            eigs = eigs / m
        x = float(value) / _ABSCISSA_DIVISOR[spec.parameter]
        rows.append([x, em.measure, em.measure / m, *map(float, eigs)])
    return np.array(rows)


def _seeded_spec(fam: FamilySpec, parameter: str, seed: int, points: int = 41) -> SweepSpec:
    rng = np.random.default_rng(seed)
    start = float(rng.uniform(-2.0 * np.pi, 2.0 * np.pi))
    stop = start + float(rng.uniform(0.1, 2.0 * np.pi))
    return SweepSpec(fam, parameter, start, stop, points, normalize=bool(seed % 2))


SWEEPS = (
    [(FamilySpec("brs", m=m), "phi") for m in range(2, 10)]
    + [(FamilySpec("ghzl", m=m, phase=0.4 * m), "theta") for m in range(2, 10)]
    + [(FamilySpec("ghzl", m=m, theta=0.3 * m), "phase") for m in range(2, 10)]
    + [(FamilySpec("threeq", tau=0.7), "gamma"), (FamilySpec("threeq", gamma=2.1), "tau")]
)


@pytest.mark.parametrize(
    "fam, parameter", SWEEPS, ids=[f"{f.tag}-m{f.m}-{p}" for f, p in SWEEPS]
)
def test_sweep_is_byte_equal_to_per_point_rows(fam, parameter):
    spec = _seeded_spec(fam, parameter, seed=fam.m + len(parameter))
    _, rows = run_sweep(spec)
    assert np.array(rows).tobytes() == _per_point_rows(spec).tobytes()


@pytest.mark.parametrize("m", [8, 9])
@pytest.mark.parametrize(
    "chunks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)], ids=["P-1", "P", "P+1", "2P+1"]
)
def test_sweep_rows_across_chunk_boundaries(m, chunks, extra):
    """Grids that end just short of, on and just past a chunk boundary give per-point rows."""
    points = chunks * _chunk_points(m) + extra
    spec = _seeded_spec(FamilySpec("brs", m=m), "phi", seed=points, points=points)
    _, rows = run_sweep(spec)
    assert np.array(rows).tobytes() == _per_point_rows(spec).tobytes()


def test_sweep_builds_one_batch_per_row_walk_row(monkeypatch):
    """At M = 9 a batch is one 2^ROW_BITS-amplitude row of 32 states: 201 points take 7."""
    assert _chunk_points(9) == 32 and _chunk_points(7) == 128 and _chunk_points(14) == 1
    sizes = []

    def counting(spec, parameter, values):
        sizes.append(len(values))
        return family_amplitudes(spec, parameter, values)

    monkeypatch.setattr(entdist.cli, "family_amplitudes", counting)
    run_sweep(SweepSpec(FamilySpec("brs", m=9), "phi", 0.0, 2.0 * np.pi, 201))
    assert sizes == [32] * 6 + [9]


def test_several_rows_one_state_per_chunk():
    """At M = 15 a state is two rows and a chunk holds one state."""
    assert _chunk_points(15) == 1
    spec = SweepSpec(FamilySpec("brs", m=15), "phi", 0.2, 2.9, 3)
    _, rows = run_sweep(spec)
    assert np.array(rows).tobytes() == _per_point_rows(spec).tobytes()


def _directions_row_by_row(bloch: np.ndarray) -> np.ndarray:
    """One row at a time: norm, canonical sign, renormalization, by np.linalg.norm."""
    out = []
    for b in bloch.reshape(-1, 3):
        norm = float(np.linalg.norm(b))
        if norm < 1e-12:
            out.append((0.0, 0.0, 1.0))
            continue
        v = b / norm
        first = next((x for x in v if abs(x) > 1e-12), 1.0)
        v = -v if first < 0.0 else v
        out.append(v / np.linalg.norm(v))
    return np.array(out).reshape(bloch.shape)


def test_batched_directions_equal_row_by_row():
    rng = np.random.default_rng(7)
    bloch = rng.uniform(-1.0, 1.0, (40, 6, 3)) * 10.0 ** rng.uniform(-14.0, 0.0, (40, 6, 1))
    bloch[0, 0] = 0.0  # degenerate
    bloch[0, 1] = (3e-13, -4e-13, 0.0)  # degenerate, not zero
    bloch[0, 2] = (-0.0, -0.6, 0.8)  # negative leading component after a -0.0
    bloch[0, 3] = (-0.0, 0.0, -1.0)  # flipped, -0.0 becomes 0.0
    bloch[0, 4] = (-5e-13, 0.6, -0.8)  # a leading component below 1e-12 does not set the sign
    bloch[0, 5] = (0.0, -0.0, 0.5)  # kept, -0.0 stays
    dirs = optimal_directions(bloch)
    assert dirs.tobytes() == _directions_row_by_row(bloch).tobytes()
    for p in range(len(bloch)):
        assert optimal_directions(bloch[p]).tobytes() == dirs[p].tobytes()
    assert np.signbit(dirs[0, 3, 0]) == 0 and np.signbit(dirs[0, 5, 1]) == 1
    np.testing.assert_array_equal(dirs[0, :2], [[0.0, 0.0, 1.0]] * 2)


BUILDS = [
    (FamilySpec("brs", m=2), "phi"),
    (FamilySpec("brs", m=12), "phi"),
    (FamilySpec("ghzl", m=5, phase=1.3), "theta"),
    (FamilySpec("ghzl", m=11, theta=0.6), "phase"),
    (FamilySpec("threeq", tau=0.4), "gamma"),
    (FamilySpec("threeq", gamma=1.1), "tau"),
]


@pytest.mark.parametrize("fam, parameter", BUILDS, ids=[f"{f.tag}-m{f.m}-{p}" for f, p in BUILDS])
def test_batch_builder_equals_family_state(fam, parameter):
    values = np.random.default_rng(fam.m).uniform(-7.0, 7.0, 9)
    amps = family_amplitudes(fam, parameter, values)
    assert amps.shape == (9, 1 << fam.m) and amps.dtype == np.complex128
    assert amps.flags.c_contiguous
    for row, value in zip(amps, values):
        state = family_state(dataclasses.replace(fam, **{parameter: float(value)}))
        assert row.tobytes() == state.amplitudes.tobytes()


def test_batch_builder_rejects_what_family_spec_rejects():
    with pytest.raises(ValueError, match="angle 'phi' must be finite"):
        family_amplitudes(FamilySpec("brs", m=3), "phi", [0.1, np.nan, 0.2])
    with pytest.raises(ValueError, match="no angle 'theta'"):
        family_amplitudes(FamilySpec("brs", m=3), "theta", [0.1])


@pytest.mark.parametrize("m, points", [(9, 201), (16, 3)])
def test_sweep_memory_follows_the_chunk_rule(m, points):
    """Peak traced memory of a sweep stays within what one chunk needs.

    A chunk of P = ``_chunk_points(M)`` states holds their amplitudes and
    the metric kernel's stack of M applied rows of 2^k amplitudes each, k =
    min(M, ROW_BITS).  The bound allows the stack, twice the chunk's
    amplitudes (the states and one temporary of their size), 2^ROW_BITS
    amplitudes more (row temporaries and einsum's iteration buffers, at
    most 3 x 8192 amplitudes) and 64 bytes per output value.  Holding every
    point's state at once, a (points, 2^M) array, exceeds it: by 1.4 MiB at
    M = 16.
    """
    spec = SweepSpec(FamilySpec("brs", m=m), "phi", 0.1, 3.0, points)
    k = min(m, qstate.ROW_BITS)
    p = _chunk_points(m)
    amplitudes = m * p * (1 << k) + 2 * p * (1 << m) + (1 << qstate.ROW_BITS)
    bound = 16 * amplitudes + 64 * points * (m + 3)
    run_sweep(spec)
    tracemalloc.start()
    try:
        run_sweep(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound
