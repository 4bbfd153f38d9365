"""``entdist measure`` and ``verify`` at MAX_QUBITS = 26 as whole processes; run with ``-m max_qubits``.

The state alone is 1 GiB of complex128 amplitudes.  ``measure`` is held to
the targets set for this size: 35 s of wall time and 1.3 GiB peak resident
memory, so that the state's construction and the passes over it may add
no more than 0.3 GiB to it.  ``measure`` of the GHZ-like state, two
amplitudes, is held to the same memory and to SPARSE_WALL_LIMIT_S, about
a sixth of that time: the kernels skip its empty blocks and turn none of
its frames.  ``verify`` with one dressing holds the state, one copy for
the dressing and blocks: 2.2 GiB, and at most VERIFY_WALL_FACTOR times
``measure``'s wall-time limit.  On a 2-core host ``measure`` took 9-12 s
and 1.04 GiB, and ``verify`` 21-24 s and 2.04 GiB, 2.0-2.2 times as long,
so both limits leave ``verify`` the headroom they leave ``measure``.
The interleaved product of two 13-qubit Haar states is measured in a child
held to ``measure``'s limits and checked entry by entry against its
factors, as ``test_products`` checks M = 15-24; it took 10-12 s and 1.04 GiB.
A symmetric state of random coefficients is measured in a child held to
the same limits and checked against the collective-spin oracle, as
``test_symmetric`` checks M = 2-24; it took 9 s and 1.04 GiB, its entries
within 3.6e-16 of the oracle's and its eigenvalues within 2.1e-15.
A star graph state's metric at a random field is taken in a child held to
the same limits and checked against the stabilizer oracle, as
``test_graph_states`` checks M = 2-24: the gate on a dense state whose
every qubit is turned; it took 9 s and 1.04 GiB, its entries within
3.3e-16 of the oracle's.
Each peak is its own child's ``ru_maxrss``, read by
``os.wait4`` when the child is reaped, so the tests may run in any order.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from entdist.metric import eig_tol, trace_tol
from entdist.verify import bloch_tol, invariance_tol, optimizer_tol

from child import python_child
from oracles import closed_form_share, random_state
from test_graph_states import assert_matches_graph_oracle, graph_edges
from test_metric import _random_directions
from test_products import assert_splits_into_factors
from test_symmetric import _coefficients, assert_matches_spin_oracle

pytestmark = pytest.mark.max_qubits

M = 26
WALL_LIMIT_S = 35.0
PEAK_RSS_LIMIT = 1.3 * 2**30
SPARSE_WALL_LIMIT_S = 6.0
VERIFY_WALL_FACTOR = 2.0
VERIFY_PEAK_RSS_LIMIT = 2.2 * 2**30
PRODUCT_SEED = 2626
GRAPH_SEED = 2627

# Run with the seed and n: two n-qubit Haar states of the seed's generator, A and B, with
# A's qubit i on position 2i + 1 and B's on 2i, built by one einsum straight into the
# (2,) * 2n order, so the child holds the state once; prints the ``measure`` record.
_PRODUCT_CHILD = """
import json, sys
import numpy as np
from entdist import StateVector, entanglement_metric
from oracles import random_state
seed, n = map(int, sys.argv[1:])
rng = np.random.default_rng(seed)
a, b = random_state(n, rng), random_state(n, rng)
hi, lo = "ABCDEFGHIJKLM"[:n], "abcdefghijklm"[:n]
amps = np.empty((2,) * (2 * n), dtype=np.complex128)
np.einsum(f"{hi},{lo}->{''.join(map(''.join, zip(hi, lo)))}", a.reshape((2,) * n), b.reshape((2,) * n), out=amps)
print(json.dumps(entanglement_metric(StateVector(2 * n, amps.reshape(-1))).to_dict()))
"""

# Run with the coefficients as JSON [re, im]: the symmetric state sum_k c_k |D(M, k)>, built
# by ``oracles.symmetric_amplitudes``; prints the ``measure`` record.
_SYMMETRIC_CHILD = """
import json, sys
import numpy as np
from entdist import StateVector, entanglement_metric
from oracles import symmetric_amplitudes
re, im = json.loads(sys.argv[1])
c = np.array(re) + 1j * np.array(im)
print(json.dumps(entanglement_metric(StateVector(len(c) - 1, symmetric_amplitudes(c))).to_dict()))
"""

# Run with [m, edges, dirs] as JSON: the graph state of ``oracles.graph_amplitudes``; prints its
# metric at the field dirs as JSON.
_GRAPH_CHILD = """
import json, sys
import numpy as np
from entdist import StateVector, metric_matrix
from oracles import graph_amplitudes
m, edges, dirs = json.loads(sys.argv[1])
print(json.dumps(metric_matrix(StateVector(m, graph_amplitudes(m, edges)), np.array(dirs)).tolist()))
"""


def _run_child(code: str, args: list[str], tmp_path: Path) -> tuple[int, str, str, float, int]:
    """Run ``python -c code args`` with entdist and the tests importable.

    Returns the exit code, stdout, stderr, wall seconds and peak RSS bytes.
    """
    out_path, err_path = tmp_path / "stdout", tmp_path / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = python_child(["-c", code, *args], start=subprocess.Popen, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    peak = usage.ru_maxrss * 1024  # KiB on Linux
    return proc.returncode, out_path.read_text(), err_path.read_text(), wall, peak


def _run_cli(args: list[str], tmp_path: Path) -> tuple[int, str, str, float, int]:
    """Run ``entdist <args>`` as a child, as ``_run_child`` does."""
    return _run_child("import sys; from entdist.cli import main; sys.exit(main())", args, tmp_path)


def test_measure_chain_phase_state_at_max_qubits(tmp_path):
    code, out, err, wall, peak = _run_cli(
        ["measure", "--family", "brs", "--m", str(M), "--phi", "0.3"], tmp_path
    )
    assert code == 0, err
    record = json.loads(out)
    trace = float(np.trace(np.reshape(record["matrix"], (M, M))))
    assert record["m"] == M
    assert 0.0 < record["measure"] <= M / 4
    np.testing.assert_allclose(record["measure"], trace, rtol=0, atol=trace_tol(M), equal_nan=False)
    assert wall <= WALL_LIMIT_S and peak <= PEAK_RSS_LIMIT, (
        f"wall time {wall:.1f} s (limit {WALL_LIMIT_S:.0f} s), "
        f"peak RSS {peak / 2**30:.2f} GiB (limit {PEAK_RSS_LIMIT / 2**30:.1f} GiB)"
    )


def test_measure_ghz_like_state_at_max_qubits(tmp_path):
    """Two amplitudes: the passes skip every other block, and every qubit's frame, +z, is left unturned.

    At the optimal directions every entry of g is sin^2(2 theta)/4, so the
    spectrum is [M sin^2(2 theta)/4, 0, ...], each eigenvalue within
    ``eig_tol(M)`` plus the closed form's share.  It took 1.0 s and 37 MiB
    (np.zeros leaves the untouched pages of the state off the resident
    set), and 1.7 s when every frame was turned; a kernel that turned every
    block would take about as long as the dense state.
    """
    theta = 0.7
    code, out, err, wall, peak = _run_cli(
        ["measure", "--family", "ghzl", "--m", str(M), "--theta", str(theta), "--phase", "0.2"], tmp_path
    )
    assert code == 0, err
    record = json.loads(out)
    expected = np.zeros(M)
    expected[0] = M * math.sin(2.0 * theta) ** 2 / 4.0
    assert record["m"] == M
    tol = eig_tol(M) + closed_form_share(M)
    np.testing.assert_allclose(record["eigenvalues"], expected, rtol=0, atol=tol, equal_nan=False)
    assert wall <= SPARSE_WALL_LIMIT_S and peak <= PEAK_RSS_LIMIT, (
        f"wall time {wall:.1f} s (limit {SPARSE_WALL_LIMIT_S:.0f} s), "
        f"peak RSS {peak / 2**30:.2f} GiB (limit {PEAK_RSS_LIMIT / 2**30:.1f} GiB)"
    )


def test_verify_chain_phase_state_at_max_qubits(tmp_path):
    """One dressing, the ascent and the partial trace of every qubit, in bounded memory."""
    code, out, err, wall, peak = _run_cli(["verify", "--family", "brs", "--m", str(M), "--trials", "1"], tmp_path)
    assert code == 0, err
    record = json.loads(out)
    assert record["m"] == M and record["passed"] is True
    assert record["thresholds"] == {"invariance": invariance_tol(M), "optimizer": optimizer_tol(M), "bloch": bloch_tol(M)}
    wall_limit = VERIFY_WALL_FACTOR * WALL_LIMIT_S
    assert wall <= wall_limit and peak <= VERIFY_PEAK_RSS_LIMIT, (
        f"wall time {wall:.1f} s (limit {wall_limit:.0f} s), "
        f"peak RSS {peak / 2**30:.2f} GiB (limit {VERIFY_PEAK_RSS_LIMIT / 2**30:.1f} GiB)"
    )


def test_interleaved_product_at_max_qubits(tmp_path):
    """The product of two 13-qubit Haar states, A on the odd positions, splits into its factors.

    The checks of ``test_products``: E = E_A + E_B, g on A's and on B's
    qubits against the factors' pairwise metrics, 0 between them, and the
    spectrum the union of the factors' spectra.  M = 26 is the only plan
    with three row passes besides the column pass, and a dense state skips
    no block.  The child is held to ``measure``'s limits; the oracles run
    here, on the 2^13 amplitudes of each factor.
    """
    n = M // 2
    code, out, err, wall, peak = _run_child(_PRODUCT_CHILD, [str(PRODUCT_SEED), str(n)], tmp_path)
    assert code == 0, err
    record = json.loads(out)
    rng = np.random.default_rng(PRODUCT_SEED)
    a, b = random_state(n, rng), random_state(n, rng)
    g, directions = np.reshape(record["matrix"], (M, M)), np.array(record["directions"])
    a_pos = list(range(1, M, 2))
    assert_splits_into_factors(a, b, a_pos, g, directions, record["measure"], record["eigenvalues"])
    assert wall <= WALL_LIMIT_S and peak <= PEAK_RSS_LIMIT, (
        f"wall time {wall:.1f} s (limit {WALL_LIMIT_S:.0f} s), "
        f"peak RSS {peak / 2**30:.2f} GiB (limit {PEAK_RSS_LIMIT / 2**30:.1f} GiB)"
    )


def test_symmetric_state_at_max_qubits(tmp_path):
    """A dense symmetric state of seeded random coefficients against the collective-spin oracle.

    Its one direction lies off every axis, so every pass of the plan turns
    full factors and no block is skipped.  The child is held to
    ``measure``'s limits; the oracle, ``test_symmetric``'s, runs here on
    the M + 1 coefficients: every entry within ``entry_tol(M)`` plus the
    oracle's share at the child's directions, and within ``entry_tol(M)``
    plus the pairwise oracle's share at the oracle's own, E within
    ``trace_tol(M)`` and the eigenvalues within trace_tol(M) + M eps E.
    """
    c = _coefficients("random", M)
    code, out, err, wall, peak = _run_child(
        _SYMMETRIC_CHILD, [json.dumps([c.real.tolist(), c.imag.tolist()])], tmp_path
    )
    assert code == 0, err
    record = json.loads(out)
    assert record["m"] == M
    g = np.reshape(record["matrix"], (M, M))
    assert_matches_spin_oracle(c, g, record["directions"], record["measure"], record["eigenvalues"])
    assert wall <= WALL_LIMIT_S and peak <= PEAK_RSS_LIMIT, (
        f"wall time {wall:.1f} s (limit {WALL_LIMIT_S:.0f} s), "
        f"peak RSS {peak / 2**30:.2f} GiB (limit {PEAK_RSS_LIMIT / 2**30:.1f} GiB)"
    )


def test_star_graph_state_at_max_qubits(tmp_path):
    """A star graph state, its vertices relabelled, at a random field, against the stabilizer oracle.

    Every amplitude is +-2^-13 and every direction lies off every axis,
    so every pass of the plan turns full factors and no block is skipped.
    The child is held to ``measure``'s limits; the oracle runs here: every
    entry within ``entry_tol(M)`` plus ``graph_share(M)``.
    """
    rng = np.random.default_rng(GRAPH_SEED)
    edges, dirs = graph_edges("star", M, rng), _random_directions(rng, M)
    code, out, err, wall, peak = _run_child(_GRAPH_CHILD, [json.dumps([M, edges, dirs.tolist()])], tmp_path)
    assert code == 0, err
    assert_matches_graph_oracle(M, edges, dirs, np.array(json.loads(out)))
    assert wall <= WALL_LIMIT_S and peak <= PEAK_RSS_LIMIT, (
        f"wall time {wall:.1f} s (limit {WALL_LIMIT_S:.0f} s), "
        f"peak RSS {peak / 2**30:.2f} GiB (limit {PEAK_RSS_LIMIT / 2**30:.1f} GiB)"
    )
