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
Each peak is its own child's ``ru_maxrss``, read by
``os.wait4`` when the child is reaped, so the tests may run in any order.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import entdist
from entdist.metric import trace_tol
from entdist.verify import INVARIANCE_TOL, OPTIMIZER_TOL, bloch_tol

pytestmark = pytest.mark.max_qubits

M = 26
WALL_LIMIT_S = 35.0
PEAK_RSS_LIMIT = 1.3 * 2**30
SPARSE_WALL_LIMIT_S = 6.0
VERIFY_WALL_FACTOR = 2.0
VERIFY_PEAK_RSS_LIMIT = 2.2 * 2**30


def _run_cli(args: list[str], tmp_path: Path) -> tuple[int, str, str, float, int]:
    """Run ``entdist <args>`` as a child: exit code, stdout, stderr, wall seconds and peak RSS bytes."""
    src = str(Path(entdist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cmd = [sys.executable, "-c", "import sys; from entdist.cli import main; sys.exit(main())", *args]
    out_path, err_path = tmp_path / "stdout", tmp_path / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    peak = usage.ru_maxrss * 1024  # KiB on Linux
    return proc.returncode, out_path.read_text(), err_path.read_text(), wall, peak


def test_measure_chain_phase_state_at_max_qubits(tmp_path):
    code, out, err, wall, peak = _run_cli(
        ["measure", "--family", "brs", "--m", str(M), "--phi", "0.3"], tmp_path
    )
    assert code == 0, err
    record = json.loads(out)
    trace = float(np.trace(np.reshape(record["matrix"], (M, M))))
    assert record["m"] == M
    assert 0.0 < record["measure"] <= M / 4
    assert abs(record["measure"] - trace) <= trace_tol(M)
    assert wall <= WALL_LIMIT_S and peak <= PEAK_RSS_LIMIT, (
        f"wall time {wall:.1f} s (limit {WALL_LIMIT_S:.0f} s), "
        f"peak RSS {peak / 2**30:.2f} GiB (limit {PEAK_RSS_LIMIT / 2**30:.1f} GiB)"
    )


def test_measure_ghz_like_state_at_max_qubits(tmp_path):
    """Two amplitudes: the passes skip every other block, and every qubit's frame, +z, is left unturned.

    At the optimal directions every entry of g is sin^2(2 theta)/4, so the
    spectrum is [M sin^2(2 theta)/4, 0, ...].  It took 1.0 s and 37 MiB
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
    assert np.max(np.abs(np.array(record["eigenvalues"]) - expected)) <= trace_tol(M)
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
    assert record["thresholds"] == {"invariance": INVARIANCE_TOL, "optimizer": OPTIMIZER_TOL, "bloch": bloch_tol(M)}
    wall_limit = VERIFY_WALL_FACTOR * WALL_LIMIT_S
    assert wall <= wall_limit and peak <= VERIFY_PEAK_RSS_LIMIT, (
        f"wall time {wall:.1f} s (limit {wall_limit:.0f} s), "
        f"peak RSS {peak / 2**30:.2f} GiB (limit {VERIFY_PEAK_RSS_LIMIT / 2**30:.1f} GiB)"
    )
