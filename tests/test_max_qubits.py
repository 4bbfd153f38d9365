"""``entdist measure`` at MAX_QUBITS = 26 as a whole process; run with ``-m max_qubits``.

The state alone is 1 GiB of complex128 amplitudes.  The run is held to the
targets set for this size: 35 s of wall time and 1.3 GiB peak resident
memory, so that the state's construction and the passes over it may add
no more than 0.3 GiB to it.  The peak is the largest ``ru_maxrss`` among
this test process's children, so run the marker on its own.
"""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import entdist
from entdist.metric import trace_tol

pytestmark = pytest.mark.max_qubits

M = 26
WALL_LIMIT_S = 35.0
PEAK_RSS_LIMIT = 1.3 * 2**30


def test_measure_chain_phase_state_at_max_qubits():
    src = str(Path(entdist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cmd = [
        sys.executable, "-c", "import sys; from entdist.cli import main; sys.exit(main())",
        "measure", "--family", "brs", "--m", str(M), "--phi", "0.3",
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024  # KiB on Linux
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    trace = float(np.trace(np.reshape(record["matrix"], (M, M))))
    assert record["m"] == M
    assert 0.0 < record["measure"] <= M / 4
    assert abs(record["measure"] - trace) <= trace_tol(M)
    assert wall <= WALL_LIMIT_S and peak <= PEAK_RSS_LIMIT, (
        f"wall time {wall:.1f} s (limit {WALL_LIMIT_S:.0f} s), "
        f"peak RSS {peak / 2**30:.2f} GiB (limit {PEAK_RSS_LIMIT / 2**30:.1f} GiB)"
    )
