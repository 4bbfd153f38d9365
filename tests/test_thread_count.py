"""Output bytes do not depend on how many threads BLAS runs.

OpenBLAS threads a dot of more than 10^4 terms, and the split of its sum
follows the thread count.  Every BLAS dot over amplitudes goes through
``qstate._dot``, in runs of at most 2^(ROW_BITS - 1) terms, so no such dot
is threaded.  The gemms of the direction-frame kernel (M > ROW_BITS) are
threaded, and their bytes hold across thread counts only because this
OpenBLAS build does not split the 16-term sum of a gemm entry; these tests
check that too, at M = 15 and above.  With another BLAS, whose threads the
environment variable does not set, both runs are the same run.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

import entdist
from entdist import qstate
from entdist.metric import entanglement_metric, metric_matrices, optimal_directions
from entdist.qstate import bilinears, bloch_vectors, validate_amplitudes

from child import python_child
from oracles import random_state

_CHILD = """
import contextlib, io, json, sys
from entdist.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(json.dumps([argv, code, out.getvalue()]))
"""


def _outputs(cases: list[list[str]], threads: int) -> dict[str, tuple[int, str]]:
    """Exit code and stdout of each ``entdist`` invocation, run in one process on ``threads`` BLAS threads."""
    env = {"OPENBLAS_NUM_THREADS": str(threads)}
    proc = python_child(["-c", _CHILD, json.dumps(cases)], env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    return {" ".join(argv): (code, out) for argv, code, out in records}


def _family_cases(sizes: list[int]) -> list[list[str]]:
    cases = []
    for m in sizes:
        for family in (
            ["--family", "brs", "--m", str(m), "--phi", "0.3"],
            ["--family", "ghzl", "--m", str(m), "--theta", "0.7", "--phase", "0.2"],
        ):
            cases += [["measure", *family], ["eigs", "--csv", *family]]
    return cases


def _assert_same_bytes(cases: list[list[str]]) -> None:
    one, two = _outputs(cases, 1), _outputs(cases, 2)
    assert one.keys() == two.keys() == {" ".join(argv) for argv in cases}
    assert all(code == 0 for code, _ in one.values())
    differ = [key for key in one if one[key] != two[key]]
    assert not differ, f"output bytes differ between 1 and 2 BLAS threads: {differ}"


def test_one_and_two_blas_threads_give_the_same_bytes(tmp_path):
    """``measure`` and ``eigs --csv`` of brs, ghzl and a Haar state, and a sweep at M = 14.

    The Haar state is written once, here, and read by both runs, so its
    input bytes are the same: a state normalized in each run by a long
    BLAS dot (``np.linalg.norm`` of more than 10^4 terms) would differ
    before entdist read it.  At M = 14 a whole-row dot of 2^14 terms in
    the one-row metric would be threaded, and its bytes would follow the
    thread count.
    """
    path = tmp_path / "haar14.json"
    entdist.write_state_file(path, qstate.StateVector(14, random_state(14, np.random.default_rng(14))))
    cases = _family_cases([3, 9, 13, 14, 15, 16])
    cases += [["measure", "--state-file", str(path)], ["eigs", "--csv", "--state-file", str(path)]]
    cases.append(
        ["sweep", "--family", "brs", "--m", "14", "--parameter", "phi",
         "--start", "0", "--stop", "3", "--points", "9"]
    )
    _assert_same_bytes(cases)


@pytest.mark.slow
def test_one_and_two_blas_threads_give_the_same_bytes_at_large_m(tmp_path):
    """The same at M = 18, 20 and 22, where every moment comes from the frame kernel's gemms, and beyond.

    ghzl's row passes are held, so a Haar state at M = 18, written once
    and read by both runs, turns every pass through threaded gemms as brs
    does.  brs at M = 24 reaches the largest ``totals @ _signs(M - 14)``
    of ``qstate._row_bilinears`` the test sees, 1024 x 10: the one BLAS
    product over amplitude sums outside the frame gemms that grows with M.
    """
    path = tmp_path / "haar18.json"
    entdist.write_state_file(path, qstate.StateVector(18, random_state(18, np.random.default_rng(18))))
    cases = _family_cases([18, 20, 22])
    cases += [["measure", "--state-file", str(path)], ["eigs", "--csv", "--state-file", str(path)]]
    brs24 = ["--family", "brs", "--m", "24", "--phi", "0.3"]
    cases += [["measure", *brs24], ["eigs", "--csv", *brs24]]
    _assert_same_bytes(cases)


@pytest.mark.parametrize("m", [9, 13, 14, 15, 16])
def test_no_dot_over_amplitudes_is_longer_than_a_run(monkeypatch, m):
    """Validation, the bilinears and the metric never hand BLAS a dot of more than 2^(ROW_BITS - 1) terms.

    Every ``np.vecdot`` call is recorded by the length of its last axis,
    a batch of states at M = 9 included.
    """
    vecdot = np.vecdot
    lengths = []

    def spy(a, b, *args, **kwargs):
        lengths.append(max(np.shape(a)[-1], np.shape(b)[-1]))
        return vecdot(a, b, *args, **kwargs)

    rng = np.random.default_rng(m)
    batch = np.array([random_state(m, rng) for _ in range(2 if m <= 13 else 1)])
    monkeypatch.setattr(np, "vecdot", spy)
    validate_amplitudes(batch)
    metric_matrices(batch, optimal_directions(bloch_vectors(*bilinears(batch))))
    entanglement_metric(qstate.StateVector(m, batch[0]))
    assert lengths and max(lengths) <= 1 << (qstate.ROW_BITS - 1)
