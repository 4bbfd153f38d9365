"""Generators for three reference state families and their closed-form measures.

Families, selected by tag:

* ``brs``    - chain-phase (cluster-type) states: the uniform superposition
  dressed by a diagonal nearest-neighbour controlled-phase operator with
  angle ``phi``; separable at phi = 2 pi k, maximally entangled at odd pi.
* ``ghzl``   - GHZ-like superpositions cos(theta)|0...0> +
  sin(theta) e^{i phase}|1...1>; maximally entangled at theta = pi/4 mod pi/2.
* ``threeq`` - a two-parameter three-qubit family interpolating between
  fully separable, bi-separable and genuinely tripartite entangled states.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .metric import entanglement_measure
from .qstate import MAX_QUBITS, StateVector

BRS = "brs"
GHZL = "ghzl"
THREEQ = "threeq"
FAMILY_TAGS = (BRS, GHZL, THREEQ)

# angle parameters accepted per family, also the JSON schema
FAMILY_ANGLES = {BRS: ("phi",), GHZL: ("theta", "phase"), THREEQ: ("gamma", "tau")}


@dataclass(frozen=True)
class FamilySpec:
    """Tagged parameter record for state generation and closed forms."""

    tag: str
    m: int = 3
    phi: float = 0.0
    theta: float = 0.0
    phase: float = 0.0
    gamma: float = 0.0
    tau: float = 0.0

    def __post_init__(self) -> None:
        if self.tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}; expected one of {FAMILY_TAGS}")
        if isinstance(self.m, bool) or not isinstance(self.m, numbers.Integral):
            raise ValueError(f"m must be an integer, got {self.m!r}")
        if self.tag == THREEQ:
            if self.m != 3:
                raise ValueError("the three-qubit family has m fixed at 3")
        elif not 2 <= self.m <= MAX_QUBITS:
            raise ValueError(f"m must be in [2, {MAX_QUBITS}] for family {self.tag!r}")
        for name in FAMILY_ANGLES[self.tag]:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"angle {name!r} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"angle {name!r} must be finite")
            object.__setattr__(self, name, float(value))

    @classmethod
    def from_dict(cls, payload: dict) -> "FamilySpec":
        """Build from JSON {"family": tag, "m": ..., <angles>}."""
        if not isinstance(payload, dict) or "family" not in payload:
            raise ValueError('family spec must be an object with a "family" key')
        tag = payload["family"]
        if tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {tag!r}; expected one of {FAMILY_TAGS}")
        kwargs = {"tag": tag}
        if "m" in payload:
            kwargs["m"] = payload["m"]
        elif tag == THREEQ:
            kwargs["m"] = 3
        for name in FAMILY_ANGLES[tag]:
            if name in payload:
                kwargs[name] = payload[name]
        return cls(**kwargs)

    def to_dict(self) -> dict:
        out = {"family": self.tag, "m": self.m}
        for name in FAMILY_ANGLES[self.tag]:
            out[name] = getattr(self, name)
        return out


@dataclass(frozen=True)
class ClosedForm:
    """Closed-form measure value together with the formula it came from."""

    value: float
    source: str

    def __post_init__(self) -> None:
        if self.value < -1e-12:
            raise ValueError(f"closed-form measure cannot be negative: {self.value!r}")


def brs_n01(k: int, m: int) -> int:
    """Number of adjacent qubit pairs (j, j+1) of |k> with qubit j clear
    and qubit j+1 set, for j = 0 .. m-2 on the open chain.

    This is the exponent of the controlled-phase eigenvalue e^{-i phi n(k)}.
    """
    if not 0 <= k < (1 << m):
        raise ValueError(f"basis index must satisfy 0 <= k < 2**{m}, got {k}")
    return ((~k & (k >> 1)) & ((1 << (m - 1)) - 1)).bit_count()


def _n01_counts(m: int) -> np.ndarray:
    """brs_n01 for every basis index of an m-qubit register."""
    k = np.arange(1 << m, dtype=np.uint32)
    return np.bitwise_count((~k & (k >> 1)) & np.uint32((1 << (m - 1)) - 1))


def brs_state(m: int, phi: float) -> StateVector:
    """Chain-phase state c_k = 2^{-m/2} e^{-i phi n(k)}, indexed from its m // 2 + 1 values."""
    if not 2 <= m <= MAX_QUBITS:
        raise ValueError(f"m must be in [2, {MAX_QUBITS}], got {m}")
    table = np.exp(-1j * phi * np.arange(m // 2 + 1)) * (2.0 ** (-m / 2.0))
    return StateVector(m, table[_n01_counts(m)])


def ghzl_state(m: int, theta: float, phase: float = 0.0) -> StateVector:
    """GHZ-like state cos(theta)|0...0> + sin(theta) e^{i phase}|1...1>."""
    if not 2 <= m <= MAX_QUBITS:
        raise ValueError(f"m must be in [2, {MAX_QUBITS}], got {m}")
    amps = np.zeros(1 << m, dtype=np.complex128)
    amps[0] = math.cos(theta)
    amps[-1] = math.sin(theta) * np.exp(1j * phase)
    return StateVector(m, amps)


def three_qubit_amplitudes(gammas, taus) -> np.ndarray:
    """Amplitudes (len(gammas) * len(taus), 8) of the three-qubit family.

    Rows run over the grid with gamma outer and tau inner.  The nonzero
    amplitudes sit at k = 0, 3, 4, 7: cos(gamma)cos(tau), cos(gamma)sin(tau),
    sin(gamma)sin(tau), sin(gamma)cos(tau).  The sines and cosines come from
    ``math`` one angle at a time and the products from ``np.outer``, so a
    grid point gets the same bits as a single state.
    """
    cg, sg = (np.array([f(g) for g in gammas]) for f in (math.cos, math.sin))
    ct, st = (np.array([f(t) for t in taus]) for f in (math.cos, math.sin))
    amps = np.zeros((cg.size * ct.size, 8), dtype=np.complex128)
    amps[:, 0] = np.outer(cg, ct).ravel()
    amps[:, 3] = np.outer(cg, st).ravel()
    amps[:, 4] = np.outer(sg, st).ravel()
    amps[:, 7] = np.outer(sg, ct).ravel()
    return amps


def three_qubit_state(gamma: float, tau: float) -> StateVector:
    """Two-parameter three-qubit family; the leftmost ket factor is qubit 2.

    See ``three_qubit_amplitudes`` for the amplitudes.
    """
    return StateVector(3, three_qubit_amplitudes([gamma], [tau])[0])


def family_state(spec: FamilySpec) -> StateVector:
    """Generate the state described by a FamilySpec."""
    if spec.tag == BRS:
        return brs_state(spec.m, spec.phi)
    if spec.tag == GHZL:
        return ghzl_state(spec.m, spec.theta, spec.phase)
    return three_qubit_state(spec.gamma, spec.tau)


def closed_form_E(spec: FamilySpec) -> ClosedForm:
    """Closed-form entanglement measure for a family spec.

    The chain-phase family has explicit two- and three-qubit forms; for
    m >= 4 the per-qubit Bloch-norm trace formula is evaluated on the
    generated state (no simpler closed form exists).
    """
    if spec.tag == BRS:
        s2 = math.sin(spec.phi / 2.0) ** 2
        c2 = math.cos(spec.phi / 2.0) ** 2
        if spec.m == 2:
            return ClosedForm(s2 / 2.0, "sin^2(phi/2) / 2")
        if spec.m == 3:
            return ClosedForm(s2 * (3.0 + c2) / 4.0, "sin^2(phi/2) (3 + cos^2(phi/2)) / 4")
        value = entanglement_measure(brs_state(spec.m, spec.phi))
        return ClosedForm(value, "(m - sum_nu |b^nu|^2) / 4")
    if spec.tag == GHZL:
        return ClosedForm(
            spec.m / 4.0 * math.sin(2.0 * spec.theta) ** 2, "(m/4) sin^2(2 theta)"
        )
    s2t = math.sin(2.0 * spec.tau) ** 2
    value = 0.25 * (2.0 * s2t + 3.0 * math.sin(2.0 * spec.gamma) ** 2 * (1.0 - s2t))
    return ClosedForm(value, "(2 sin^2(2 tau) + 3 sin^2(2 gamma) cos^2(2 tau)) / 4")


def brs_reference_metric(m: int, phi: float) -> np.ndarray:
    """Analytic reference form of the chain-phase entanglement metric, m = 2 or 3.

    Used as a regression target for the trace and diagonal; the constant
    off-diagonal entries encode a fixed minimizer-sign convention that a
    direct evaluation reproduces only at odd multiples of pi, so they are
    compared in reports rather than asserted (see the test suite).
    """
    c = math.cos(phi / 2.0)
    s = math.sin(phi / 2.0)
    if m == 2:
        return 0.25 * np.array([[s * s, 1.0], [1.0, s * s]])
    if m == 3:
        c2, s2 = c * c, s * s
        return (s2 / 4.0) * np.array(
            [
                [1.0, c, -2.0 * s2 * c2],
                [c, 1.0 + c2, c],
                [-2.0 * s2 * c2, c, 1.0],
            ]
        )
    raise ValueError("reference metric forms exist only for m = 2 and m = 3")
