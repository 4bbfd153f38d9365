"""Generators for three reference state families and their closed-form measures.

Families, selected by tag:

* ``brs``    - chain-phase (cluster-type) states: the uniform superposition
  dressed by a diagonal nearest-neighbour controlled-phase operator with
  angle ``phi``; separable at phi = 2 pi k, maximally entangled at odd pi.
* ``ghzl``   - GHZ-like superpositions cos(theta)|0...0> +
  sin(theta) e^{i phase}|1...1>; maximally entangled at theta = pi/4 mod pi/2.
* ``threeq`` - a two-parameter three-qubit family interpolating between
  fully separable, bi-separable and genuinely tripartite entangled states.

The closed forms give the measure E only.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

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
        return cls(tag, **{k: payload[k] for k in ("m", *FAMILY_ANGLES[tag]) if k in payload})

    def to_dict(self) -> dict:
        out = {"family": self.tag, "m": self.m}
        for name in FAMILY_ANGLES[self.tag]:
            out[name] = getattr(self, name)
        return out


@dataclass(frozen=True)
class ClosedForm:
    """Closed-form measure value together with the formula it came from.

    A negative value is rejected with no tolerance: every formula in
    ``closed_form_E`` is >= 0 in floating point, not just in exact
    arithmetic.  A computed sine lies in [-1, 1], so each computed square
    s^2 lies in [0, 1], and rounding is monotone.  Hence (m - 2) s^2 <= m - 2
    and 2m - 2 - (m - 2) s^2 >= m for the chain-phase family, 1 - sin^2(2 tau)
    >= 0 for the three-qubit family, and each value is a sum of products of
    non-negative factors.
    """

    value: float
    source: str

    def __post_init__(self) -> None:
        if self.value < 0.0:
            raise ValueError(
                f"closed-form measure cannot be negative: {self.value!r} from {self.source}"
            )


def _n01_counts(m: int) -> np.ndarray:
    """n(k) for every basis index k of m qubits: the count of adjacent pairs (j, j+1)
    with qubit j clear and qubit j+1 set, the exponent of the phase e^{-i phi n(k)}."""
    k = np.arange(1 << m, dtype=np.uint32)
    return np.bitwise_count((~k & (k >> 1)) & np.uint32((1 << (m - 1)) - 1))


def _brs_amplitudes(m: int, phis) -> np.ndarray:
    """Chain-phase amplitudes (len(phis), 2**m), indexed from m // 2 + 1 values per phi."""
    table = np.exp(-1j * np.asarray(phis, dtype=float)[:, None] * np.arange(m // 2 + 1))
    # table[:, counts] is F-ordered for several phis, and F-ordered rows skip BLAS
    return np.ascontiguousarray((table * (2.0 ** (-m / 2.0)))[:, _n01_counts(m)])


def _ghzl_amplitudes(m: int, thetas, phases) -> np.ndarray:
    """GHZ-like amplitudes, one row per angle pair; ``thetas`` and ``phases`` broadcast."""
    cos, sin = (np.array([f(t) for t in thetas]) for f in (math.cos, math.sin))
    top = sin * np.exp(1j * np.asarray(phases, dtype=float))
    amps = np.zeros((max(cos.size, top.size), 1 << m), dtype=np.complex128)
    amps[:, 0] = cos
    amps[:, -1] = top
    return amps


def brs_state(m: int, phi: float) -> StateVector:
    """Chain-phase state c_k = 2^{-m/2} e^{-i phi n(k)}, indexed from its m // 2 + 1 values."""
    return family_state(FamilySpec(BRS, m, phi=phi))


def ghzl_state(m: int, theta: float, phase: float = 0.0) -> StateVector:
    """GHZ-like state cos(theta)|0...0> + sin(theta) e^{i phase}|1...1>."""
    return family_state(FamilySpec(GHZL, m, theta=theta, phase=phase))


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
    return family_state(FamilySpec(THREEQ, gamma=gamma, tau=tau))


def family_state(spec: FamilySpec) -> StateVector:
    """Generate the state described by a FamilySpec: the one-row case of ``family_amplitudes``."""
    angle = FAMILY_ANGLES[spec.tag][0]
    return StateVector(spec.m, family_amplitudes(spec, angle, [getattr(spec, angle)])[0])


def family_amplitudes(spec: FamilySpec, parameter: str, values) -> np.ndarray:
    """C-contiguous amplitudes (len(values), 2**m) of ``spec`` with ``parameter`` at each value.

    Row i holds the amplitudes of the spec with that angle set to
    ``values[i]``; ``family_state`` is the one-row case.  A non-finite value
    is rejected as FamilySpec rejects it.  The rows are not validated.
    This is the one place that dispatches on the family tag.
    """
    values = [float(v) for v in values]
    if parameter not in FAMILY_ANGLES[spec.tag]:
        raise ValueError(f"family {spec.tag!r} has no angle {parameter!r}")
    # the spec with the first non-finite value, if any, raises FamilySpec's error
    replace(spec, **{parameter: next((v for v in values if not math.isfinite(v)), 0.0)})
    angles = {
        name: values if name == parameter else [getattr(spec, name)]
        for name in FAMILY_ANGLES[spec.tag]
    }
    if spec.tag == BRS:
        return _brs_amplitudes(spec.m, angles["phi"])
    if spec.tag == GHZL:
        return _ghzl_amplitudes(spec.m, angles["theta"], angles["phase"])
    return three_qubit_amplitudes(angles["gamma"], angles["tau"])


def closed_form_E(spec: FamilySpec) -> ClosedForm:
    """Closed-form entanglement measure for a family spec.

    For the chain-phase family the two end qubits have |b|^2 = cos^2(phi/2)
    and the m - 2 inner ones |b|^2 = cos^4(phi/2), so E = (m - sum |b|^2) / 4
    is s^2 (2m - 2 - (m - 2) s^2) / 4 with s^2 = sin^2(phi/2), for every m.
    """
    if spec.tag == BRS:
        s2 = math.sin(spec.phi / 2.0) ** 2
        value = s2 * (2 * spec.m - 2 - (spec.m - 2) * s2) / 4.0
        return ClosedForm(value, "s^2 (2m - 2 - (m - 2) s^2) / 4, s^2 = sin^2(phi/2)")
    if spec.tag == GHZL:
        return ClosedForm(
            spec.m / 4.0 * math.sin(2.0 * spec.theta) ** 2, "(m/4) sin^2(2 theta)"
        )
    s2t = math.sin(2.0 * spec.tau) ** 2
    value = 0.25 * (2.0 * s2t + 3.0 * math.sin(2.0 * spec.gamma) ** 2 * (1.0 - s2t))
    return ClosedForm(value, "(2 sin^2(2 tau) + 3 sin^2(2 gamma) cos^2(2 tau)) / 4")

