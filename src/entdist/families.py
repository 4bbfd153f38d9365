"""Generators for three reference state families and their closed-form measures.

Families, selected by tag:

* ``brs``    - chain-phase (cluster-type) states: the uniform superposition
  dressed by a diagonal nearest-neighbour controlled-phase operator with
  angle ``phi``; separable at phi = 2 pi k, maximally entangled at odd pi.
* ``ghzl``   - GHZ-like superpositions cos(theta)|0...0> +
  sin(theta) e^{i phase}|1...1>; maximally entangled at theta = pi/4 mod pi/2.
* ``threeq`` - a two-parameter three-qubit family interpolating between
  fully separable, bi-separable and genuinely tripartite entangled states.

``closed_form_E`` gives each family's measure E in closed form, as the one
field ``value`` of a ``ClosedForm`` record.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .qstate import MAX_QUBITS, StateVector, row_view, validate_count, validate_real

BRS = "brs"
GHZL = "ghzl"
THREEQ = "threeq"

# each family's angles and their figure units: sweep x = angle / unit; its keys name the families
FAMILY_ANGLES = {
    BRS: {"phi": 2.0 * math.pi},
    GHZL: {"theta": math.pi / 2.0, "phase": 2.0 * math.pi},
    THREEQ: {"gamma": math.pi, "tau": math.pi},
}
FAMILY_TAGS = tuple(FAMILY_ANGLES)


class _Default(enum.Enum):
    NOT_GIVEN = "not given"  # a FamilySpec angle's default: 0 for the family's own angles


@dataclass(frozen=True)
class FamilySpec:
    """Tagged parameter record for state generation and closed forms.

    ``m = None`` means 3 for the three-qubit family and is refused for the
    others.  A family's own angle that is not given is 0, and an angle of
    another family is refused whenever it is given, 0 included.  Each of
    the family's own angles passes ``qstate.validate_real`` and is stored
    as a Python float.
    """

    tag: str
    m: int | None = None
    phi: float | _Default = _Default.NOT_GIVEN
    theta: float | _Default = _Default.NOT_GIVEN
    phase: float | _Default = _Default.NOT_GIVEN
    gamma: float | _Default = _Default.NOT_GIVEN
    tau: float | _Default = _Default.NOT_GIVEN

    def __post_init__(self) -> None:
        if self.tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}; expected one of {FAMILY_TAGS}")
        if self.m is None and self.tag != THREEQ:
            raise ValueError(f"family {self.tag!r} requires m")
        m = 3 if self.m is None else self.m
        m = validate_count(f"m for family {self.tag!r}", m, 2, MAX_QUBITS)
        if self.tag == THREEQ and m != 3:
            raise ValueError("the three-qubit family has m fixed at 3")
        object.__setattr__(self, "m", m)
        for tag, angles in FAMILY_ANGLES.items():
            for name in angles:
                if tag != self.tag and getattr(self, name) is not _Default.NOT_GIVEN:
                    raise ValueError(f"family {self.tag!r} has no angle {name!r}")
        for name in FAMILY_ANGLES[self.tag]:
            value = 0.0 if getattr(self, name) is _Default.NOT_GIVEN else getattr(self, name)
            object.__setattr__(self, name, validate_real(f"angle {name!r}", value))


@dataclass(frozen=True)
class ClosedForm:
    """The closed-form measure E of a family spec, as ``closed_form_E`` returns it.

    One field, ``value``, a float.  ``closed_form_E`` states each formula
    and why its value is >= 0 in floating point.
    """

    value: float


@functools.lru_cache(maxsize=None)
def _n01_template(k: int) -> np.ndarray:
    """(2, 2^k) read-only uint8 counts n(i) of the k low qubits of a row, for both kinds of row.

    n(i) counts the adjacent pairs (j, j + 1), j + 1 < k, with qubit j clear
    and qubit j + 1 set.  Row 1 adds the boundary pair (k - 1, k), for a row
    whose qubit k is set.  Up to 2^k indices, row 0 is n itself for any
    number of qubits, since the bits above them are clear.
    """
    i = np.arange(1 << k, dtype=np.uint32)
    plain = np.bitwise_count((~i & (i >> 1)) & np.uint32((1 << (k - 1)) - 1))
    template = np.stack([plain, plain + ((~i >> (k - 1)) & 1)]).astype(np.uint8)
    template.flags.writeable = False
    return template


def _brs_amplitudes(m: int, phis) -> np.ndarray:
    """Chain-phase amplitudes (len(phis), 2**m), indexed from m // 2 + 1 values per phi.

    Built by the rows of ``row_view``: row h's counts are the template of
    its k low qubits (with the boundary pair when h is odd, its qubit k
    set) plus n(h) of its m - k high qubits, so no temporary is larger
    than a row.  A row is fixed by its parity and n(h), so each distinct
    row is gathered once, the first time it occurs, and copied to the rows
    that repeat it.
    """
    table = np.exp(-1j * np.asarray(phis, dtype=float)[:, None] * np.arange(m // 2 + 1))
    table *= 2.0 ** (-m / 2.0)
    amps = np.empty((len(table), 1 << m), dtype=np.complex128)
    rows = row_view(amps)[1]
    n_rows, width = rows.shape[-2:]
    low = _n01_template(width.bit_length() - 1)
    high = _n01_template(max(1, n_rows.bit_length() - 1))[0]
    counts = np.empty(width, dtype=np.intp)  # np.take's index type: one buffer, no cast per row
    first = {}  # (parity, n(h)) -> the first row h with them
    for h in range(n_rows):
        seen = first.setdefault((h & 1, int(high[h])), h)
        if seen < h:
            rows[:, h] = rows[:, seen]
            continue
        np.add(low[h & 1], high[h], out=counts)
        np.take(table, counts, axis=1, out=rows[:, h], mode="clip")  # every count is in range
    return amps


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
    angle = next(iter(FAMILY_ANGLES[spec.tag]))
    return StateVector(spec.m, family_amplitudes(spec, angle, [getattr(spec, angle)])[0])


def family_amplitudes(spec: FamilySpec, parameter: str, values) -> np.ndarray:
    """C-contiguous amplitudes (len(values), 2**m) of ``spec`` with ``parameter`` at each value.

    Row i holds the amplitudes of the spec with that angle set to
    ``values[i]``; ``family_state`` is the one-row case.  Each value passes
    ``qstate.validate_real``, the rule and the message of FamilySpec's
    angles.  The rows are not validated.
    This is the one place that dispatches on the family tag.
    """
    if parameter not in FAMILY_ANGLES[spec.tag]:
        raise ValueError(f"family {spec.tag!r} has no angle {parameter!r}")
    values = [validate_real(f"angle {parameter!r}", v) for v in values]
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
    """Closed-form entanglement measure E of a family spec, for every m.

    * ``brs``: s^2 (2m - 2 - (m - 2) s^2) / 4, s^2 = sin^2(phi/2).  The two
      end qubits have |b|^2 = cos^2(phi/2) and the m - 2 inner ones |b|^2 =
      cos^4(phi/2), so E = (m - sum |b|^2) / 4 takes this form.
    * ``ghzl``: (m/4) sin^2(2 theta).
    * ``threeq``: (2 sin^2(2 tau) + 3 sin^2(2 gamma) cos^2(2 tau)) / 4,
      with cos^2(2 tau) computed as 1 - sin^2(2 tau).

    Each value is >= 0 in floating point, not just in exact arithmetic, so
    none is checked.  A computed sine lies in [-1, 1], so each computed
    square s^2 lies in [0, 1], and rounding is monotone.  Hence (m - 2) s^2
    <= m - 2 and 2m - 2 - (m - 2) s^2 >= m for the chain-phase family,
    1 - sin^2(2 tau) >= 0 for the three-qubit family, and each value is a
    sum of products of non-negative factors.
    """
    if spec.tag == BRS:
        s2 = math.sin(spec.phi / 2.0) ** 2
        return ClosedForm(s2 * (2 * spec.m - 2 - (spec.m - 2) * s2) / 4.0)
    if spec.tag == GHZL:
        return ClosedForm(spec.m / 4.0 * math.sin(2.0 * spec.theta) ** 2)
    s2t = math.sin(2.0 * spec.tau) ** 2
    return ClosedForm(0.25 * (2.0 * s2t + 3.0 * math.sin(2.0 * spec.gamma) ** 2 * (1.0 - s2t)))
