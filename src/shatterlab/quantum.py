"""Small-dimension quantum objects and information bounds.

States and two-outcome measurement effects live on at most 4 qubits (matrix
dimension <= 16).  A set of states and effects materializes into a concept
class via f_state(E) = Tr(E state), which is where the learning machinery
takes over.  This module owns the information-theoretic side: von Neumann
entropy, Holevo information and its maximization over input weights
(Blahut-Arimoto fixed point), the capacity-style ceilings (depolarizing
channel, pairwise trace distance, subspace dimension), serial random access
codes read off shattering trees, and the two-state entropy inequality behind
all of them.

Logs are base 2 throughout: every implemented inequality compares entropies
to binary-entropy terms, and a common base rescales both sides identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .concepts import Concept, ConceptClass, binary_entropy
from .dimensions import ShatterTree, validate_tree
from .errors import DimMismatch, InvalidTree, NonConvergence, NotPSD, OutOfRange

_HERMITIAN_TOL = 1e-10
_MAX_DIM = 16


def _check_square(m: np.ndarray, what: str) -> int:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatch(f"{what} must be a square matrix, got shape {m.shape}")
    d = m.shape[0]
    if d < 2 or d > _MAX_DIM or d & (d - 1):
        raise DimMismatch(f"{what} dimension must be a power of two in 2..16, got {d}")
    return d


@dataclass(frozen=True)
class DensityMatrix:
    """A trace-one positive semidefinite operator on up to 4 qubits."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        _check_square(m, "density matrix")
        if np.abs(m - m.conj().T).max() > _HERMITIAN_TOL:
            raise NotPSD("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > _HERMITIAN_TOL:
            raise NotPSD(f"density matrix has trace {np.trace(m).real!r}, expected 1")
        if np.linalg.eigvalsh(m).min() < -_HERMITIAN_TOL:
            raise NotPSD("density matrix has a negative eigenvalue")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Measurement:
    """A two-outcome measurement effect: Hermitian with spectrum in [0, 1]."""

    effect: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.effect, dtype=complex)
        _check_square(e, "measurement effect")
        if np.abs(e - e.conj().T).max() > _HERMITIAN_TOL:
            raise NotPSD("measurement effect is not Hermitian")
        eig = np.linalg.eigvalsh(e)
        if eig.min() < -_HERMITIAN_TOL or eig.max() > 1.0 + _HERMITIAN_TOL:
            raise NotPSD("measurement effect spectrum must lie in [0, 1]")
        e.setflags(write=False)
        object.__setattr__(self, "effect", e)

    @property
    def dim(self) -> int:
        return self.effect.shape[0]


@dataclass(frozen=True)
class Ensemble:
    states: tuple[DensityMatrix, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise OutOfRange("an ensemble needs at least one state")
        d = self.states[0].dim
        for s in self.states:
            if s.dim != d:
                raise DimMismatch("ensemble states must share one dimension")
        if len(self.weights) != len(self.states):
            raise OutOfRange("one weight per state required")
        if not all(w >= 0 for w in self.weights):
            raise OutOfRange("ensemble weights must be nonnegative")
        if not abs(sum(self.weights) - 1.0) <= 1e-12:
            raise OutOfRange(f"ensemble weights sum to {sum(self.weights)!r}")

    @staticmethod
    def uniform(states: Sequence[DensityMatrix]) -> "Ensemble":
        n = len(states)
        return Ensemble(tuple(states), tuple(1.0 / n for _ in range(n)))

    def average_state(self) -> np.ndarray:
        return sum(w * s.matrix for w, s in zip(self.weights, self.states))


def expectation(rho: DensityMatrix, e: Measurement) -> float:
    """Tr(E rho), clamped into [0, 1] against roundoff."""
    if rho.dim != e.dim:
        raise DimMismatch(f"state dim {rho.dim} vs effect dim {e.dim}")
    val = float(np.trace(e.effect @ rho.matrix).real)
    return min(1.0, max(0.0, val))


def materialize_concept_class(
    states: Sequence[DensityMatrix], measurements: Sequence[Measurement]
) -> ConceptClass:
    """Concept i, point j holds Tr(measurements[j] states[i])."""
    if not states or not measurements:
        raise OutOfRange("need at least one state and one measurement")
    concepts = tuple(
        Concept(i, tuple(expectation(s, e) for e in measurements))
        for i, s in enumerate(states)
    )
    return ConceptClass(len(measurements), concepts)


def _entropy_of_spectrum(eig: np.ndarray) -> float:
    s = 0.0
    for lam in eig:
        if lam > 1e-14:
            s -= lam * math.log2(lam)
    return s


def von_neumann_entropy(rho: "DensityMatrix | np.ndarray") -> float:
    """-Tr(rho log2 rho) in bits."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    eig = np.linalg.eigvalsh(m)
    if eig.min() < -1e-9:
        raise NotPSD(f"entropy of a non-PSD matrix (min eigenvalue {eig.min()})")
    return _entropy_of_spectrum(np.clip(eig, 0.0, None))


def holevo_chi(ensemble: Ensemble) -> float:
    """S(average state) - sum_i p_i S(state_i), clamped at 0."""
    avg = ensemble.average_state()
    chi = von_neumann_entropy(avg) - sum(
        w * von_neumann_entropy(s) for w, s in zip(ensemble.weights, ensemble.states)
    )
    if chi < -1e-9:
        raise NotPSD(f"Holevo information came out {chi}; inputs are inconsistent")
    return max(0.0, chi)


def _relative_entropy_bits(rho: np.ndarray, sigma_logm: np.ndarray, s_rho: float) -> float:
    """D(rho || sigma) in bits given log2(sigma) on sigma's support and S(rho)."""
    cross = float(np.trace(rho @ sigma_logm).real)
    return -s_rho - cross


def max_holevo(
    states: Sequence[DensityMatrix],
    tol: float = 1e-6,
    max_iter: int = 10**5,
) -> tuple[float, tuple[float, ...]]:
    """Maximize Holevo information over input weights.

    Multiplicative fixed-point iteration: each weight is scaled by
    exp(D(state_i || average)) with the relative entropy measured in bits,
    then renormalized; at a maximizer all supported states share the same
    relative entropy, so the weights are stationary.  Stops when successive
    chi values improve by less than tol.
    """
    if not states:
        raise OutOfRange("need at least one state")
    if len(states) > 16:
        raise OutOfRange("weight maximization is limited to 16 states")
    if not tol > 0:
        raise OutOfRange(f"tol must be positive, got {tol!r}")
    n = len(states)
    if n == 1:
        return 0.0, (1.0,)
    mats = [s.matrix for s in states]
    entropies = [von_neumann_entropy(s) for s in states]
    q = np.full(n, 1.0 / n)
    chi_old = -1.0
    for _ in range(max_iter):
        avg = sum(w * m for w, m in zip(q, mats))
        eig, vec = np.linalg.eigh(avg)
        support = eig > 1e-14
        logm = (vec[:, support] * np.log2(eig[support])) @ vec[:, support].conj().T
        d_bits = np.array(
            [_relative_entropy_bits(m, logm, s) for m, s in zip(mats, entropies)]
        )
        chi = float(np.dot(q, d_bits))
        if abs(chi - chi_old) < tol:
            return chi, tuple(q)
        chi_old = chi
        q = q * np.exp(d_bits)
        q /= q.sum()
    raise NonConvergence(f"weight maximization did not converge in {max_iter} iterations")


def sfat_holevo_bound(chi_star: float, p: float) -> float:
    """chi / (1 - H(p)) for p in (1/2, 1]."""
    if not 0.5 < p <= 1.0:
        raise OutOfRange(f"p must lie in (1/2, 1], got {p}")
    if chi_star < 0:
        raise OutOfRange(f"chi must be nonnegative, got {chi_star}")
    return chi_star / (1.0 - binary_entropy(p))


def depolarizing_capacity_bound(d: int, lam: float) -> float:
    """log2(d) minus the minimal output entropy of the depolarizing channel."""
    if d < 2:
        raise OutOfRange(f"dimension must be at least 2, got {d}")
    if not 0.0 <= lam <= 1.0:
        raise OutOfRange(f"lambda must lie in [0, 1], got {lam}")
    top = lam + (1.0 - lam) / d
    rest = (1.0 - lam) / d
    s_min = 0.0
    if top > 0:
        s_min -= top * math.log2(top)
    if rest > 0:
        s_min -= (d - 1) * rest * math.log2(rest)
    return math.log2(d) - s_min


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference."""
    if a.dim != b.dim:
        raise DimMismatch("trace distance needs equal dimensions")
    eig = np.linalg.eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.abs(eig).sum())


def audenaert_bound(ensemble: Ensemble) -> float:
    """v_m * log2(#states), v_m the maximal pairwise trace distance."""
    n = len(ensemble.states)
    if n == 1:
        return 0.0
    v_m = max(
        trace_distance(ensemble.states[i], ensemble.states[j])
        for i in range(n)
        for j in range(i + 1, n)
    )
    return v_m * math.log2(n)


def junta_bound(k: int) -> float:
    """log2(k): the Holevo ceiling for states confined to a k-dim subspace."""
    if k < 1:
        raise OutOfRange(f"subspace dimension must be at least 1, got {k}")
    return math.log2(k)


def helstrom_probability(sigma0: DensityMatrix, sigma1: DensityMatrix) -> float:
    """Optimal two-state distinguishing success 1/2 + trace distance / 2."""
    return 0.5 + 0.5 * trace_distance(sigma0, sigma1)


def nayak_inequality_check(sigma0: DensityMatrix, sigma1: DensityMatrix) -> bool:
    """S(mix) >= avg entropy + (1 - H(p)) with p the Helstrom optimum."""
    if sigma0.dim != sigma1.dim:
        raise DimMismatch("the two states must share a dimension")
    p = helstrom_probability(sigma0, sigma1)
    mix = 0.5 * (sigma0.matrix + sigma1.matrix)
    lhs = von_neumann_entropy(mix)
    rhs = 0.5 * (von_neumann_entropy(sigma0) + von_neumann_entropy(sigma1)) + (
        1.0 - binary_entropy(p)
    )
    return lhs >= rhs - 1e-9


def quantum_ball_member(
    sigma_prime: DensityMatrix,
    sigma: DensityMatrix,
    eps: float,
    measurements: Sequence[Measurement],
) -> bool:
    """Whether sigma' matches sigma within eps on every listed effect."""
    return all(
        abs(expectation(sigma, e) - expectation(sigma_prime, e)) <= eps
        for e in measurements
    )


# ---------------------------------------------------------------------------
# Serial random access codes from shattering trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SracCode:
    """Codewords (bit strings, root-down order) mapped to state ids, decoded
    by thresholding exact expectations at each ancestor node of the tree.

    Root-down bit j is recovered from the node reached via bits 1..j-1, so in
    the serial-decoding convention (bit i may use later bits) the codeword is
    read with indices reversed.
    """

    k: int
    code: dict[str, int]
    tree: ShatterTree
    zeta: float

    def decode(self, states: Sequence[DensityMatrix], measurements: Sequence[Measurement], state_id: int) -> str:
        bits = []
        node = self.tree
        while not node.is_leaf:
            val = expectation(states[state_id], measurements[node.x])
            bit = "1" if val > node.a else "0"
            bits.append(bit)
            node = node.right if bit == "1" else node.left
        return "".join(bits)

    def verify_separation(
        self, states: Sequence[DensityMatrix], measurements: Sequence[Measurement]
    ) -> bool:
        """Exact per-level separation: every codeword clears every ancestor
        threshold by the margin, on the side its bit dictates."""
        try:
            validate_tree(materialize_concept_class(states, measurements), self.tree, self.zeta)
        except InvalidTree:
            return False
        return True


def srac_from_tree(
    states: Sequence[DensityMatrix],
    measurements: Sequence[Measurement],
    witness: ShatterTree,
    zeta: float,
) -> SracCode:
    """Read a serial random access code off a validated shattering tree."""
    cls = materialize_concept_class(states, measurements)
    try:
        validate_tree(cls, witness, zeta)
    except Exception as exc:
        raise InvalidTree(f"witness does not validate at margin {zeta}: {exc}")
    code = {path: cid for path, cid in witness.leaf_paths()}
    return SracCode(k=witness.depth(), code=code, tree=witness, zeta=zeta)


# ---------------------------------------------------------------------------
# Random generation and JSON interchange
# ---------------------------------------------------------------------------

def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Ginibre-induced random state of the given (power-of-two) dimension."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(m)


def random_pure_state(dim: int, rng: np.random.Generator) -> DensityMatrix:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def random_basis_measurements(
    dim: int, rng: np.random.Generator, count: int
) -> list[Measurement]:
    """Rank-one projectors drawn from Haar-random orthonormal bases."""
    out: list[Measurement] = []
    while len(out) < count:
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(g)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        for col in range(dim):
            if len(out) >= count:
                break
            v = q[:, col]
            out.append(Measurement(np.outer(v, v.conj())))
    return out


def computational_projector(dim: int, index: int) -> Measurement:
    e = np.zeros((dim, dim), dtype=complex)
    e[index, index] = 1.0
    return Measurement(e)


def _matrix_to_json(m: np.ndarray) -> str:
    return json.dumps(
        {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}, sort_keys=True
    )


def _matrix_from_json(text: str) -> np.ndarray:
    data = json.loads(text)
    m = np.array(data["re"], dtype=float) + 1j * np.array(data["im"], dtype=float)
    if m.shape != (data["dim"], data["dim"]):
        raise DimMismatch("matrix entries do not match the declared dimension")
    return m


def state_to_json(rho: DensityMatrix) -> str:
    return _matrix_to_json(rho.matrix)


def state_from_json(text: str) -> DensityMatrix:
    return DensityMatrix(_matrix_from_json(text))


def measurement_to_json(e: Measurement) -> str:
    return _matrix_to_json(e.effect)


def measurement_from_json(text: str) -> Measurement:
    return Measurement(_matrix_from_json(text))
