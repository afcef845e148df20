"""Small-dimension quantum objects and information bounds.

States and two-outcome measurement effects live on at most 4 qubits (matrix
dimension <= 16).  A set of states and effects materializes into a concept
class via f_state(E) = Tr(E state), which is where the learning machinery
takes over.  This module owns the information-theoretic side: von Neumann
entropy, Holevo information and its maximization over input weights, the
capacity-style ceilings (depolarizing channel, pairwise trace distance),
serial random access codes read off shattering trees, and the two-state
entropy inequality behind all of them.  Pair work runs as one stacked numpy
call per state, which gives each pair its own call's result bit for bit.

The maximal Holevo information chi* is certified, not just approached.  By
the divergence-radius form of chi* (Schumacher and Westmoreland, "Optimal
signal ensembles"), any weights q give chi(q) <= chi* <= max_i D(rho_i ||
average_q), so `max_holevo` stops once that duality gap, plus a stated
roundoff slack, is below tol and returns it.  Its step is an active-set
Newton step on the simplex, with the exact Hessian of chi; Nagaoka's quantum
Blahut-Arimoto iteration, over-relaxed as in Matz and Duhamel (2004), is the
safeguard when the Newton step fails to raise chi.

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


def _hermitian(a, what: str) -> tuple[np.ndarray, np.ndarray]:
    """`a` as a complex matrix, and its eigenvalues; raises unless its
    entries are finite and it is square, of power-of-two size in 2..16, and
    Hermitian."""
    m = np.asarray(a, dtype=complex)
    if not np.isfinite(m).all():
        raise NotPSD(f"{what} has a non-finite entry")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatch(f"{what} must be a square matrix, got shape {m.shape}")
    d = m.shape[0]
    if d < 2 or d > _MAX_DIM or d & (d - 1):
        raise DimMismatch(f"{what} dimension must be a power of two in 2..16, got {d}")
    if np.abs(m - m.conj().T).max() > _HERMITIAN_TOL:
        raise NotPSD(f"{what} is not Hermitian")
    return m, np.linalg.eigvalsh(m)


@dataclass(frozen=True)
class DensityMatrix:
    """A trace-one positive semidefinite operator on up to 4 qubits."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m, eig = _hermitian(self.matrix, "density matrix")
        if abs(np.trace(m).real - 1.0) > _HERMITIAN_TOL:
            raise NotPSD(f"density matrix has trace {np.trace(m).real!r}, expected 1")
        if eig.min() < -_HERMITIAN_TOL:
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
        e, eig = _hermitian(self.effect, "measurement effect")
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
    dims = sorted({s.dim for s in states} | {e.dim for e in measurements})
    if len(dims) > 1:
        raise DimMismatch(f"states and effects must share one dimension, got {dims}")
    effects = np.array([e.effect for e in measurements])
    # one stacked product per state, whose slices are the expectation's products
    concepts = tuple(
        Concept(i, tuple(min(1.0, max(0.0, v)) for v in
                         np.trace(effects @ s.matrix, axis1=1, axis2=2).real.tolist()))
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


#: Over-relaxation factor of the safeguard's first Blahut-Arimoto step; the
#: plain step follows whenever it fails to raise chi.
_OVER_RELAX = 4.0
#: Eigenvalues of the average are floored here before the log.  The floored
#: operator over its trace (at most 1 + 16 * floor) is a full-rank state; the
#: bound max_i D(state_i || it) >= chi* exceeds the computed max_i D_i by at
#: most log2 of that trace, so zero weights keep the certificate too.
_EIG_FLOOR = 1e-15
#: Added to every reported gap: it covers the floor's trace (< 2.4e-14 bits)
#: and the roundoff of evaluating chi and the divergences (a few 1e-15).
_GAP_SLACK = 1e-13


def max_holevo(
    states: Sequence[DensityMatrix],
    tol: float = 1e-6,
    max_iter: int = 10**5,
) -> tuple[float, tuple[float, ...], float, int]:
    """Maximize Holevo information over input weights, with a certificate.

    Returns ``(chi, weights, gap, iterations)``.  ``chi`` is the Holevo
    information of ``states`` under ``weights``, and ``gap`` is
    max_i D(state_i || average) - chi plus a stated roundoff slack, with D
    the relative entropy in bits.  Since chi* = min over sigma of
    max_i D(state_i || sigma), the divergence radius of the set,
    chi <= chi* <= chi + gap, and the iteration stops once gap < tol.
    ``iterations`` counts the evaluations of chi and the divergences, one
    eigendecomposition of the average state each.

    Each step first tries a Newton step on the simplex: the exact Hessian of
    chi comes from the evaluation's eigendecomposition, the KKT system is
    solved (least squares) on the support and the zero weights whose
    divergence exceeds chi, and a ratio test drops a weight that reaches 0.
    The safeguard is Blahut-Arimoto: scale weight i by exp(mu * (D_i - max
    D)) and renormalize, with mu = 4, then mu = 1.  The first trial that
    raises chi is kept; near chi*, where a rise is below roundoff, so is one
    that holds chi to within the slack and shrinks the gap.  Raises
    ``NonConvergence`` after ``max_iter`` evaluations, and ``OutOfRange`` for
    a tol not above the slack or not finite: an infinite tol would stop at
    the first evaluation without solving for chi*.
    """
    if not states:
        raise OutOfRange("need at least one state")
    if len(states) > 16:
        raise OutOfRange("weight maximization is limited to 16 states")
    if not _GAP_SLACK < tol < math.inf:
        raise OutOfRange(f"tol must be finite and exceed {_GAP_SLACK}, got {tol!r}")
    n = len(states)
    if n == 1:
        return 0.0, (1.0,), 0.0, 0
    d = states[0].dim
    if any(s.dim != d for s in states):
        raise DimMismatch("states must share one dimension")
    rho = np.array([s.matrix for s in states])
    entropies = np.array([von_neumann_entropy(s) for s in states])

    def evaluate(q: np.ndarray):
        eig, vec = np.linalg.eigh(np.tensordot(q, rho, 1))
        lam = np.maximum(eig, _EIG_FLOOR)
        rot = vec.conj().T @ rho @ vec  # each state in the average's eigenbasis
        div = -entropies - rot.diagonal(0, 1, 2).real @ np.log2(lam)
        return div, float(q @ div), lam, rot

    def newton(q, div, chi, lam, rot):
        act = (q > 0) | (div > chi)
        # ln(a / b) / (a - b), the divided difference of ln, via log1p
        x = (lam[:, None] - lam) / lam
        dd = np.divide(np.log1p(x), x, out=np.ones_like(x), where=x != 0) / lam
        r = rot[act].reshape(-1, d * d)
        kkt = np.ones((len(r) + 1,) * 2)
        kkt[-1, -1] = 0.0
        kkt[:-1, :-1] = (r.conj() * dd.ravel() @ r.T).real  # -ln 2 * Hessian
        rhs = np.append(math.log(2) * div[act], 0.0)
        # the least-squares residual lies in the Hessian's null space, where
        # chi is linear: it carries the rise that no curvature bounds
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        step = np.zeros(n)
        step[act] = (sol + rhs - kkt @ sol)[:-1]
        shrink = (step < 0) & (q > 0)
        ratio = np.divide(q, -step, out=np.full(n, np.inf), where=shrink)
        t = min(1.0, ratio.min())
        trial = np.maximum(q + t * step, 0.0)
        trial[ratio <= t] = 0.0
        return trial

    q = np.full(n, 1.0 / n)
    div, chi, lam, rot = evaluate(q)
    iterations = 1
    while True:
        top = float(div.max())
        gap = max(top - chi, 0.0) + _GAP_SLACK
        if gap < tol:
            return max(chi, 0.0), tuple(q), gap, iterations
        step = div - top
        trials = (newton(q, div, chi, lam, rot), q * np.exp(_OVER_RELAX * step), q * np.exp(step))
        for trial in trials:
            if iterations >= max_iter:
                raise NonConvergence(
                    f"weight maximization did not converge in {max_iter} "
                    f"iterations (gap {gap!r})"
                )
            trial /= trial.sum()
            found = evaluate(trial)
            iterations += 1
            rise = found[1] - chi
            if rise > 0 or (rise > -_GAP_SLACK and found[0].max() - found[1] < top - chi):
                break
        q, (div, chi, lam, rot) = trial, found


def sfat_holevo_bound(chi_star: float, p: float) -> float:
    """chi / (1 - H(p)) for p in (1/2, 1]."""
    if not 0.5 < p <= 1.0:
        raise OutOfRange(f"p must lie in (1/2, 1], got {p}")
    if not chi_star >= 0:
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
    rho = np.array([s.matrix for s in ensemble.states])
    # one stacked eigvalsh per state i, over its differences with later states
    v_m = max(
        0.5 * float(np.abs(np.linalg.eigvalsh(rho[i] - rho[i + 1:])).sum(axis=1).max())
        for i in range(n - 1)
    )
    return v_m * math.log2(n)


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
