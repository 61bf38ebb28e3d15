"""Simultaneous conjugacy of finite lists of group elements.

In a free-group context ``solve`` is decided by ``free_group_oracle``, which
reads the shortlex-least conjugator off the centralizer coset of one pair.
In a matrix context it runs the bounded shortlex search justified by the
linear bound |g| <= C_star * sum(|a_i| + |b_i|) + C on the conjugator
length, clamped to the largest ball of at most ``ENUMERATION_BUDGET`` words;
an exhausted radius gives NotConjugateUpTo.  It evaluates each a_i and b_i
once and tests A_i g = g B_i, as ``verify`` does, from which the command
line takes its transcript.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from . import words
from .errors import CapabilityError, ConfigError, DomainError
from .isometries import CayleyTranslation, Representation, orbit_distance

POLICY_INCREMENTAL = "incremental"
POLICY_BOUND = "bound"

VERDICT_CONJUGATE = "Conjugate"
VERDICT_NOT_CONJUGATE = "NotConjugate"
VERDICT_NOT_CONJUGATE_UP_TO = "NotConjugateUpTo"
ENUMERATION_BUDGET = 5_000_000  # words a matrix-context search may enumerate


@dataclass
class ConjugacyInstance:
    alphabet_size: int
    lists_a: tuple
    lists_b: tuple
    rep: Optional[Representation] = None
    policy: str = POLICY_INCREMENTAL
    c_star: Optional[float] = None
    c: Optional[float] = None
    max_radius: int = 16

    def __post_init__(self):
        self.lists_a = tuple(words.reduce_word(a) for a in self.lists_a)
        self.lists_b = tuple(words.reduce_word(b) for b in self.lists_b)
        if len(self.lists_a) != len(self.lists_b) or not self.lists_a:
            raise DomainError("lists must be non-empty and of equal length")
        for w in self.lists_a + self.lists_b:
            words.check_alphabet(w, self.alphabet_size)
        if self.policy not in (POLICY_INCREMENTAL, POLICY_BOUND):
            raise ConfigError(f"unknown radius policy {self.policy!r}")
        if self.max_radius < 0:
            raise DomainError("max_radius must be >= 0")

    def length_sum(self) -> int:
        return sum(len(a) + len(b) for a, b in zip(self.lists_a, self.lists_b))

    def is_free_context(self) -> bool:
        """Word equality is exact free-group equality unless a matrix rep is given."""
        return self.rep is None or self.rep.kind == CayleyTranslation.kind

    def conjugated_by(self, g: words.Word) -> bool:
        """Whether b_i = g^-1 a_i g, tested as g b_i = a_i g, for every i, as free-group words."""
        return all(words.multiply(g, b) == words.multiply(a, g) for a, b in zip(self.lists_a, self.lists_b))

    def evaluated_pairs(self) -> list:
        """The isometries (A_i, B_i) of the pairs under the representation."""
        return [(self.rep.evaluate(a), self.rep.evaluate(b)) for a, b in zip(self.lists_a, self.lists_b)]


def _matches(pairs, g_iso):
    """A_i g = g B_i, pair by pair, for g's isometry: b_i = g^-1 a_i g in the group."""
    return (a.compose(g_iso).equals(g_iso.compose(b)) for a, b in pairs)


@dataclass
class ConjugacyCertificate:
    verdict: str
    conjugator: Optional[words.Word] = None
    radius_searched: int = 0
    enumerated: int = 0
    seconds: float = 0.0


def verify(g: words.Word, inst: ConjugacyInstance):
    """Check b_i = g^-1 a_i g for every i (g reduced), as words or as A_i g = g B_i; returns (ok, transcript)."""
    words.check_alphabet(g, inst.alphabet_size)
    conjugated = [words.conjugate(g, a) for a in inst.lists_a]
    if inst.is_free_context():
        matches = [c == b for c, b in zip(conjugated, inst.lists_b)]
    else:
        matches = list(_matches(inst.evaluated_pairs(), inst.rep.evaluate(g)))
    transcript = [
        {"index": i, "conjugated": words.word_to_str(c), "expected": words.word_to_str(b), "match": match}
        for i, (c, b, match) in enumerate(zip(conjugated, inst.lists_b, matches))
    ]
    return all(matches), transcript


def _certificate(t0, verdict, g=None, enumerated=0, radius=0) -> ConjugacyCertificate:
    """A certificate timed from t0; a conjugator g brings its radius |g|."""
    return ConjugacyCertificate(
        verdict=verdict,
        conjugator=g,
        radius_searched=radius if g is None else len(g),
        enumerated=enumerated,
        seconds=time.perf_counter() - t0,
    )


def _policy_radius(inst: ConjugacyInstance) -> int:
    """Radius of the shortlex search under the instance's policy, unclamped."""
    if inst.policy == POLICY_INCREMENTAL:
        return inst.max_radius
    if inst.c_star is None or inst.c is None:
        raise ConfigError("policy 'bound' requires the constants c_star and c")
    return min(int(math.ceil(inst.c_star * inst.length_sum() + inst.c)), inst.max_radius)


def search_radius(inst: ConjugacyInstance) -> int:
    """Radius of the shortlex search under the instance's policy, clamped to
    the largest ball of at most ``ENUMERATION_BUDGET`` words."""
    radius = _policy_radius(inst)
    too_big = (r for r in range(radius) if words.ball_size(inst.alphabet_size, r + 1) > ENUMERATION_BUDGET)
    return next(too_big, radius)


def solve(inst: ConjugacyInstance) -> ConjugacyCertificate:
    """Decide a list instance and certify the verdict.

    A free-group context is decided by :func:`free_group_oracle` whatever
    the radius, once the policy has its constants.  A matrix context returns
    the first conjugator in the ball of radius :func:`search_radius`, or NotConjugateUpTo.
    """
    if inst.is_free_context():
        _policy_radius(inst)  # for its ConfigError only: the oracle needs no radius
        return free_group_oracle(inst)
    cap = search_radius(inst)
    t0 = time.perf_counter()
    pairs = inst.evaluated_pairs()
    for enumerated, g in enumerate(words.enumerate_ball(inst.alphabet_size, cap), 1):
        if all(_matches(pairs, inst.rep.evaluate(g))):
            return _certificate(t0, VERDICT_CONJUGATE, g, enumerated)
    return _certificate(t0, VERDICT_NOT_CONJUGATE_UP_TO, enumerated=enumerated, radius=cap)


def _oracle_m_max(inst: ConjugacyInstance, g0: words.Word, root: words.Word) -> int:
    """Window [-M, M] holding m when S = {m} (see :func:`free_group_oracle`).

    M = ceil(W / (2 tau)) + 1 with W = max_i (|c_i| + |b_i|) and tau = |root|,
    the translation length of z = q root q^-1 on the Cayley tree T; q only
    sets how far e lies from the axis A of z, so |z| is not the divisor.

    Proof.  Some S_i = {m}, so b_i = z^-m c_i z^m and c_i does not commute
    with z (else S_i is Z or empty).  c_i acts on T as a hyperbolic isometry
    with an axis B, and d(y, c_i y) = ||c_i|| + 2 d(y, B) (Culler & Morgan,
    Proc. LMS 1987).  The projection J of B onto A is a point or A n B, of
    length l < ||c_i|| + tau: were it not, c_i z c_i^-1 z^-1 would fix the
    end of J that both translate toward (after inverting either), but F acts
    freely on T and c_i does not commute with z.  As d(y, B) >= d(proj_A y, J)
    and the projections of e and z^m e lie |m| tau apart on A,
    |c_i| + |b_i| = d(e, c_i e) + d(z^m e, c_i z^m e) >= 2 ||c_i|| +
    2 (|m| tau - l) > 2 tau (|m| - 1), so |m| < W / (2 tau) + 1.
    """
    pairs = zip(inst.lists_a, inst.lists_b)
    worst = max(len(words.conjugate(g0, a)) + len(b) for a, b in pairs)
    return int(math.ceil(worst / (2 * len(root)))) + 1


def free_group_oracle(inst: ConjugacyInstance) -> ConjugacyCertificate:
    """Exact list conjugacy in a free group F: the shortlex-least conjugator,
    or NotConjugate, never an UpTo verdict.

    Rotation matching finds a conjugator g0 of the pivot pair (a_k, b_k), the
    first with a_k != e.  Every conjugator of the list lies in g0 * <z>, where
    z = q root q^-1 generates the centralizer of b_k = q core_b q^-1 (Bridson
    & Howie, "Conjugacy of finite subsets in hyperbolic groups", IJAC 2005).
    Let S hold the m for which g0 * z^m conjugates the list, and S_i those
    for pair i: z^-m c_i z^m = b_i with c_i = g0^-1 a_i g0.  Two values in
    S_i make c_i commute with a power of z, hence with z, as centralizers in
    F are cyclic; then the condition reads c_i = b_i for every m.  So each
    S_i, and S, is all of Z, one value or empty.

    The scan tries m by increasing |m| over the window of
    :func:`_oracle_m_max`.  A hit at m != 0 is S = {m}; a hit at m = 0 is
    S = {0}, or S = Z if g0 * z passes too; no hit is S empty.

    If S = Z, minimise |g0 z^m| = d(x, z^m e) with x = g0^-1 e.  z translates
    its axis A by tau >= 1; if x and z^m e lie k and h from A, over the
    positions s and s0 + m tau, then |g0 z^m| = k + h + |s - s0 - m tau| where
    these differ and at most k + h at the one m where they may agree.  So
    the length falls strictly to a minimum at one m or two adjacent ones,
    then rises strictly: walk downhill from m = 0 both ways, and break a tie
    by shortlex order.  ``enumerated`` counts the candidates checked.
    """
    t0 = time.perf_counter()
    if not inst.is_free_context():
        raise CapabilityError("the exact oracle requires a free-group context")
    pivot = next((i for i, a in enumerate(inst.lists_a) if a), None)
    if pivot is None:
        # all a_i trivial: conjugate iff all b_i trivial (conjugator e)
        if all(not b for b in inst.lists_b):
            return _certificate(t0, VERDICT_CONJUGATE, g=())
        return _certificate(t0, VERDICT_NOT_CONJUGATE)
    p, core_a = words.cyclic_reduction(inst.lists_a[pivot])
    q, core_b = words.cyclic_reduction(inst.lists_b[pivot])
    matches = (r for r, rotated in words.cyclic_rotations(core_a) if rotated == core_b)
    r = next(matches, None) if len(core_a) == len(core_b) else None
    if r is None:
        return _certificate(t0, VERDICT_NOT_CONJUGATE)
    # g0 conjugates a_k to b_k:  g0 = p * u * q^-1 with u = core_a[:r]
    q_inv = words.inverse(q)
    root = words.primitive_root(core_b)
    g0 = words.multiply(words.multiply(p, core_a[:r]), q_inv)
    z = words.multiply(words.multiply(q, root), q_inv)
    z_inv = words.inverse(z)
    checked = 1
    if inst.conjugated_by(g0):
        checked += 1
        if not inst.conjugated_by(words.multiply(g0, z)):
            return _certificate(t0, VERDICT_CONJUGATE, g0, checked)
        least = g0
        for step in (z, z_inv):
            g = g0
            while len(nxt := words.multiply(g, step)) <= len(g):
                g = nxt
                least = min(least, g, key=words.shortlex_key)
        return _certificate(t0, VERDICT_CONJUGATE, least, checked)
    down = up = g0
    for _ in range(_oracle_m_max(inst, g0, root)):
        down, up = words.multiply(down, z_inv), words.multiply(up, z)
        for g in (down, up):
            checked += 1
            if inst.conjugated_by(g):
                return _certificate(t0, VERDICT_CONJUGATE, g, checked)
    return _certificate(t0, VERDICT_NOT_CONJUGATE, enumerated=checked)


@dataclass
class OrbitBoundReport:
    orbit_sum: float
    word_sum: int
    ratio: Optional[float]


def orbit_bound_report(
    inst: ConjugacyInstance, y, g: Optional[words.Word] = None
) -> OrbitBoundReport:
    """Orbit-metric sums for the lists and, when a conjugator is known,
    the empirical constant sample d_y(g, e) / orbit_sum."""
    if inst.rep is None:
        raise ConfigError("orbit report requires a representation")
    rho = inst.rep
    orbit_sum = sum(
        orbit_distance(rho, y, a, ()) + orbit_distance(rho, y, b, ())
        for a, b in zip(inst.lists_a, inst.lists_b)
    )
    word_sum = inst.length_sum()
    ratio = None
    if g is not None and orbit_sum > 1e-15:
        ratio = orbit_distance(rho, y, g, ()) / orbit_sum
    return OrbitBoundReport(orbit_sum=orbit_sum, word_sum=word_sum, ratio=ratio)
