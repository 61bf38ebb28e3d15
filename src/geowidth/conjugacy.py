"""Simultaneous conjugacy of finite lists of group elements.

``solve`` runs the bounded shortlex search justified by the linear bound
|g| <= C_star * sum(|a_i| + |b_i|) + C on the conjugator length; for free
groups an exact oracle (cyclic reduction + rotation matching) upgrades
"not found up to radius R" to a definite non-conjugacy verdict.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

from . import words
from .errors import BudgetExceededError, CapabilityError, ConfigError, DomainError
from .isometries import CayleyTranslation, Representation, orbit_distance

POLICY_INCREMENTAL = "incremental"
POLICY_BOUND = "bound"

VERDICT_CONJUGATE = "Conjugate"
VERDICT_NOT_CONJUGATE = "NotConjugate"
VERDICT_NOT_CONJUGATE_UP_TO = "NotConjugateUpTo"


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
    budget: int = 5_000_000

    def __post_init__(self):
        self.lists_a = tuple(words.reduce_word(a) for a in self.lists_a)
        self.lists_b = tuple(words.reduce_word(b) for b in self.lists_b)
        if len(self.lists_a) != len(self.lists_b) or not self.lists_a:
            raise DomainError("lists must be non-empty and of equal length")
        for w in self.lists_a + self.lists_b:
            words.check_alphabet(w, self.alphabet_size)
        if self.policy not in (POLICY_INCREMENTAL, POLICY_BOUND):
            raise ConfigError(f"unknown radius policy {self.policy!r}")

    @property
    def size(self) -> int:
        return len(self.lists_a)

    def length_sum(self) -> int:
        return sum(len(a) + len(b) for a, b in zip(self.lists_a, self.lists_b))

    def is_free_context(self) -> bool:
        """Word equality is exact free-group equality unless a matrix rep is given."""
        return self.rep is None or self.rep.kind == CayleyTranslation.kind

    def elements_equal(self, w1: words.Word, w2: words.Word) -> bool:
        if self.is_free_context():
            return w1 == w2
        return self.rep.evaluate(w1).equals(self.rep.evaluate(w2))


@dataclass
class ConjugacyCertificate:
    verdict: str
    conjugator: Optional[words.Word] = None
    radius_searched: int = 0
    transcript: list = field(default_factory=list)
    enumerated: int = 0
    seconds: float = 0.0

    @property
    def exit_code(self) -> int:
        return {VERDICT_CONJUGATE: 0, VERDICT_NOT_CONJUGATE: 3, VERDICT_NOT_CONJUGATE_UP_TO: 4}[
            self.verdict
        ]


def verify(g: words.Word, inst: ConjugacyInstance):
    """Check b_i = g^-1 a_i g for every i; returns (ok, transcript)."""
    words.check_alphabet(g, inst.alphabet_size)
    transcript = []
    ok = True
    for i, (a, b) in enumerate(zip(inst.lists_a, inst.lists_b)):
        conj = words.conjugate(g, a)
        match = inst.elements_equal(conj, b)
        transcript.append(
            {
                "index": i,
                "conjugated": words.word_to_str(conj),
                "expected": words.word_to_str(b),
                "match": match,
            }
        )
        ok = ok and match
    return ok, transcript


def search_radius(inst: ConjugacyInstance, previous: Optional[int] = None) -> int:
    """Next search radius under the instance's policy."""
    if inst.policy == POLICY_BOUND:
        if inst.c_star is None or inst.c is None:
            raise ConfigError("policy 'bound' requires the constants c_star and c")
        return min(int(math.ceil(inst.c_star * inst.length_sum() + inst.c)), inst.max_radius)
    if previous is None:
        return min(1, inst.max_radius)
    return min(max(2 * previous, 1), inst.max_radius)


def _fast_verify(g: words.Word, inst: ConjugacyInstance) -> bool:
    if inst.is_free_context():
        return all(
            words.conjugate(g, a) == b for a, b in zip(inst.lists_a, inst.lists_b)
        )
    return all(
        inst.elements_equal(words.conjugate(g, a), b)
        for a, b in zip(inst.lists_a, inst.lists_b)
    )


def solve(inst: ConjugacyInstance) -> ConjugacyCertificate:
    """Shortlex search for a conjugator within the policy's radius.

    Returns the shortlex-least conjugator when one exists within the
    searched radius.  Free-group instances that exhaust the radius are
    settled exactly by the oracle; otherwise the verdict is
    NotConjugateUpTo(radius).
    """
    t0 = time.perf_counter()
    if inst.policy == POLICY_BOUND:
        cap = search_radius(inst)
    else:
        cap = inst.max_radius
    oracle_cert = None
    if inst.is_free_context():
        # the exact oracle gates the enumeration: non-conjugate instances
        # never pay for the full ball, and conjugate ones cap the radius
        oracle_cert = free_group_oracle(inst)
        if oracle_cert.verdict == VERDICT_NOT_CONJUGATE:
            oracle_cert.seconds = time.perf_counter() - t0
            return oracle_cert
        cap = min(cap, len(oracle_cert.conjugator))
    enumerated = 0
    for g in words.enumerate_ball(inst.alphabet_size, cap):
        enumerated += 1
        if enumerated > inst.budget:
            raise BudgetExceededError(
                "conjugator search exceeded its enumeration budget",
                enumerated=enumerated,
                radius=cap,
            )
        if _fast_verify(g, inst):
            _, transcript = verify(g, inst)
            return ConjugacyCertificate(
                verdict=VERDICT_CONJUGATE,
                conjugator=g,
                radius_searched=len(g),
                transcript=transcript,
                enumerated=enumerated,
                seconds=time.perf_counter() - t0,
            )
    if oracle_cert is not None:
        # conjugate, but the least conjugator exceeds the radius cap
        oracle_cert.enumerated += enumerated
        oracle_cert.seconds = time.perf_counter() - t0
        return oracle_cert
    return ConjugacyCertificate(
        verdict=VERDICT_NOT_CONJUGATE_UP_TO,
        radius_searched=cap,
        enumerated=enumerated,
        seconds=time.perf_counter() - t0,
    )


def _oracle_m_max(inst: ConjugacyInstance, g0: words.Word, z: words.Word) -> int:
    """Cancellation bound on the centralizer power in g = g0 * z^m."""
    worst = max(
        len(words.conjugate(g0, a)) + len(b) for a, b in zip(inst.lists_a, inst.lists_b)
    )
    return int(math.ceil(worst / (2 * len(z)))) + 1


def free_group_oracle(inst: ConjugacyInstance) -> ConjugacyCertificate:
    """Exact list-conjugacy decision in a free group.

    Single-element conjugacy is solved by cyclic reduction and rotation
    matching; all conjugators of the pivot pair form a coset g0 * <z> of
    the centralizer, and the power range that can work for the remaining
    pairs is bounded by cancellation.  Never returns an UpTo verdict.
    """
    t0 = time.perf_counter()
    if not inst.is_free_context():
        raise CapabilityError("the exact oracle requires a free-group context")

    def certificate(verdict, g=None, checked=0):
        transcript = []
        if g is not None:
            _, transcript = verify(g, inst)
        return ConjugacyCertificate(
            verdict=verdict,
            conjugator=g,
            radius_searched=len(g) if g is not None else 0,
            transcript=transcript,
            enumerated=checked,
            seconds=time.perf_counter() - t0,
        )

    pivot = next((i for i, a in enumerate(inst.lists_a) if a), None)
    if pivot is None:
        # all a_i trivial: conjugate iff all b_i trivial (conjugator e)
        if all(not b for b in inst.lists_b):
            return certificate(VERDICT_CONJUGATE, g=())
        return certificate(VERDICT_NOT_CONJUGATE)
    a_k, b_k = inst.lists_a[pivot], inst.lists_b[pivot]
    p, core_a = words.cyclic_reduction(a_k)
    q, core_b = words.cyclic_reduction(b_k)
    if len(core_a) != len(core_b):
        return certificate(VERDICT_NOT_CONJUGATE)
    checked = 0
    q_inv = words.inverse(q)
    for r, rotated in words.cyclic_rotations(core_a):
        if rotated != core_b:
            continue
        # g0 conjugates a_k to b_k:  g0 = p * u * q^-1 with u = core_a[:r]
        g0 = words.multiply(words.multiply(p, core_a[:r]), q_inv)
        z = words.multiply(
            words.multiply(q, words.primitive_root(core_b)), q_inv
        )  # generator of the centralizer of b_k, conjugator-side
        m_max = _oracle_m_max(inst, g0, words.primitive_root(core_b))
        # increasing |m| keeps the returned conjugator short, which in turn
        # caps the radius of the shortlex search in solve()
        for m in sorted(range(-m_max, m_max + 1), key=lambda k: (abs(k), k)):
            g = words.multiply(g0, words.power(z, m))
            checked += 1
            if _fast_verify(g, inst):
                return certificate(VERDICT_CONJUGATE, g=g, checked=checked)
        break  # all rotation solutions lie in the single coset g0 * <z>
    return certificate(VERDICT_NOT_CONJUGATE, checked=checked)


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
