import functools
import random

import pytest

from geowidth.conjugacy import (
    ENUMERATION_BUDGET,
    POLICY_BOUND,
    VERDICT_CONJUGATE,
    VERDICT_NOT_CONJUGATE,
    VERDICT_NOT_CONJUGATE_UP_TO,
    ConjugacyInstance,
    free_group_oracle,
    orbit_bound_report,
    search_radius,
    solve,
    verify,
)
from geowidth import words
from geowidth.errors import CapabilityError, ConfigError, DomainError
from geowidth.isometries import HyperbolicIsometry, Representation
from geowidth.spaces import HyperbolicPlane
from geowidth.words import (
    ball_size,
    conjugate,
    enumerate_ball,
    inverse,
    multiply,
    parse_word,
    shortlex_key,
)

from conftest import parabolic_rep, readme_rep


@functools.lru_cache(maxsize=None)
def ball(rank, radius):
    return tuple(enumerate_ball(rank, radius))


def brute_force_least_conjugator(inst, radius):
    """Exhaustive shortlex scan, the independent reference for solve()."""
    for g in ball(inst.alphabet_size, radius):
        if all(conjugate(g, a) == b for a, b in zip(inst.lists_a, inst.lists_b)):
            return g
    return None


def free_instance(a_strs, b_strs, **kw):
    return ConjugacyInstance(
        alphabet_size=2,
        lists_a=tuple(parse_word(s) for s in a_strs),
        lists_b=tuple(parse_word(s) for s in b_strs),
        **kw,
    )


class TestVerify:
    def test_positive(self):
        inst = free_instance(["ab"], ["Babb"])  # b^-1 (ab) b
        ok, transcript = verify(parse_word("b"), inst)
        assert ok
        assert transcript[0]["match"]

    def test_negative(self):
        inst = free_instance(["ab"], ["ba"])
        ok, _ = verify(parse_word("e"), inst)
        assert not ok


class TestInstanceValidation:
    def test_mismatched_lists(self):
        with pytest.raises(DomainError):
            free_instance(["a"], ["a", "b"])

    def test_empty_lists(self):
        with pytest.raises(DomainError):
            free_instance([], [])

    def test_bad_policy(self):
        with pytest.raises(ConfigError):
            free_instance(["a"], ["a"], policy="wild")

    def test_negative_max_radius(self):
        with pytest.raises(DomainError, match="max_radius must be >= 0"):
            free_instance(["a"], ["a"], max_radius=-1)
        assert free_instance(["a"], ["a"], max_radius=0).max_radius == 0


class TestSearchRadius:
    def test_bound_policy(self):
        inst = free_instance(["ab"], ["ba"], policy=POLICY_BOUND, c_star=1.0, c=2.0)
        assert search_radius(inst) == 6  # ceil(1.0 * 4 + 2)

    def test_bound_requires_constants(self):
        inst = free_instance(["a"], ["a"], policy=POLICY_BOUND)
        with pytest.raises(ConfigError):
            search_radius(inst)

    def test_incremental_is_max_radius(self):
        inst = free_instance(["a"], ["a"], max_radius=9)
        assert search_radius(inst) == inst.max_radius

    @pytest.mark.parametrize("rank, clamped", [(2, 13), (3, 9)])
    def test_clamped_to_the_enumeration_budget(self, rank, clamped):
        inst = ConjugacyInstance(rank, ((1,),), ((1,),), max_radius=16)
        assert search_radius(inst) == clamped
        assert ball_size(rank, clamped) <= ENUMERATION_BUDGET < ball_size(rank, clamped + 1)

    def test_huge_rank_one_radius_is_clamped(self):
        inst = ConjugacyInstance(1, ((1,),), ((1,),), max_radius=10**9)
        assert search_radius(inst) == (ENUMERATION_BUDGET - 1) // 2

    def test_solve_bound_requires_constants_in_free_context(self):
        with pytest.raises(ConfigError):
            solve(free_instance(["ab"], ["ba"], policy=POLICY_BOUND))

    @pytest.mark.parametrize("kw", [{}, {"policy": POLICY_BOUND, "c_star": 1.0, "c": 2.0}])
    def test_free_solve_computes_no_clamp(self, monkeypatch, kw):
        def refuse(*args):
            raise AssertionError("the oracle needs no ball clamp")

        monkeypatch.setattr(words, "ball_size", refuse)
        cert = solve(free_instance(["ab"], ["ba"], **kw))
        assert (cert.verdict, cert.conjugator, cert.enumerated) == (VERDICT_CONJUGATE, (1,), 2)


class TestSolveFree:
    def test_identity_instance(self):
        cert = solve(free_instance(["ab", "a"], ["ab", "a"]))
        assert cert.verdict == VERDICT_CONJUGATE
        assert cert.conjugator == ()

    def test_single_pair(self):
        cert = solve(free_instance(["ab"], ["ba"]))
        assert cert.verdict == VERDICT_CONJUGATE
        # both a and B work; shortlex prefers a
        assert cert.conjugator == parse_word("a")

    def test_pair_forcing_longer_conjugator(self):
        g = parse_word("ab")
        a_list = [parse_word("aab"), parse_word("ba")]
        b_list = [conjugate(g, w) for w in a_list]
        inst = ConjugacyInstance(2, tuple(a_list), tuple(b_list))
        cert = solve(inst)
        assert cert.verdict == VERDICT_CONJUGATE
        assert cert.conjugator == brute_force_least_conjugator(inst, 4)
        ok, _ = verify(cert.conjugator, inst)
        assert ok

    def test_not_conjugate_definite(self):
        cert = solve(free_instance(["a"], ["b"]))
        assert cert.verdict == VERDICT_NOT_CONJUGATE

    def test_list_breaks_single_conjugacy(self):
        # a ~ a and b ~ B separately, but no common conjugator
        cert = solve(free_instance(["a", "b"], ["a", "B"]))
        assert cert.verdict == VERDICT_NOT_CONJUGATE

    def test_shortlex_least_among_coset(self):
        # conjugators of (a, a): the centralizer <a>; least is e
        cert = solve(free_instance(["a"], ["a"]))
        assert cert.conjugator == ()

    def test_random_instances_match_brute_force(self):
        rng = random.Random(5)
        pool = [w for w in enumerate_ball(2, 3) if w]
        for _ in range(60):
            a_list = tuple(rng.choice(pool) for _ in range(2))
            g = rng.choice(list(enumerate_ball(2, 2)))
            if rng.random() < 0.5:
                b_list = tuple(conjugate(g, a) for a in a_list)
            else:
                b_list = tuple(rng.choice(pool) for _ in range(2))
            inst = ConjugacyInstance(2, a_list, b_list)
            cert = solve(inst)
            ref = brute_force_least_conjugator(inst, 7)
            if ref is None:
                assert cert.verdict == VERDICT_NOT_CONJUGATE
            else:
                assert cert.verdict == VERDICT_CONJUGATE
                assert shortlex_key(cert.conjugator) == shortlex_key(ref)
                ok, _ = verify(cert.conjugator, inst)
                assert ok

    def test_agrees_with_oracle_without_ball(self, monkeypatch):
        def no_ball(*args):
            raise AssertionError("free contexts are decided without enumerating the ball")

        monkeypatch.setattr("geowidth.words.enumerate_ball", no_ball)
        for a_strs, b_strs in [(["aab", "ba"], ["Baabb", "ab"]), (["a", "b"], ["a", "B"]), (["ab"], ["ba"])]:
            inst = free_instance(a_strs, b_strs)
            cert, oracle = solve(inst), free_group_oracle(inst)
            assert (cert.verdict, cert.conjugator) == (oracle.verdict, oracle.conjugator)

    def test_bound_policy_does_not_cap_free_instances(self):
        # the least conjugator (ab)^2 b is longer than the bound's radius 1
        g = parse_word("ababb")
        a = (parse_word("aab"), parse_word("ba"))
        inst = ConjugacyInstance(2, a, tuple(conjugate(g, w) for w in a), policy=POLICY_BOUND, c_star=0.0, c=1.0)
        cert = solve(inst)
        assert cert.verdict == VERDICT_CONJUGATE
        assert cert.conjugator == brute_force_least_conjugator(inst, 5)


class TestOracle:
    def test_all_trivial(self):
        cert = free_group_oracle(free_instance(["e"], ["e"]))
        assert cert.verdict == VERDICT_CONJUGATE and cert.conjugator == ()
        cert = free_group_oracle(free_instance(["e"], ["a"]))
        assert cert.verdict == VERDICT_NOT_CONJUGATE

    def test_core_length_mismatch(self):
        cert = free_group_oracle(free_instance(["ab"], ["abab"]))
        assert cert.verdict == VERDICT_NOT_CONJUGATE

    def test_never_up_to(self):
        # long conjugator: oracle must still settle it definitely
        g = parse_word("ababab")
        a = parse_word("aab")
        inst = ConjugacyInstance(2, (a,), (conjugate(g, a),))
        cert = free_group_oracle(inst)
        assert cert.verdict == VERDICT_CONJUGATE
        ok, _ = verify(cert.conjugator, inst)
        assert ok

    def test_centralizer_powers(self):
        # conjugator deep in the centralizer coset of the pivot
        a1, a2 = parse_word("ab"), parse_word("a")
        g = multiply(parse_word("ab"), parse_word("ababab"))  # (ab)^4
        inst = ConjugacyInstance(2, (a1, a2), (conjugate(g, a1), conjugate(g, a2)))
        cert = free_group_oracle(inst)
        assert cert.verdict == VERDICT_CONJUGATE
        ok, _ = verify(cert.conjugator, inst)
        assert ok

    def test_requires_free_context(self):
        rho = Representation(
            HyperbolicPlane(),
            [
                HyperbolicIsometry([[2.0, 1.0], [1.0, 1.0]]),
                HyperbolicIsometry([[5.0, 2.0], [2.0, 1.0]]),
            ],
            check_samples=10,
        )
        inst = free_instance(["a"], ["a"], rep=rho)
        with pytest.raises(CapabilityError):
            free_group_oracle(inst)


def random_word(rng, rank, length, cyclic=False):
    while True:
        w = []
        while len(w) < length:
            x = rng.randint(1, rank) * rng.choice((1, -1))
            if not w or w[-1] != -x:
                w.append(x)
        if not cyclic or len(w) < 2 or w[0] != -w[-1]:
            return tuple(w)


def stress_lists(rng, rank, kind):
    """A list of 1-3 words of one kind and a conjugator for it."""
    size = rng.randint(1, 3)
    g = random_word(rng, rank, rng.randint(0, 6))
    if kind == "centralizer":
        # powers of one root under a conjugating prefix: S is all of Z or empty
        root = random_word(rng, rank, rng.randint(1, 3), cyclic=True)
        w = random_word(rng, rank, rng.randint(0, 4))
        powers = [root * rng.randint(1, 4) for _ in range(size)]
        powers = [inverse(u) if rng.random() < 0.3 else u for u in powers]
        a_list = [multiply(multiply(w, u), inverse(w)) for u in powers]
    elif kind == "long_prefix":
        # a cyclically reduced pivot under a long g gives b_1 a long q
        a_list = [random_word(rng, rank, rng.randint(1, 6), cyclic=True)]
        a_list += [random_word(rng, rank, rng.randint(0, 8)) for _ in range(size - 1)]
        g = random_word(rng, rank, 6)
    else:
        a_list = [random_word(rng, rank, rng.randint(0, 8)) for _ in range(size)]
    return tuple(a_list), g


class TestOracleStress:
    """Seeded referee: the oracle against an exhaustive shortlex scan."""

    @pytest.mark.parametrize("kind", ["generic", "centralizer", "long_prefix"])
    def test_matches_exhaustive_scan(self, kind):
        rng = random.Random(f"oracle-{kind}")
        for n in range(70):
            rank, radius = (2, 7) if n % 4 else (3, 6)
            a_list, g = stress_lists(rng, rank, kind)
            b_list = [conjugate(g, a) for a in a_list]
            # its twin, mostly not conjugate: one b_j conjugated on its own, or replaced
            j = rng.randrange(len(a_list))
            twin = list(b_list)
            if n % 2:
                twin[j] = conjugate(random_word(rng, rank, rng.randint(1, 4)), twin[j])
            else:
                twin[j] = random_word(rng, rank, len(twin[j]))
            for b in (b_list, twin):
                inst = ConjugacyInstance(rank, a_list, tuple(b))
                cert = solve(inst)
                ref = brute_force_least_conjugator(inst, radius)
                if ref is None:
                    assert cert.verdict == VERDICT_NOT_CONJUGATE or len(cert.conjugator) > radius
                else:
                    assert cert.verdict == VERDICT_CONJUGATE and cert.conjugator == ref
                if cert.conjugator is not None:
                    assert verify(cert.conjugator, inst)[0]


class TestMatrixContext:
    def rep(self):
        return Representation(
            HyperbolicPlane(),
            [
                HyperbolicIsometry([[1.0, 2.0], [0.0, 1.0]]),
                HyperbolicIsometry([[1.0, 0.0], [2.0, 1.0]]),
            ],
            check_samples=10,
        )

    def test_matrix_conjugate_found(self):
        rho = self.rep()
        inst = free_instance(["ab"], ["ba"], rep=rho, max_radius=3)
        cert = solve(inst)
        assert cert.verdict == VERDICT_CONJUGATE
        ok, _ = verify(cert.conjugator, inst)
        assert ok

    def test_up_to_verdict_without_oracle(self):
        rho = self.rep()
        inst = free_instance(["aabb"], ["bbaa"], rep=rho, max_radius=1)
        cert = solve(inst)
        # conjugator ab has length 2 > radius 1; matrix context cannot upgrade
        if cert.verdict != VERDICT_CONJUGATE:
            assert cert.verdict == VERDICT_NOT_CONJUGATE_UP_TO
            assert cert.radius_searched == 1


def reference_search(inst, radius):
    """The reference search, which evaluates g^-1 a_i g and b_i afresh for
    every candidate g: (verdict, conjugator, radius_searched, enumerated)."""
    rep = inst.rep
    for enumerated, g in enumerate(ball(inst.alphabet_size, radius), 1):
        pairs = zip(inst.lists_a, inst.lists_b)
        if all(rep.evaluate(conjugate(g, a)).equals(rep.evaluate(b)) for a, b in pairs):
            return VERDICT_CONJUGATE, g, len(g), enumerated
    return VERDICT_NOT_CONJUGATE_UP_TO, None, radius, len(ball(inst.alphabet_size, radius))


class TestMatrixSearch:
    @pytest.mark.parametrize("make_rep", [readme_rep, parabolic_rep])
    def test_matches_the_per_candidate_search(self, make_rep):
        rho, rng = make_rep(), random.Random(17)
        for _ in range(40):
            a_list = [random_word(rng, 2, rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
            g = random_word(rng, 2, rng.randint(0, 4))
            b_list = [conjugate(g, a) for a in a_list]
            if rng.random() < 0.5:
                j = rng.randrange(len(a_list))
                b_list[j] = conjugate(g, random_word(rng, 2, len(a_list[j])))
            radius = rng.randint(0, 4)
            inst = ConjugacyInstance(2, tuple(a_list), tuple(b_list), rep=rho, max_radius=radius)
            cert = solve(inst)
            got = (cert.verdict, cert.conjugator, cert.radius_searched, cert.enumerated)
            assert got == reference_search(inst, radius)
            if cert.conjugator is not None:
                ok, transcript = verify(cert.conjugator, inst)
                assert ok and all(t["match"] for t in transcript)


class TestOrbitReport:
    def test_word_length_on_cayley_tree(self):
        rho = Representation.free_on_cayley_tree(2)
        inst = free_instance(["ab"], ["ba"], rep=rho)
        y = rho.space.vertex_point(())
        rpt = orbit_bound_report(inst, y, g=parse_word("a"))
        assert rpt.orbit_sum == pytest.approx(4.0)
        assert rpt.word_sum == 4
        assert rpt.ratio == pytest.approx(1.0 / 4.0)

    def test_requires_rep(self):
        with pytest.raises(ConfigError):
            orbit_bound_report(free_instance(["a"], ["a"]), None)
