import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geowidth.conjugacy import ConjugacyInstance
from geowidth.errors import AlphabetMismatchError, DomainError
from geowidth.words import (
    IDENTITY,
    ball_size,
    check_alphabet,
    conjugate,
    cyclic_reduction,
    cyclic_rotations,
    enumerate_ball,
    inverse,
    letter_order,
    max_generator,
    multiply,
    parse_word,
    primitive_root,
    reduce_word,
    shortlex_key,
    word_to_str,
)


class TestReduction:
    def test_adjacent_cancellation(self):
        assert reduce_word([1, -1]) == IDENTITY
        assert reduce_word([1, 2, -2, -1]) == IDENTITY
        assert reduce_word([1, 2, -2, 3]) == (1, 3)

    def test_cascading(self):
        # outer pair only cancels after the inner one does
        assert reduce_word([2, 1, -1, -2, 3]) == (3,)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            reduce_word([1, 0])


class TestGroupOps:
    def test_multiply_reduces(self):
        assert multiply((1, 2), (-2, -1)) == IDENTITY
        assert multiply((1, 2), (-2, 3)) == (1, 3)

    def test_inverse(self):
        w = (1, -2, 1, 1)
        assert multiply(w, inverse(w)) == IDENTITY
        assert multiply(inverse(w), w) == IDENTITY

    def test_conjugate(self):
        # g^-1 a g with g = b, a = a: B a b
        assert conjugate((2,), (1,)) == (-2, 1, 2)

    def test_associativity_exhaustive(self):
        words = [w for w in enumerate_ball(2, 2)]
        for a, b, c in itertools.islice(itertools.product(words, repeat=3), 2000):
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


class TestOrderAndEnumeration:
    def test_ball_size_formula(self):
        # rank 2: 1, 1+4, 1+4+12, 1+4+12+36
        assert [ball_size(2, r) for r in range(4)] == [1, 5, 17, 53]

    def test_enumeration_matches_count(self):
        for n, r in [(1, 5), (2, 4), (3, 3)]:
            words = list(enumerate_ball(n, r))
            assert len(words) == ball_size(n, r)
            assert len(set(words)) == len(words)
            assert all(w == reduce_word(w) for w in words)

    def test_enumeration_is_shortlex_sorted(self):
        words = list(enumerate_ball(2, 4))
        keys = [shortlex_key(w) for w in words]
        assert keys == sorted(keys)

    def test_shortlex_letter_order(self):
        # a < A < b < B at length one
        assert [w for w in enumerate_ball(2, 1)] == [(), (1,), (-1,), (2,), (-2,)]

    def test_negative_radius(self):
        with pytest.raises(DomainError):
            list(enumerate_ball(2, -1))


class TestTextGrammar:
    def test_roundtrip(self):
        for w in enumerate_ball(2, 4):
            assert parse_word(word_to_str(w)) == w

    def test_parse_examples(self):
        assert parse_word("abA") == (1, 2, -1)
        assert parse_word("aA") == IDENTITY
        assert parse_word("e") == IDENTITY
        assert parse_word(" a b ") == (1, 2)

    def test_parse_rejects_garbage(self):
        with pytest.raises(DomainError):
            parse_word("a-b")

    def test_alphabet_check(self):
        with pytest.raises(AlphabetMismatchError):
            parse_word("abc", alphabet_size=2)
        check_alphabet((1, -2), 2)


class TestCyclicStructure:
    def test_cyclic_reduction(self):
        # B a a b = b^-1 (a a) b
        p, core = cyclic_reduction((-2, 1, 1, 2))
        assert p == (-2,)
        assert core == (1, 1)
        assert multiply(multiply(p, core), inverse(p)) == (-2, 1, 1, 2)

    def test_already_reduced(self):
        p, core = cyclic_reduction((1, 2))
        assert p == IDENTITY and core == (1, 2)

    def test_identity(self):
        assert cyclic_reduction(IDENTITY) == (IDENTITY, IDENTITY)

    def test_primitive_root(self):
        assert primitive_root((1, 2, 1, 2)) == (1, 2)
        assert primitive_root((1, 2)) == (1, 2)
        assert primitive_root((1, 1, 1)) == (1,)
        with pytest.raises(DomainError):
            primitive_root(IDENTITY)

    def test_rotations(self):
        rots = dict(cyclic_rotations((1, 2, 3)))
        assert rots == {0: (1, 2, 3), 1: (2, 3, 1), 2: (3, 1, 2)}

    def test_conjugate_length_vs_core(self):
        # every conjugate of w is at least as long as its cyclic core
        for w in enumerate_ball(2, 3):
            _, core = cyclic_reduction(w)
            for g in enumerate_ball(2, 2):
                assert len(conjugate(g, w)) >= len(core)


# ---------------------------------------------------------------------------
# the slice-based kernels against the letter-by-letter ones they replace


def reference_multiply(a, b):
    out = list(a)
    for x in b:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def reference_inverse(a):
    return tuple(-x for x in reversed(a))


def reference_conjugate(g, a):
    return reference_multiply(reference_multiply(reference_inverse(g), a), g)


def reference_max_generator(a):
    return max((abs(x) for x in a), default=0)


def reference_word_to_str(a):
    if not a:
        return "e"
    chars = []
    for x in a:
        if abs(x) > 26:
            raise DomainError("letter grammar only covers alphabets up to size 26")
        base = ord("a") if x > 0 else ord("A")
        chars.append(chr(base + abs(x) - 1))
    return "".join(chars)


def reference_enumerate_ball(alphabet_size, radius):
    letters = sorted([x for i in range(1, alphabet_size + 1) for x in (i, -i)], key=letter_order)

    def extend(prefix, remaining):
        if remaining == 0:
            yield tuple(prefix)
            return
        last = prefix[-1] if prefix else 0
        for x in letters:
            if x == -last:
                continue
            prefix.append(x)
            yield from extend(prefix, remaining - 1)
            prefix.pop()

    for k in range(radius + 1):
        yield from extend([], k)


@st.composite
def reduced_words(draw, rank, max_length=300):
    """A reduced word over ``rank`` generators: up to ``max_length`` drawn letters, freely reduced."""
    letters = draw(st.lists(st.integers(1, rank).flatmap(lambda i: st.sampled_from((i, -i))), max_size=max_length))
    return reduce_word(letters)


ranks = st.integers(1, 4)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rank=ranks)
def test_kernels_match_reference(data, rank):
    a, b, g = (data.draw(reduced_words(rank)) for _ in range(3))
    # b's head cancels a's tail for a drawn stretch
    k = data.draw(st.integers(0, len(a)))
    b = reduce_word(reference_inverse(a[len(a) - k :]) + b)
    assert multiply(a, b) == reference_multiply(a, b)
    assert multiply(a, inverse(a)) == IDENTITY
    assert inverse(a) == reference_inverse(a)
    assert conjugate(g, a) == reference_conjugate(g, a)
    assert conjugate(a, a) == a
    assert max_generator(a) == reference_max_generator(a)
    assert word_to_str(a) == reference_word_to_str(a)


def test_word_to_str_rejects_letters_past_z():
    for w in [(27,), (1, -27)]:
        with pytest.raises(DomainError):
            reference_word_to_str(w)
        with pytest.raises(DomainError):
            word_to_str(w)
    assert word_to_str((26, -26)) == reference_word_to_str((26, -26)) == "zZ"


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_enumerate_ball_matches_reference(rank):
    for radius in range(7):
        walked = list(enumerate_ball(rank, radius))
        assert walked == list(reference_enumerate_ball(rank, radius))
        assert len(walked) == ball_size(rank, radius)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rank=ranks, size=st.integers(1, 3), conjugate_pair=st.booleans())
def test_conjugated_by_agrees_with_conjugate(data, rank, size, conjugate_pair):
    g = data.draw(reduced_words(rank, 12))
    lists_a = [data.draw(reduced_words(rank, 40)) for _ in range(size)]
    lists_b = [conjugate(g, a) if conjugate_pair else data.draw(reduced_words(rank, 40)) for a in lists_a]
    inst = ConjugacyInstance(rank, tuple(lists_a), tuple(lists_b))
    h = g if data.draw(st.booleans()) else data.draw(reduced_words(rank, 12))
    expected = all(conjugate(h, a) == b for a, b in zip(inst.lists_a, inst.lists_b))
    assert inst.conjugated_by(h) == expected
    if conjugate_pair:
        assert inst.conjugated_by(g)
