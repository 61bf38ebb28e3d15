"""Freely reduced words over a finite alphabet, for free-group arithmetic.

A word is a tuple of nonzero signed generator indices: ``+i`` is the i-th
generator (1-based), ``-i`` its inverse.  All public functions keep words
freely reduced, so tuple equality is group-element equality in the free
group.

The text grammar maps generator ``i`` to the lowercase letter
``chr(ord('a') + i - 1)`` and its inverse to the uppercase letter, e.g.
``"abA"`` is a * b * a^-1.

Shortlex order: shorter words first; within a length, letters compare as
a < A < b < B < ... (generator before its inverse).
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Sequence, Tuple

from .errors import AlphabetMismatchError, DomainError

Word = Tuple[int, ...]

IDENTITY: Word = ()
_LETTER_TEXT = {s * i: chr(ord(base) + i - 1) for i in range(1, 27) for s, base in ((1, "a"), (-1, "A"))}


def reduce_word(letters: Sequence[int]) -> Word:
    """Freely reduce a letter sequence (cancel adjacent x x^-1 pairs)."""
    out: list[int] = []
    for x in letters:
        if x == 0:
            raise DomainError("letter 0 is not a valid signed generator index")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def multiply(a: Word, b: Word) -> Word:
    """Product of reduced tuples a and b, reduced: only the k letters with
    a[-1 - i] == -b[i] cancel, so it is a[:len(a) - k] + b[k:]."""
    if not a or not b or a[-1] != -b[0]:
        return a + b
    k, n, last = 1, min(len(a), len(b)), len(a) - 1
    while k < n and a[last - k] == -b[k]:
        k += 1
    return a[: last + 1 - k] + b[k:]


def inverse(a: Word) -> Word:
    return tuple(map(operator.neg, reversed(a)))


def conjugate(g: Word, a: Word) -> Word:
    """g^-1 * a * g, for reduced tuples g and a."""
    return multiply(multiply(inverse(g), a), g)


def max_generator(a: Word) -> int:
    return max(map(abs, a), default=0)


def check_alphabet(a: Word, alphabet_size: int) -> None:
    if max_generator(a) > alphabet_size:
        raise AlphabetMismatchError(f"word {word_to_str(a)} uses generators beyond alphabet of size {alphabet_size}")


def letter_order(x: int) -> int:
    """Position of a signed letter in the order a < A < b < B < ..."""
    return 2 * (abs(x) - 1) + (0 if x > 0 else 1)


def shortlex_key(a: Word):
    return (len(a), tuple(letter_order(x) for x in a))


def ball_size(alphabet_size: int, radius: int) -> int:
    """Number of freely reduced words of length <= radius: 2n (2n - 1)^(k - 1)
    have length k >= 1, so 1 + n ((2n - 1)^r - 1) / (n - 1), or 1 + 2r for n = 1."""
    n, r = alphabet_size, max(radius, 0)
    if n == 1:
        return 1 + 2 * r
    return 1 + n * ((2 * n - 1) ** r - 1) // (n - 1)


def enumerate_ball(alphabet_size: int, radius: int) -> Iterator[Word]:
    """Yield every freely reduced word of length <= radius in shortlex order.

    Length k chains k generators, one per letter, each extending the prefixes
    of the one before; each holds one prefix, so memory stays O(radius).
    """
    if radius < 0:
        raise DomainError("radius must be >= 0")
    letters = sorted((x for i in range(1, alphabet_size + 1) for x in (i, -i)), key=letter_order)
    follow = {x: [(y,) for y in letters if y != -x] for x in letters}
    yield IDENTITY
    for k in range(1, radius + 1):
        level: Iterator[Word] = ((x,) for x in letters)
        for _ in range(k - 1):
            level = (w + y for w in level for y in follow[w[-1]])
        yield from level


def parse_word(text: str, alphabet_size: int | None = None) -> Word:
    """Parse the letter grammar: a-z generators, A-Z inverses.

    The whole strings ``"e"`` and ``"1"`` denote the identity; inside a
    longer word the letter e is the fifth generator as usual.
    """
    stripped = "".join(text.split())
    if stripped in ("e", "1", ""):
        return IDENTITY
    letters = []
    for ch in stripped:
        if "a" <= ch <= "z":
            letters.append(ord(ch) - ord("a") + 1)
        elif "A" <= ch <= "Z":
            letters.append(-(ord(ch) - ord("A") + 1))
        else:
            raise DomainError(f"invalid word character {ch!r}")
    w = reduce_word(letters)
    if alphabet_size is not None:
        check_alphabet(w, alphabet_size)
    return w


def word_to_str(a: Word) -> str:
    if not a:
        return "e"
    try:
        return "".join(map(_LETTER_TEXT.__getitem__, a))
    except KeyError:
        raise DomainError("letter grammar only covers alphabets up to size 26") from None


def cyclic_reduction(a: Word) -> tuple[Word, Word]:
    """Split a as p * core * p^-1 with core cyclically reduced.

    Returns (p, core).
    """
    i, j = 0, len(a)
    while j - i >= 2 and a[i] == -a[j - 1]:
        i += 1
        j -= 1
    return a[:i], a[i:j]


def primitive_root(core: Word) -> Word:
    """Smallest z with core = z^k, for a nonempty cyclically reduced core."""
    m = len(core)
    if m == 0:
        raise DomainError("identity has no primitive root")
    for d in range(1, m + 1):
        if m % d != 0:
            continue
        z = core[:d]
        if z * (m // d) == core:
            return z
    return core


def cyclic_rotations(core: Word) -> Iterable[tuple[int, Word]]:
    """All rotations (r, core[r:] + core[:r]) of a cyclically reduced word."""
    for r in range(max(len(core), 1)):
        yield r, core[r:] + core[:r]
