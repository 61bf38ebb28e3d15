"""A test-side referee for ``conjugacy.free_group_oracle``: the whole-list window scan.

It follows the oracle's construction (rotation matching for the pivot's conjugator g0,
the centralizer generator z, the window [-M, M] and the downhill walk), but settles no
pair ahead of the scan: every pair, the pivot included, is tested as g^-1 a_i g == b_i
at every candidate g0 z^m.
"""

import math

from geowidth import words
from geowidth.conjugacy import VERDICT_CONJUGATE, VERDICT_NOT_CONJUGATE


def conjugated_by(g, inst) -> bool:
    return all(words.conjugate(g, a) == b for a, b in zip(inst.lists_a, inst.lists_b))


def reference_oracle(inst):
    """(verdict, conjugator, candidates tested) of a free-group list instance."""
    pivot = next((i for i, a in enumerate(inst.lists_a) if a), None)
    if pivot is None:
        return (VERDICT_NOT_CONJUGATE, None, 0) if any(inst.lists_b) else (VERDICT_CONJUGATE, (), 0)
    p, core_a = words.cyclic_reduction(inst.lists_a[pivot])
    q, core_b = words.cyclic_reduction(inst.lists_b[pivot])
    rotations = [r for r, rotated in words.cyclic_rotations(core_a) if rotated == core_b]
    if len(core_a) != len(core_b) or not rotations:
        return VERDICT_NOT_CONJUGATE, None, 0
    q_inv = words.inverse(q)
    root = words.primitive_root(core_b)
    g0 = words.multiply(words.multiply(p, core_a[: rotations[0]]), q_inv)
    z = words.multiply(words.multiply(q, root), q_inv)
    z_inv = words.inverse(z)
    if conjugated_by(g0, inst):
        if not conjugated_by(words.multiply(g0, z), inst):
            return VERDICT_CONJUGATE, g0, 2
        least = g0
        for step in (z, z_inv):
            g = g0
            while len(nxt := words.multiply(g, step)) <= len(g):
                g = nxt
                least = min(least, g, key=words.shortlex_key)
        return VERDICT_CONJUGATE, least, 2
    worst = max(len(words.conjugate(g0, a)) + len(b) for a, b in zip(inst.lists_a, inst.lists_b))
    tested, down, up = 1, g0, g0
    for _ in range(math.ceil(worst / (2 * len(root))) + 1):
        down, up = words.multiply(down, z_inv), words.multiply(up, z)
        for g in (down, up):
            tested += 1
            if conjugated_by(g, inst):
                return VERDICT_CONJUGATE, g, tested
    return VERDICT_NOT_CONJUGATE, None, tested
