"""Simultaneous conjugacy of word lists in a free group.

``solve`` looks for a single conjugator carrying a list (a_1, ..., a_N)
onto (b_1, ..., b_N).  In a free group the exact oracle decides it: it
returns the shortlex-least conjugator or a definite NotConjugate verdict,
and ``enumerated`` counts the candidate conjugators it checked against the
lists (in a matrix context, the words of the shortlex ball it searched).

Run: python3 demos/05_conjugacy.py
"""

from geowidth import (
    ConjugacyInstance,
    Representation,
    free_group_oracle,
    orbit_bound_report,
    parse_word,
    solve,
    word_to_str,
)

def show(label, a_strs, b_strs):
    inst = ConjugacyInstance(
        alphabet_size=2,
        lists_a=tuple(parse_word(s) for s in a_strs),
        lists_b=tuple(parse_word(s) for s in b_strs),
    )
    cert = solve(inst)
    g = "-" if cert.conjugator is None else word_to_str(cert.conjugator)
    print(f"{label}: {cert.verdict} (g = {g}, {cert.enumerated} candidates checked)")
    return inst, cert


show("ab  ~ ba ", ["ab"], ["ba"])
show("joint conjugation by b", ["aab", "ba"], ["Baabb", "ab"])
show("a  !~ b ", ["a"], ["b"])
show("componentwise yes, jointly no", ["a", "b"], ["a", "B"])
show("rotations needing different conjugators", ["aab", "ba"], ["aba", "ab"])

# the oracle alone, for a longer conjugator
g = parse_word("ababab")
a = parse_word("aab")
b = parse_word("BABABA aab ababab".replace(" ", ""))
inst = ConjugacyInstance(2, (a,), (b,))
cert = free_group_oracle(inst)
print(f"\noracle on a deep conjugate: {cert.verdict}, g = {word_to_str(cert.conjugator)}")

# orbit pseudo-metric on the Cayley tree: distances are word lengths
rho = Representation.free_on_cayley_tree(2)
inst = ConjugacyInstance(2, (parse_word("ab"),), (parse_word("ba"),), rep=rho)
report = orbit_bound_report(inst, rho.space.vertex_point(()), g=parse_word("a"))
print(
    f"\norbit report at the identity vertex: orbit_sum = {report.orbit_sum}, "
    f"word_sum = {report.word_sum}, ratio = {report.ratio}"
)
