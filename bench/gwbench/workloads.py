"""The four seeded workloads.

Each workload builds, from its seed alone, a pool of operations ("ops")
during set-up; the timed loop then cycles through the pool.  An op is a
``run`` callable, timed, and a ``check`` callable, not timed, that raises
``CheckFailed`` on a wrong output and otherwise returns a fingerprint of
the output.  Ops repeat as the pool cycles, so the loop also checks that a
repeated op returns the same fingerprint.

Library calls go through module attributes (``spaces.triangle_defect``,
not a name imported once), so the tracing wrappers installed by
``tracing.instrument`` see every call.

Why the pools are built the way they are:

* The pools use a fixed schedule of op kinds and draw only the contents
  from the seed.  Percentiles of a mix of op kinds jump when they sit on
  the border between two kinds, so the schedules put the median and the
  tail inside one kind each.
* ``conjugacy`` builds instances whose least conjugator is known by
  construction, and spreads its shortlex rank evenly over each length, so
  the enumeration cost of a pool hardly varies from seed to seed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from geowidth import conjugacy, equivariant, harmonic, isometries, serialization, spaces, words
from geowidth.errors import DomainError

DEFECT_TOL = 1e-9
TREE_SHAPE_SEED = 3


class CheckFailed(Exception):
    """An op returned a wrong output."""


class Workload:
    """A pool of ops built in set-up; ``gates`` runs once after the loop."""

    ops: list
    #: name -> (exception type, message) of each known library defect that
    #: the pool's inputs reach.  An op that raises one of these lowers
    #: ok_ratio but is not counted as failed.
    known_defects: dict = {}
    #: ops per throughput window: a whole number of cycles of the pool's
    #: schedule, so every window has the same mix.  None makes the whole
    #: timed loop one window, for pools without a short cycle.
    window_ops: int | None = None
    #: percentile reported as op_tail_ms: the highest of p50, p75, p90 and
    #: p99 that leaves at least ten ops beyond it at the workload's op count
    #: per run.  It is fixed per workload, so that a run on a faster or
    #: slower moment of a shared machine does not move it to another rung.
    tail_q: str = "99"

    def gates(self) -> dict:
        return {}

    def close(self) -> None:
        pass


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]
    #: span around ``run`` in traced runs, for ops whose whole time belongs
    #: to one layer (a CLI subprocess)
    span: str | None = None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# shared model zoo (the acceptance criteria's spaces and representations)


def twenty_edge_tree() -> spaces.MetricTree:
    vertices = list(range(21))
    edges = [(i, (i - 1) // 2, 0.5 + 0.35 * (i % 5)) for i in range(1, 21)]
    return spaces.MetricTree(vertices, edges)


def tripod_tree() -> spaces.MetricTree:
    return spaces.MetricTree(["c", "p", "q", "r"], [("c", "p", 1.0), ("c", "q", 1.0), ("c", "r", 1.0)])


def seeded_tree(rng, n: int = 1000, window: int = 24) -> spaces.MetricTree:
    """Random recursive tree whose edge lengths come from ``rng``.

    Vertex i hangs off one of the ``window`` vertices before it.  The shape
    is drawn from a fixed seed: the mean geodesic of a random shape varies
    by about 7% from seed to seed, which would show as noise.  With n =
    1000 and window 24 a geodesic between random points crosses about 45
    edges.
    """
    shape = np.random.default_rng(TREE_SHAPE_SEED)
    parents = [int(shape.integers(max(0, i - window), i)) for i in range(1, n)]
    edges = [(i, p, float(rng.uniform(0.5, 2.0))) for i, p in enumerate(parents, start=1)]
    return spaces.MetricTree(list(range(n)), edges)


def sl2z_rep() -> isometries.Representation:
    """The README's rank-2 action on the hyperbolic plane."""
    return isometries.Representation(
        spaces.HyperbolicPlane(),
        [
            isometries.HyperbolicIsometry([[2.0, 1.0], [1.0, 1.0]]),
            isometries.HyperbolicIsometry([[5.0, 2.0], [2.0, 1.0]]),
        ],
        check_samples=100,
    )


def axial_rep() -> isometries.Representation:
    return isometries.Representation(
        spaces.HyperbolicPlane(),
        [isometries.HyperbolicIsometry([[math.e, 0.0], [0.0, 1.0 / math.e]])],
        check_samples=50,
    )


def theta_graph() -> equivariant.FundamentalGraph:
    E = equivariant.Edge
    return equivariant.FundamentalGraph([0, 1], [E(0, 1, 1.0, ()), E(0, 1, 1.0, (1,)), E(1, 0, 1.0, (2,))])


def theta_representations() -> dict:
    """Criterion 3's five actions, the README's SL(2,Z) one and free rank 2."""
    Rep, EIso, TAut = isometries.Representation, isometries.EuclideanIsometry, isometries.TreeAutomorphism
    e2 = spaces.EuclideanSpace(2)
    c, s = math.cos(0.7), math.sin(0.7)
    e5 = spaces.EuclideanSpace(5)
    shift = np.roll(np.eye(5), 1, axis=0)
    tripod = tripod_tree()
    big = twenty_edge_tree()
    return {
        "euclidean-2": Rep(e2, [EIso([[c, -s], [s, c]], [1.0, 0.5]), EIso(np.eye(2), [0.0, 1.0])], check_samples=50),
        "euclidean-5": Rep(e5, [EIso(shift, np.ones(5)), EIso(np.eye(5), [1.0, 0.0, -1.0, 0.0, 2.0])], check_samples=50),
        "hyperbolic": Rep(
            spaces.HyperbolicPlane(),
            [isometries.HyperbolicIsometry([[1.0, 2.0], [0.0, 1.0]]), isometries.HyperbolicIsometry([[1.0, 0.0], [2.0, 1.0]])],
            check_samples=50,
        ),
        "tree-tripod": Rep(
            tripod,
            [
                TAut(tripod, {"c": "c", "p": "q", "q": "r", "r": "p"}),
                TAut(tripod, {"c": "c", "p": "q", "q": "p", "r": "r"}),
            ],
            check_samples=50,
        ),
        "tree-20edge": Rep(big, [TAut.identity(big), TAut.identity(big)], check_samples=50),
        "sl2z": sl2z_rep(),
        "free-2": isometries.Representation.free_on_cayley_tree(2),
    }


def random_word(rng, rank: int, length: int, cyclic: bool = False, first_not=(), last_not=()) -> words.Word:
    """Seeded freely reduced word; optionally cyclically reduced, and with
    excluded first and last letters."""
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    draws = rng.random(length).tolist()
    out: list[int] = []
    for pos, u in enumerate(draws):
        banned = {-out[-1]} if out else set()
        if pos == 0:
            banned.update(first_not)
        if pos == length - 1:
            banned.update(last_not)
            if cyclic and out:
                banned.add(-out[0])
        choices = [x for x in letters if x not in banned]
        out.append(choices[int(u * len(choices))])
    return tuple(out)


def stratified_ints(rng, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers in [lo, hi], one from each of ``count`` equal bins,
    in a seeded order: their distribution barely moves between seeds."""
    fractions = (rng.permutation(count) + rng.random(count)) / count
    return [lo + int(f * (hi - lo + 1)) for f in fractions.tolist()]


# ---------------------------------------------------------------------------
# comparison: criteria 1-2 quadruples on every model

GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
#: the 1000-vertex tree takes two slots of seven, so the median falls inside
#: the 20-edge tree's ops and not on the border between two models
COMPARISON_ROTATION = ("euclidean-2", "euclidean-5", "hyperbolic", "tree-20edge", "tree-1000", "cayley-2", "tree-1000")
#: rounds of the rotation in the timed pool and in the traced pass
COMPARISON_ROUNDS = {"timed": 600, "trace": 100}


def _quadruple(space, pts, lam):
    p, q, r, s = pts
    out = [spaces.triangle_defect(space, p, q, r, lam)]
    for t in GRID:
        for alpha in GRID:
            out.append(spaces.quadrilateral_defect(space, p, q, r, s, t, alpha))
        out.append(spaces.convexity_defect(space, p, q, r, s, t))
    return out


def _check_defects(euclidean: bool, defects):
    _require(len(defects) == 31, "expected 1 + 25 + 5 defects")
    _require(all(d >= -DEFECT_TOL for d in defects), f"negative defect {min(defects)!r}")
    if euclidean:
        _require(abs(defects[0]) <= DEFECT_TOL, "Euclidean triangle defect is not zero")
    return tuple(defects)


class Comparison(Workload):
    window_ops = 10 * len(COMPARISON_ROTATION)

    def __init__(self, seed: int, pool: str):
        rng = np.random.default_rng(seed)
        models = {
            "euclidean-2": spaces.EuclideanSpace(2),
            "euclidean-5": spaces.EuclideanSpace(5),
            "hyperbolic": spaces.HyperbolicPlane(),
            "tree-20edge": twenty_edge_tree(),
            "tree-1000": seeded_tree(rng),
            "cayley-2": spaces.CayleyTree(2),
        }
        self.ops = []
        for _ in range(COMPARISON_ROUNDS[pool]):
            for name in COMPARISON_ROTATION:
                space = models[name]
                pts = [space.random_point(rng) for _ in range(4)]
                lam = float(rng.uniform())
                check = partial(_check_defects, name.startswith("euclidean"))
                self.ops.append(Op(name, partial(_quadruple, space, pts, lam), check))


# ---------------------------------------------------------------------------
# maps: widths, width constants, orbit distances and relaxation

S_GRID = tuple(i / 10 for i in range(11))
#: one cycle of op kinds; map pairs hold the median and relax runs the tail
MAPS_SCHEDULE = (
    "pair", "orbit", "pair", "pair", "estimate", "pair", "orbit", "pair", "pair", "relax",
    "pair", "orbit", "pair", "pair", "estimate", "pair", "orbit", "pair", "pair", "pair",
)
#: cycles of the schedule in the timed pool and in the traced pass
MAPS_CYCLES = {"timed": 60, "trace": 10}
ORBIT_MAX_LEN = 24
#: W2 quadrature subintervals per edge.  Spread over a range, they give the
#: pairs, which hold the median, a wide and even spread of costs, so the
#: median follows the machine's mean speed instead of jumping between the
#: costs of a few actions.
W2_SAMPLES = (8, 64)
ESTIMATE_TRIALS = 16
RELAX_SWEEPS = 2
RELAX_SIZES = (8, 32)
#: README C-hat values, 1000 trials, seed 2026 (compared bit for bit)
README_C_HAT = {"free-2": 0.38270895264273447, "sl2z": 0.3280105115419912}
README_SEED = 2026
README_TRIALS = 1000
#: defects of the library that the maps pool reaches on purpose, so that a
#: fix shows as a higher ok_ratio.  ROADMAP item 4: composing the SL(2,Z)
#: generators loses the determinant to cancellation on words like b^12.
#: CayleyTree.geodesic_point rounds an edge parameter to 1.0000000000000004
#: and edge_point rejects it, on a few free rank-2 map pairs.
MAPS_KNOWN_DEFECTS = {
    "sl2z-determinant": (DomainError, "matrix must have positive determinant"),
    "cayley-edge-rounding": (DomainError, "edge parameter outside [0, 1]"),
}


def _pair(graph, rho, imgs_u, imgs_v, samples):
    u = equivariant.EquivariantMap(graph, rho, imgs_u)
    v = equivariant.EquivariantMap(graph, rho, imgs_v)
    h = equivariant.GeodesicHomotopy(u, v)
    w_inf = equivariant.homotopy_width_inf(h)
    w2 = equivariant.homotopy_width_2(h, samples)
    rows = equivariant.convexity_report(h, S_GRID)
    return w_inf, w2, rows


def _check_pair(total_length, out):
    w_inf, w2, rows = out
    _require(len(rows) == len(S_GRID), "convexity report lost rows")
    _require(math.isfinite(w_inf) and w_inf >= 0.0, "bad W_inf")
    # distance convexity bounds every track by W_inf, so W2^2 <= W_inf^2 * total length
    bound = w_inf * math.sqrt(total_length)
    _require(0.0 <= w2 <= bound * (1 + 1e-9) + 1e-12, f"W2 {w2!r} above W_inf bound {bound!r}")
    return (w_inf, w2) + tuple((r.length, r.energy) for r in rows)


def _orbit(rho, y, g, h):
    return isometries.orbit_distance(rho, y, g, h)


def _check_orbit(exact, d):
    _require(math.isfinite(d) and d >= 0.0, f"bad orbit distance {d!r}")
    if exact is not None:
        _require(d == exact, f"orbit distance {d!r} != word length {exact}")
    return d


def _estimate(rho, trials, seed):
    return harmonic.estimate_width_constant(rho, trials=trials, seed=seed).c_hat


def _check_estimate(c_hat):
    _require(math.isfinite(c_hat) and c_hat > 0.0, f"bad C-hat {c_hat!r}")
    return c_hat


def _relax(u0, cfg):
    return harmonic.relax(u0, cfg)


def _check_relax(result):
    trace = result.energy_trace
    _require(result.iterations <= RELAX_SWEEPS, "relax ignored its sweep cap")
    _require(all(b <= a + 1e-12 * max(1.0, a) for a, b in zip(trace, trace[1:])), "energy increased")
    return tuple(trace)


def cycle_graph(size: int) -> equivariant.FundamentalGraph:
    """A cycle with one edge labelled a and one labelled b."""
    labels = {size - 1: (1,), size // 2 - 1: (2,)}
    edges = [equivariant.Edge(i, (i + 1) % size, 1.0, labels.get(i, ())) for i in range(size)]
    return equivariant.FundamentalGraph(list(range(size)), edges)


class Maps(Workload):
    known_defects = MAPS_KNOWN_DEFECTS
    window_ops = len(MAPS_SCHEDULE)

    def __init__(self, seed: int, pool: str):
        rng = np.random.default_rng(seed)
        reps = theta_representations()
        self.reps = reps
        graph = theta_graph()
        total_length = graph.total_length()
        pair_reps = list(reps)
        orbit_reps = ("sl2z", "free-2")
        cycles = MAPS_CYCLES[pool]
        per_kind = {kind: cycles * MAPS_SCHEDULE.count(kind) for kind in MAPS_SCHEDULE}
        relax_sizes = stratified_ints(rng, *RELAX_SIZES, per_kind["relax"])
        orbit_lengths = stratified_ints(rng, 0, ORBIT_MAX_LEN, 2 * per_kind["orbit"])
        w2_samples = stratified_ints(rng, *W2_SAMPLES, per_kind["pair"])
        cfg = harmonic.RelaxationConfig(max_iterations=RELAX_SWEEPS)
        sl2z = reps["sl2z"]
        seen = {"pair": 0, "orbit": 0, "estimate": 0, "relax": 0}
        self.ops = []
        for _ in range(cycles):
            for kind in MAPS_SCHEDULE:
                k = seen[kind]
                seen[kind] += 1
                if kind == "pair":
                    rho = reps[pair_reps[k % len(pair_reps)]]
                    sp = rho.space
                    imgs = [{0: sp.random_point(rng), 1: sp.random_point(rng)} for _ in range(2)]
                    op = Op(kind, partial(_pair, graph, rho, *imgs, w2_samples[k]), partial(_check_pair, total_length))
                elif kind == "orbit":
                    name = orbit_reps[k % 2]
                    rho = reps[name]
                    g = random_word(rng, 2, orbit_lengths[2 * k])
                    h = random_word(rng, 2, orbit_lengths[2 * k + 1])
                    if name == "free-2":
                        # at the identity vertex the orbit metric is the word metric
                        y, exact = rho.space.vertex_point(()), float(len(words.multiply(words.inverse(g), h)))
                    else:
                        y, exact = rho.space.random_point(rng), None
                    op = Op(kind, partial(_orbit, rho, y, g, h), partial(_check_orbit, exact))
                elif kind == "estimate":
                    rho = reps[orbit_reps[k % 2]]
                    op = Op(kind, partial(_estimate, rho, ESTIMATE_TRIALS, int(rng.integers(2**31))), _check_estimate)
                else:
                    size = relax_sizes[k]
                    images = {v: sl2z.space.random_point(rng) for v in range(size)}
                    u0 = equivariant.EquivariantMap(cycle_graph(size), sl2z, images)
                    op = Op(kind, partial(_relax, u0, cfg), _check_relax)
                self.ops.append(op)

    def gates(self) -> dict:
        """README C-hat values, bit for bit."""
        out = {}
        for name, expected in README_C_HAT.items():
            got = harmonic.estimate_width_constant(self.reps[name], trials=README_TRIALS, seed=README_SEED).c_hat
            out[f"c_hat.{name}"] = {"expected": expected, "got": got, "ok": got == expected}
        return out


# ---------------------------------------------------------------------------
# conjugacy: free-group list conjugacy with known least conjugators

#: conjugator lengths per rank; rank 3 stops at 6 because one length-7
#: instance already enumerates up to 117k words
CONJ_LENGTHS = {2: range(0, 10), 3: range(0, 7)}
#: conjugator length from which ball enumeration dominates, per rank;
#: instances that long get short pivots, so the conjugator sets their cost
CONJ_HEAVY = {2: 7, 3: 5}
#: instances per (rank, length) below and from CONJ_HEAVY, in the traced
#: pass; the timed pool has CONJ_SCALE times as many
CONJ_PER_LENGTH = {2: (16, 8), 3: (12, 6)}
CONJ_SCALE = {"timed": 4, "trace": 1}
CONJ_MAX_WORD = 200
#: pivot length of the instances in heavy strata
CONJ_HEAVY_WORD = 14
#: multipliers of the slot index that permute a stratum's slots, one per
#: list entry, so word lengths are stratified independently of the rank
CONJ_LENGTH_PERMUTATIONS = (5, 7, 11)
#: longest power of a root in a centralizer-heavy list: the oracle tries
#: O(|a|/|root|) powers of the root, each built in O(m^2) letters
CONJ_POWER_WORD = 48
CENTRALIZER_EVERY = 4


def level_count(rank: int, length: int) -> int:
    """Reduced words of exactly this length."""
    return 1 if length == 0 else 2 * rank * (2 * rank - 1) ** (length - 1)


def unrank(rank: int, length: int, index: int) -> words.Word:
    """The index-th reduced word of the given length in shortlex order."""
    letters = sorted([x for i in range(1, rank + 1) for x in (i, -i)], key=words.letter_order)
    out: list[int] = []
    for pos in range(length):
        choices = [x for x in letters if not out or x != -out[-1]]
        block = (2 * rank - 1) ** (length - pos - 1)
        j, index = divmod(index, block)
        out.append(choices[j])
    return tuple(out)


def _perturb(rng, rank: int, w: words.Word) -> words.Word:
    """Change one letter to another generator: the abelianization changes,
    so the result is conjugate to nothing that w is conjugate to."""
    pos = int(rng.integers(len(w)))
    others = [x for i in range(1, rank + 1) if i != abs(w[pos]) for x in (i, -i)]
    letters = list(w)
    letters[pos] = others[int(rng.integers(len(others)))]
    return words.reduce_word(letters)


def conjugacy_instance(rng, rank: int, length: int, index: int, heavy: bool, centralizer: bool, spread):
    """A list instance whose unique shortest conjugator is unrank(index).

    The pivot a_1 is cyclically reduced and neither starts with g[0] nor
    ends with g[0]^-1.  Then g^-1 a_1 g is reduced, and every other
    conjugator z^m g (z the root of a_1, m != 0) is strictly longer than g.
    ``spread`` holds one value in [0, 1) per list entry; it sets that
    entry's length, so a caller can stratify lengths across a pool.
    """
    g = unrank(rank, length, index)
    first_not = (g[0],) if g else ()
    last_not = (-g[0],) if g else ()
    if centralizer:
        root_len = 1 + int(4 * spread[0])
        root = random_word(rng, rank, root_len, cyclic=True, first_not=first_not, last_not=last_not)
        if heavy:
            a_list = [root * -(-CONJ_HEAVY_WORD // root_len) for _ in spread]
        else:
            a_list = [root * (1 + int(f * CONJ_POWER_WORD / root_len)) for f in spread]
    else:
        pivot_len = CONJ_HEAVY_WORD if heavy else 1 + int(spread[0] * CONJ_MAX_WORD)
        a_list = [random_word(rng, rank, pivot_len, cyclic=True, first_not=first_not, last_not=last_not)]
        a_list += [random_word(rng, rank, 1 + int(f * CONJ_MAX_WORD)) for f in spread[1:]]
    b_list = [words.conjugate(g, a) for a in a_list]
    return g, tuple(a_list), b_list


def _conjugacy_op(inst):
    cert = conjugacy.solve(inst)
    oracle = conjugacy.free_group_oracle(inst)
    verified = conjugacy.verify(cert.conjugator, inst)[0] if cert.conjugator is not None else None
    return cert, oracle, verified


def _check_conjugacy(expected, out):
    cert, oracle, verified = out
    _require(cert.verdict == oracle.verdict, f"solve says {cert.verdict}, oracle says {oracle.verdict}")
    if expected is None:
        _require(cert.verdict == conjugacy.VERDICT_NOT_CONJUGATE, f"non-conjugate instance solved as {cert.verdict}")
    else:
        _require(cert.verdict == conjugacy.VERDICT_CONJUGATE, f"conjugate instance solved as {cert.verdict}")
        _require(verified is True, "certificate fails verify")
        _require(cert.conjugator == expected, "conjugator is not the shortlex-least one")
    return cert.verdict, cert.conjugator


class Conjugacy(Workload):
    def __init__(self, seed: int, pool: str):
        rng = np.random.default_rng(seed)
        slots = []
        for rank, lengths in CONJ_LENGTHS.items():
            for length in lengths:
                per = CONJ_SCALE[pool] * CONJ_PER_LENGTH[rank][length >= CONJ_HEAVY[rank]]
                for k in range(per):
                    slots.append((k, rank, length, per))
        # interleave the strata, so any stretch of the pool has the same mix
        slots.sort(key=lambda s: (s[0] + 0.5) / s[3])
        self.ops = []
        for n, (k, rank, length, per) in enumerate(slots):
            size = 1 + n % 3
            heavy = length >= CONJ_HEAVY[rank]
            centralizer = k % CENTRALIZER_EVERY == CENTRALIZER_EVERY - 1 and size > 1
            # jittered stratification of the conjugator's shortlex rank and
            # of the word lengths
            count = level_count(rank, length)
            index = min(count - 1, int((k + rng.uniform()) * count / per))

            def spread():
                return [((m * k + 1) % per + rng.uniform()) / per for m in CONJ_LENGTH_PERMUTATIONS[:size]]

            g, a_list, b_list = conjugacy_instance(rng, rank, length, index, heavy, centralizer, spread())
            inst = conjugacy.ConjugacyInstance(rank, a_list, tuple(b_list))
            self.ops.append(Op("conjugate", partial(_conjugacy_op, inst), partial(_check_conjugacy, g)))
            # its non-conjugate twin: same stratum, fresh words, one b_j broken
            g, a_list, b_list = conjugacy_instance(rng, rank, length, index, heavy, centralizer, spread())
            j = size - 1
            b_list[j] = words.conjugate(g, _perturb(rng, rank, a_list[j]))
            inst = conjugacy.ConjugacyInstance(rank, a_list, tuple(b_list))
            self.ops.append(Op("non-conjugate", partial(_conjugacy_op, inst), partial(_check_conjugacy, None)))


# ---------------------------------------------------------------------------
# cli: one geowidth subprocess per op

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 64, 65, 66, 70}


def _strict_json(text: str):
    def reject(token):
        raise CheckFailed(f"non-strict JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _cli_run(cmd, env):
    proc = subprocess.run(cmd, capture_output=True, env=env, timeout=120)
    return proc.returncode, proc.stdout


def _check_cli(expected_code, expect, out):
    code, stdout = out
    _require(code in DOCUMENTED_EXIT_CODES, f"undocumented exit code {code}")
    _require(code == expected_code, f"exit code {code}, expected {expected_code}")
    try:
        report = _strict_json(stdout.decode())
    except ValueError as e:
        raise CheckFailed(f"stdout is not JSON: {e}") from None
    for key, value in expect.items():
        _require(report.get(key) == value, f"{key} is {report.get(key)!r}, expected {value!r}")
    return stdout


class Cli(Workload):
    """Seven subcommands, two seeded variants each, run round-robin.

    ``launcher(argv)`` gives the command line of one invocation: plain
    ``python -m geowidth`` in metric runs, a tracing shim in traced runs.
    """

    #: a 24-second run makes about 70-85 invocations; p75 needs 40
    tail_q = "75"

    def __init__(self, seed: int, workdir: Path, env: dict, launcher):
        rng = np.random.default_rng(seed)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        d = self.workdir
        reps = {"sl2z": sl2z_rep(), "free-2": isometries.Representation.free_on_cayley_tree(2)}
        rep_files = {}
        for name, rho in reps.items():
            rep_files[name] = str(d / f"rep-{name}.json")
            serialization.save_representation(rep_files[name], rho)
        tree_file = d / "tree.json"
        tree_file.write_text(json.dumps(seeded_tree(rng, n=40, window=4).to_json_dict()))
        graph = theta_graph()
        map_files = []
        for variant, name in enumerate(("sl2z", "free-2")):
            rho = reps[name]
            pair = []
            for side in "uv":
                u = equivariant.EquivariantMap(graph, rho, {0: rho.space.random_point(rng), 1: rho.space.random_point(rng)})
                path = str(d / f"{side}{variant}.json")
                serialization.save_map(path, u)
                pair.append(path)
            map_files.append(pair)
        axial = axial_rep()
        harmonic_files = []
        for variant in range(2):
            path = str(d / f"m{variant}.json")
            start = axial.space.from_polar(float(rng.uniform(0.5, 2.0)), float(rng.uniform(-3, 3)))
            serialization.save_map(path, equivariant.build_bouquet_map(axial, start))
            harmonic_files.append(path)

        def seed_arg():
            return str(int(rng.integers(2**31)))

        variants = []
        for v in range(2):
            g = random_word(rng, 2, int(rng.integers(1, 4)))
            a = random_word(rng, 2, int(rng.integers(2, 12)), cyclic=True)
            b = words.conjugate(g, a) if v == 0 else words.conjugate(g, _perturb(rng, 2, a))
            orbit_a = random_word(rng, 2, int(rng.integers(1, 10)))
            orbit_g = random_word(rng, 2, int(rng.integers(1, 6)))
            check = (
                ["--model", "hyperbolic"] if v == 0 else ["--model", "tree", "--tree-file", str(tree_file)]
            )
            variants.append(
                [
                    ("check-cat0", ["check-cat0", *check, "--trials", "100", "--seed", seed_arg()], 0, {"ok": True}),
                    ("width", ["width", "--u", map_files[v][0], "--v", map_files[v][1], "--samples-per-edge", "256"], 0, {}),
                    ("convexity", ["convexity", "--u", map_files[v][0], "--v", map_files[v][1], "--grid", "41"], 0, {}),
                    ("harmonic", ["harmonic", "--map", harmonic_files[v], "--max-iterations", "200"], 0, {}),
                    (
                        "estimate-cstar",
                        ["estimate-cstar", "--rep", rep_files[("free-2", "sl2z")[v]], "--trials", "100", "--seed", seed_arg()],
                        0,
                        {},
                    ),
                    (
                        "conjugacy-solve",
                        ["conjugacy", "solve", "--alphabet", "2", "--a", words.word_to_str(a), "--b", words.word_to_str(b)],
                        (0, 3)[v],
                        {"verdict": (conjugacy.VERDICT_CONJUGATE, conjugacy.VERDICT_NOT_CONJUGATE)[v]},
                    ),
                    (
                        "orbit-report",
                        [
                            "orbit-report", "--rep", rep_files["free-2"],
                            "--a", words.word_to_str(orbit_a), "--b", words.word_to_str(words.conjugate(orbit_g, orbit_a)),
                            "--g", words.word_to_str(orbit_g), "--basepoint", '{"model": "cayley", "word": "e"}',
                        ],
                        0,
                        {},
                    ),
                ]
            )
        self.ops = [
            Op(kind, partial(_cli_run, launcher(argv), env), partial(_check_cli, code, expect), span=f"cli.{kind}")
            for variant in variants
            for kind, argv, code, expect in variant
        ]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = ("comparison", "maps", "conjugacy", "cli")
