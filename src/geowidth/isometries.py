"""Isometries of the model spaces and group representations into them.

Four isometry families, one per model:

* ``EuclideanIsometry`` -- orthogonal matrix + translation;
* ``HyperbolicIsometry`` -- a real 2x2 matrix A of determinant 1, held as
  its four float ``entries``, acting on the hyperboloid through X -> (A X) A^T
  with X = [[x0+x1, x2], [x2, x0-x1]], in plain float arithmetic (the
  PSL(2,R) = SO(2,1)+ action; A and -A act identically);
* ``TreeAutomorphism`` -- a length-compatible vertex permutation of a finite
  metric tree;
* ``CayleyTranslation`` -- left translation by a group element on the Cayley
  tree of a free group.

Each family owns its identity, its JSON form (``to_json`` and
``from_json``) and its ``kind``, the name a representation into it carries;
the hyperbolic and Cayley families answer ``is_hyperbolic`` and ``shares_fixed_end``.
Public constructors and ``from_json`` check their input, each entry of a
JSON number array included (``spaces.json_array``); ``compose``,
``inverse`` and ``identity`` of all four families build their results with
the trusted ``Isometry._trusted``, which runs none of the orthogonality,
determinant, edge or alphabet checks that checked operands make redundant;
integral matrices of determinant 1 thus multiply exactly below 2^53.

A ``Representation`` assigns one isometry per generator, builds one per
signed letter, and evaluates words by composing those; its kind and identity
are worked out from its space.  Construction checks the distance-preservation
identity on seeded random samples.  JSON form::

    {"kind": ..., "space": space, "generators": [gen, ...]}
    gen (euclidean):  {"matrix": [[...]], "translation": [...]}
    gen (hyperbolic): {"matrix": [[a, b], [c, d]]}
    gen (tree):       {"permutation": {v: w}}
    gen (cayley):     {"word": "xy"}

with ``space`` as in :mod:`geowidth.spaces`; ``kind`` may be left out, and
a kind that contradicts the space is refused.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import words
from .errors import CapabilityError, ConfigError, DomainError
from .spaces import (TOL, CayleyPoint, CayleyTree, EuclideanSpace, HyperbolicPlane, MetricTree, Space, TreePoint,
                     _h_act, json_array, space_from_json)


class Isometry:
    #: the kind of a representation into this family
    kind = "abstract"

    @classmethod
    def _trusted(cls, **fields) -> "Isometry":
        """The isometry of fields that the library built from checked ones; no check runs."""
        iso = object.__new__(cls)
        iso.__dict__.update(fields)
        return iso

    @classmethod
    def identity(cls, space: Space) -> "Isometry":
        raise NotImplementedError

    @classmethod
    def from_json(cls, space: Space, data: dict) -> "Isometry":
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def is_identity(self) -> bool:
        raise NotImplementedError

    def equals(self, other: "Isometry") -> bool:
        """Whether other is the same isometry; this decides the word problem."""
        raise CapabilityError("word problem only decided for free and matrix groups")

    def apply(self, p):
        raise NotImplementedError

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other: (self.compose(other)).apply(p) = self(other(p))."""
        raise NotImplementedError

    def inverse(self) -> "Isometry":
        raise NotImplementedError


class EuclideanIsometry(Isometry):
    kind = "euclidean"

    def __init__(self, matrix, translation):
        self.matrix = np.asarray(matrix, dtype=float)
        self.translation = np.asarray(translation, dtype=float)
        n = self.translation.size
        if self.translation.shape != (n,) or self.matrix.shape != (n, n):
            raise DomainError("matrix/translation dimension mismatch")
        if not (np.isfinite(self.matrix).all() and np.isfinite(self.translation).all()):
            raise DomainError("matrix and translation entries must be finite")
        if not np.allclose(self.matrix @ self.matrix.T, np.eye(n), atol=1e-9):
            raise DomainError("matrix is not orthogonal")

    @classmethod
    def identity(cls, space: EuclideanSpace) -> "EuclideanIsometry":
        return cls._trusted(matrix=np.eye(space.dim), translation=np.zeros(space.dim))

    @classmethod
    def from_json(cls, space: EuclideanSpace, data: dict) -> "EuclideanIsometry":
        iso = cls(json_array(data, "matrix"), json_array(data, "translation"))
        if iso.translation.shape != (space.dim,):
            raise ConfigError(f"a generator of size {iso.translation.size} acts on a space of dim {space.dim}")
        return iso

    def to_json(self) -> dict:
        return {"matrix": self.matrix.tolist(), "translation": self.translation.tolist()}

    def apply(self, p):
        return self.matrix @ p + self.translation

    def compose(self, other: "EuclideanIsometry") -> "EuclideanIsometry":
        return EuclideanIsometry._trusted(
            matrix=self.matrix @ other.matrix, translation=self.matrix @ other.translation + self.translation
        )

    def inverse(self) -> "EuclideanIsometry":
        inv = self.matrix.T
        return EuclideanIsometry._trusted(matrix=inv, translation=-(inv @ self.translation))

    def is_identity(self) -> bool:
        n = self.translation.shape[0]
        return bool(
            np.max(np.abs(self.matrix - np.eye(n))) <= TOL
            and np.max(np.abs(self.translation)) <= TOL
        )


class HyperbolicIsometry(Isometry):
    kind = "matrix-on-H2"

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (2, 2):
            raise DomainError("hyperbolic isometries are 2x2 matrices")
        ad, bc = float(m[0, 0]) * float(m[1, 1]), float(m[0, 1]) * float(m[1, 0])
        det = ad - bc
        if not det > 0.0:  # NaN included
            raise DomainError("matrix must have positive determinant")
        # det 1 to within the rounding that the division leaves: kept as written, so saved matrices load
        # exactly; 4 ulps of |ad| + |bc|, with the sum halved so that it stays finite
        if abs(det - 1.0) > 8 * 2.0**-52 * (0.5 * abs(ad) + 0.5 * abs(bc)):
            m = m / math.sqrt(det)
        if not (math.isfinite(det) and np.isfinite(m).all()):
            raise DomainError("matrix entries and determinant must be finite")
        self.entries = self._signed(tuple(m.ravel().tolist()))

    @staticmethod
    def _signed(m: tuple) -> tuple:
        """m or -m, whichever has its first entry above 1e-12 in size positive:
        A and -A act identically, and one sign makes equality testable."""
        for x in m:
            if abs(x) > 1e-12:
                return tuple(-y for y in m) if x < 0.0 else m
        return m

    @property
    def matrix(self) -> np.ndarray:
        return np.array(self.entries).reshape(2, 2)

    @property
    def trace(self) -> float:
        return self.entries[0] + self.entries[3]

    @classmethod
    def identity(cls, space: HyperbolicPlane | None = None) -> "HyperbolicIsometry":
        return cls._trusted(entries=(1.0, 0.0, 0.0, 1.0))

    @classmethod
    def from_json(cls, space: HyperbolicPlane, data: dict) -> "HyperbolicIsometry":
        return cls(json_array(data, "matrix"))

    def to_json(self) -> dict:
        return {"matrix": self.matrix.tolist()}

    def apply(self, p):
        return np.array(_h_act(self.entries, p.tolist()))

    def so21_matrix(self) -> np.ndarray:
        """The induced 3x3 matrix acting on hyperboloid coordinates."""
        return np.column_stack([self.apply(basis) for basis in np.eye(3)])

    def compose(self, other: "HyperbolicIsometry") -> "HyperbolicIsometry":
        (a, b, c, d), (e, f, g, h) = self.entries, other.entries
        product = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        return HyperbolicIsometry._trusted(entries=self._signed(product))

    def inverse(self) -> "HyperbolicIsometry":
        a, b, c, d = self.entries
        return HyperbolicIsometry._trusted(entries=self._signed((d, -b, -c, a)))

    def is_identity(self) -> bool:
        return all(abs(x - y) <= TOL for x, y in zip(self.entries, (1.0, 0.0, 0.0, 1.0)))

    def equals(self, other: "HyperbolicIsometry") -> bool:
        return all(abs(x - y) <= 1e-9 for x, y in zip(self.entries, other.entries))

    def is_hyperbolic(self) -> bool:
        return abs(self.trace) > 2.0 + TOL

    def shares_fixed_end(self, other: "HyperbolicIsometry") -> bool:
        """Whether g and h fix a common point of H^2 or its boundary: tr[g, h] = 2 (Beardon 1983).

        Fricke: tr[g, h] = x^2 + y^2 + z^2 - xyz - 2 with x = tr g, y = tr h, z = tr gh, exact on
        integral matrices and free of the PSL sign; judged within 16 ulps of (|g| |h|)^2, |.| the sum
        of absolute entries, which bounds each term and scales as non-integral matrices round."""
        (a, b, c, d), (e, f, g, h) = self.entries, other.entries
        x, y, z = self.trace, other.trace, (a * e + b * g) + (c * f + d * h)  # gh without compose's sign
        size = sum(map(abs, self.entries)) * sum(map(abs, other.entries))
        return not abs(x * x + y * y + z * z - x * y * z - 4.0) > 16 * 2.0**-52 * size * size  # NaN included


class TreeAutomorphism(Isometry):
    kind = "tree-automorphisms"

    def __init__(self, tree: MetricTree, permutation: dict):
        self.tree = tree
        self.permutation = dict(permutation)
        vs = set(tree.vertices)
        if set(self.permutation) != vs or set(self.permutation.values()) != vs:
            raise DomainError("permutation must be a bijection on the tree vertices")
        for a, b, length in tree.edges:
            k = tree._edge_between(self.permutation[a], self.permutation[b])
            if k is None:
                raise DomainError(f"image of edge {a}-{b} is not an edge")
            if abs(tree.edges[k][2] - length) > 1e-12:
                raise DomainError(f"image of edge {a}-{b} has a different length")

    @classmethod
    def identity(cls, tree: MetricTree) -> "TreeAutomorphism":
        return cls._trusted(tree=tree, permutation={v: v for v in tree.vertices})

    @classmethod
    def from_json(cls, tree: MetricTree, data: dict) -> "TreeAutomorphism":
        # JSON object keys are strings; map back onto the vertex ids
        by_str = {str(v): v for v in tree.vertices}
        return cls(tree, {by_str[k]: v for k, v in data["permutation"].items()})

    def to_json(self) -> dict:
        return {"permutation": {str(v): w for v, w in self.permutation.items()}}

    def apply(self, p: TreePoint) -> TreePoint:
        if p.edge is None:
            return TreePoint(vertex=self.permutation[p.vertex])
        a, b, _ = self.tree.edges[p.edge]
        k = self.tree._edge_between(self.permutation[a], self.permutation[b])
        ka, _, length = self.tree.edges[k]  # within 1e-12 of p's edge length
        offset = p.offset if ka == self.permutation[a] else length - p.offset
        return self.tree._edge_point(k, min(max(offset, 0.0), length))

    def compose(self, other: "TreeAutomorphism") -> "TreeAutomorphism":
        return TreeAutomorphism._trusted(
            tree=self.tree, permutation={v: self.permutation[other.permutation[v]] for v in self.tree.vertices}
        )

    def inverse(self) -> "TreeAutomorphism":
        return TreeAutomorphism._trusted(tree=self.tree, permutation={w: v for v, w in self.permutation.items()})

    def is_identity(self) -> bool:
        return all(self.permutation[v] == v for v in self.tree.vertices)


class CayleyTranslation(Isometry):
    kind = "free-on-cayley-tree"

    def __init__(self, tree: CayleyTree, word: words.Word):
        self.tree = tree
        words.check_alphabet(word, tree.rank)
        self.word = words.reduce_word(word)

    @classmethod
    def identity(cls, tree: CayleyTree) -> "CayleyTranslation":
        return cls._trusted(tree=tree, word=())

    @classmethod
    def from_json(cls, tree: CayleyTree, data: dict) -> "CayleyTranslation":
        return cls(tree, words.parse_word(data["word"], tree.rank))

    def to_json(self) -> dict:
        return {"word": words.word_to_str(self.word)}

    def apply(self, p: CayleyPoint) -> CayleyPoint:
        base = words.multiply(self.word, p.word)
        if p.letter == 0:
            return CayleyPoint(word=base)
        return self.tree._edge_point(base, p.letter, p.t)

    def compose(self, other: "CayleyTranslation") -> "CayleyTranslation":
        return CayleyTranslation._trusted(tree=self.tree, word=words.multiply(self.word, other.word))

    def inverse(self) -> "CayleyTranslation":
        return CayleyTranslation._trusted(tree=self.tree, word=words.inverse(self.word))

    def is_identity(self) -> bool:
        return self.word == ()

    def is_hyperbolic(self) -> bool:
        """Every element but e translates along an axis: the action is free."""
        return self.word != ()

    def shares_fixed_end(self, other: "CayleyTranslation") -> bool:
        """Whether self and other fix a common end; in a free action, whether they commute."""
        return words.multiply(self.word, other.word) == words.multiply(other.word, self.word)


#: the isometry family of each space model
FAMILIES = {
    EuclideanSpace.model: EuclideanIsometry,
    HyperbolicPlane.model: HyperbolicIsometry,
    MetricTree.model: TreeAutomorphism,
    CayleyTree.model: CayleyTranslation,
}


class Representation:
    """Generators of a finitely generated group acting by isometries."""

    def __init__(self, space: Space, generators: Sequence[Isometry], check_samples: int = 1000):
        self.space = space
        self.generators = list(generators)
        if not self.generators:
            raise DomainError("a representation needs at least one generator")
        self.family = FAMILIES[space.model]
        self.kind = self.family.kind
        self.alphabet_size = len(self.generators)
        if check_samples > 0:
            self._check_isometry_property(check_samples)
        # the isometry of each signed letter x, the inverse of generator |x| for x < 0
        self._letters = {}
        for i, g in enumerate(self.generators, 1):
            self._letters[i], self._letters[-i] = g, g.inverse()

    def _check_isometry_property(self, samples: int) -> None:
        rng = np.random.default_rng(0)
        pts = [self.space.random_point(rng) for _ in range(samples + 1)]
        for g in self.generators:
            for p, q in zip(pts, pts[1:]):
                d0 = self.space.dist(p, q)
                d1 = self.space.dist(g.apply(p), g.apply(q))
                if not abs(d0 - d1) <= 1e-9 * max(1.0, d0):  # NaN included
                    raise DomainError("generator does not preserve distances")

    @classmethod
    def free_on_cayley_tree(cls, rank: int) -> "Representation":
        """The free group of the given rank acting on its own Cayley tree."""
        tree = CayleyTree(rank)
        gens = [CayleyTranslation(tree, (i,)) for i in range(1, rank + 1)]
        return cls(tree, gens, check_samples=100)

    @classmethod
    def from_json(cls, data: dict, check_samples: int = 200) -> "Representation":
        space = space_from_json(data["space"])
        family = FAMILIES[space.model]
        if data.get("kind", family.kind) != family.kind:
            raise ConfigError(
                f"representation kind {data['kind']!r} contradicts its {space.model!r} "
                f"space, whose kind is {family.kind!r}"
            )
        gens = [family.from_json(space, g) for g in data["generators"]]
        return cls(space, gens, check_samples=check_samples)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "space": self.space.to_json(),
            "generators": [g.to_json() for g in self.generators],
        }

    def identity_isometry(self) -> Isometry:
        return self.family.identity(self.space)

    def evaluate(self, g: words.Word) -> Isometry:
        words.check_alphabet(g, self.alphabet_size)
        result = self.identity_isometry()
        for x in g:
            result = result.compose(self._letters[x])
        return result

    def act(self, g: words.Word, p):
        return self.evaluate(g).apply(p)

    def is_trivial(self) -> bool:
        return all(g.is_identity() for g in self.generators)


def orbit_distance(rho: Representation, y, g: words.Word, h: words.Word) -> float:
    """The orbit pseudo-metric d_y(g, h) = dist(g.y, h.y)."""
    rho.space._check_point(y)
    return rho.space._dist(rho.act(g, y), rho.act(h, y))
