"""Isometries of the model spaces and group representations into them.

Four isometry families, one per model:

* ``EuclideanIsometry`` -- orthogonal matrix + translation;
* ``HyperbolicIsometry`` -- a real 2x2 matrix of determinant 1 acting on the
  hyperboloid through X -> A X A^T where X = [[x0+x1, x2], [x2, x0-x1]]
  (the PSL(2,R) = SO(2,1)+ action; A and -A act identically);
* ``TreeAutomorphism`` -- a length-compatible vertex permutation of a finite
  metric tree;
* ``CayleyTranslation`` -- left translation by a group element on the Cayley
  tree of a free group.

Each family owns its identity, its JSON form (``to_json`` and
``from_json``) and its ``kind``, the name a representation into it carries.

A ``Representation`` assigns one isometry per generator and evaluates words
by composition; its kind and identity are worked out from its space.
Construction checks the distance-preservation identity on seeded random
samples.  JSON form::

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
from .spaces import CayleyPoint, CayleyTree, EuclideanSpace, HyperbolicPlane, MetricTree, Space, TreePoint, space_from_json


class Isometry:
    #: the kind of a representation into this family
    kind = "abstract"

    @classmethod
    def identity(cls, space: Space) -> "Isometry":
        raise NotImplementedError

    @classmethod
    def from_json(cls, space: Space, data: dict) -> "Isometry":
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def is_identity(self, tol: float = 1e-9) -> bool:
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
        n = self.translation.shape[0]
        if self.matrix.shape != (n, n):
            raise DomainError("matrix/translation dimension mismatch")
        if not np.allclose(self.matrix @ self.matrix.T, np.eye(n), atol=1e-9):
            raise DomainError("matrix is not orthogonal")

    @classmethod
    def identity(cls, space: EuclideanSpace) -> "EuclideanIsometry":
        return cls(np.eye(space.dim), np.zeros(space.dim))

    @classmethod
    def from_json(cls, space: EuclideanSpace, data: dict) -> "EuclideanIsometry":
        return cls(data["matrix"], data["translation"])

    def to_json(self) -> dict:
        return {"matrix": self.matrix.tolist(), "translation": self.translation.tolist()}

    def apply(self, p):
        return self.matrix @ p + self.translation

    def compose(self, other: "EuclideanIsometry") -> "EuclideanIsometry":
        return EuclideanIsometry(
            self.matrix @ other.matrix, self.matrix @ other.translation + self.translation
        )

    def inverse(self) -> "EuclideanIsometry":
        inv = self.matrix.T
        return EuclideanIsometry(inv, -(inv @ self.translation))

    def is_identity(self, tol: float = 1e-9) -> bool:
        n = self.translation.shape[0]
        return bool(
            np.max(np.abs(self.matrix - np.eye(n))) <= tol
            and np.max(np.abs(self.translation)) <= tol
        )


class HyperbolicIsometry(Isometry):
    kind = "matrix-on-H2"

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (2, 2):
            raise DomainError("hyperbolic isometries are 2x2 matrices")
        det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        if det <= 0.0:
            raise DomainError("matrix must have positive determinant")
        m = m / math.sqrt(det)
        # A and -A act identically; fix the sign for testable equality
        for x in m.flat:
            if abs(x) > 1e-12:
                if x < 0.0:
                    m = -m
                break
        self.matrix = m
        self.trace = float(m[0, 0] + m[1, 1])

    @classmethod
    def identity(cls, space: HyperbolicPlane | None = None) -> "HyperbolicIsometry":
        return cls(np.eye(2))

    @classmethod
    def from_json(cls, space: HyperbolicPlane, data: dict) -> "HyperbolicIsometry":
        return cls(data["matrix"])

    def to_json(self) -> dict:
        return {"matrix": self.matrix.tolist()}

    @staticmethod
    def _to_sym(p) -> np.ndarray:
        return np.array([[p[0] + p[1], p[2]], [p[2], p[0] - p[1]]])

    @staticmethod
    def _from_sym(x: np.ndarray) -> np.ndarray:
        return np.array([0.5 * (x[0, 0] + x[1, 1]), 0.5 * (x[0, 0] - x[1, 1]), x[0, 1]])

    def apply(self, p):
        a = self.matrix
        return self._from_sym(a @ self._to_sym(p) @ a.T)

    def so21_matrix(self) -> np.ndarray:
        """The induced 3x3 matrix acting on hyperboloid coordinates."""
        cols = []
        for basis in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])):
            cols.append(self.apply(basis))
        return np.column_stack(cols)

    def compose(self, other: "HyperbolicIsometry") -> "HyperbolicIsometry":
        return HyperbolicIsometry(self.matrix @ other.matrix)

    def inverse(self) -> "HyperbolicIsometry":
        a, b, c, d = self.matrix.flat
        return HyperbolicIsometry(np.array([[d, -b], [-c, a]]))

    def is_identity(self, tol: float = 1e-9) -> bool:
        return bool(np.max(np.abs(self.matrix - np.eye(2))) <= tol)

    def equals(self, other: "HyperbolicIsometry") -> bool:
        return bool(np.max(np.abs(self.matrix - other.matrix)) <= 1e-9)

    def is_hyperbolic(self, tol: float = 1e-9) -> bool:
        return abs(self.trace) > 2.0 + tol

    def translation_length(self) -> float:
        """2 arccosh(|trace|/2) for hyperbolic elements, else 0."""
        h = abs(self.trace) / 2.0
        if h <= 1.0:
            return 0.0
        return 2.0 * math.acosh(h)

    def axis_endpoints(self, tol: float = 1e-9):
        """Boundary fixed points of a hyperbolic element, as a sorted pair.

        Endpoints are the real eigen-directions, encoded as the slope
        v0/v1 of the eigenvector (math.inf for a vertical direction).
        Returns None for non-hyperbolic elements.
        """
        if not self.is_hyperbolic(tol):
            return None
        eigvals, eigvecs = np.linalg.eig(self.matrix)
        pts = []
        for j in range(2):
            v = np.real(eigvecs[:, j])
            pts.append(math.inf if abs(v[1]) < 1e-12 else float(v[0] / v[1]))
        return tuple(sorted(pts))


class TreeAutomorphism(Isometry):
    kind = "tree-automorphisms"

    def __init__(self, tree: MetricTree, permutation: dict):
        self.tree = tree
        self.permutation = dict(permutation)
        vs = set(tree.vertices)
        if set(self.permutation) != vs or set(self.permutation.values()) != vs:
            raise DomainError("permutation must be a bijection on the tree vertices")
        for a, b, length in tree.edges:
            ia = tree._index[self.permutation[a]]
            ib = tree._index[self.permutation[b]]
            k = tree._edge_by_pair.get((ia, ib))
            if k is None:
                raise DomainError(f"image of edge {a}-{b} is not an edge")
            if abs(tree.edges[k][2] - length) > 1e-12:
                raise DomainError(f"image of edge {a}-{b} has a different length")

    @classmethod
    def identity(cls, tree: MetricTree) -> "TreeAutomorphism":
        return cls(tree, {v: v for v in tree.vertices})

    @classmethod
    def from_json(cls, tree: MetricTree, data: dict) -> "TreeAutomorphism":
        # JSON object keys are strings; map back onto the vertex ids
        by_str = {str(v): v for v in tree.vertices}
        return cls(tree, {by_str[k]: v for k, v in data["permutation"].items()})

    def to_json(self) -> dict:
        return {"permutation": {str(v): w for v, w in self.permutation.items()}}

    def apply(self, p: TreePoint) -> TreePoint:
        if p.edge is None:
            return self.tree.vertex_point(self.permutation[p.vertex])
        a, b, length = self.tree.edges[p.edge]
        ia = self.tree._index[self.permutation[a]]
        ib = self.tree._index[self.permutation[b]]
        k = self.tree._edge_by_pair[(ia, ib)]
        ka, _, _ = self.tree.edges[k]
        offset = p.offset if ka == self.permutation[a] else length - p.offset
        return self.tree.edge_point(k, offset)

    def compose(self, other: "TreeAutomorphism") -> "TreeAutomorphism":
        return TreeAutomorphism(
            self.tree, {v: self.permutation[other.permutation[v]] for v in self.tree.vertices}
        )

    def inverse(self) -> "TreeAutomorphism":
        return TreeAutomorphism(self.tree, {w: v for v, w in self.permutation.items()})

    def is_identity(self, tol: float = 1e-9) -> bool:
        return all(self.permutation[v] == v for v in self.tree.vertices)


class CayleyTranslation(Isometry):
    kind = "free-on-cayley-tree"

    def __init__(self, tree: CayleyTree, word: words.Word):
        self.tree = tree
        words.check_alphabet(word, tree.rank)
        self.word = words.reduce_word(word)

    @classmethod
    def identity(cls, tree: CayleyTree) -> "CayleyTranslation":
        return cls(tree, ())

    @classmethod
    def from_json(cls, tree: CayleyTree, data: dict) -> "CayleyTranslation":
        return cls(tree, words.parse_word(data["word"], tree.rank))

    def to_json(self) -> dict:
        return {"word": words.word_to_str(self.word)}

    def apply(self, p: CayleyPoint) -> CayleyPoint:
        base = words.multiply(self.word, p.word)
        if p.letter == 0:
            return CayleyPoint(word=base)
        return self.tree.edge_point(base, p.letter, p.t)

    def compose(self, other: "CayleyTranslation") -> "CayleyTranslation":
        return CayleyTranslation(self.tree, words.multiply(self.word, other.word))

    def inverse(self) -> "CayleyTranslation":
        return CayleyTranslation(self.tree, words.inverse(self.word))

    def is_identity(self, tol: float = 1e-9) -> bool:
        return self.word == ()

    def translation_length(self) -> int:
        """Length of the cyclic reduction (the tree translation length)."""
        _, core = words.cyclic_reduction(self.word)
        return len(core)


#: the isometry family of each space model
FAMILIES = {
    EuclideanSpace.model: EuclideanIsometry,
    HyperbolicPlane.model: HyperbolicIsometry,
    MetricTree.model: TreeAutomorphism,
    CayleyTree.model: CayleyTranslation,
}


class Representation:
    """Generators of a finitely generated group acting by isometries."""

    def __init__(
        self,
        space: Space,
        generators: Sequence[Isometry],
        check_samples: int = 1000,
        seed: int = 0,
    ):
        self.space = space
        self.generators = list(generators)
        if not self.generators:
            raise DomainError("a representation needs at least one generator")
        self.family = FAMILIES[space.model]
        self.kind = self.family.kind
        self.alphabet_size = len(self.generators)
        if check_samples > 0:
            self._check_isometry_property(check_samples, seed)

    def _check_isometry_property(self, samples: int, seed: int) -> None:
        rng = np.random.default_rng(seed)
        pts = [self.space.random_point(rng) for _ in range(samples + 1)]
        for g in self.generators:
            for p, q in zip(pts, pts[1:]):
                d0 = self.space.dist(p, q)
                d1 = self.space.dist(g.apply(p), g.apply(q))
                if abs(d0 - d1) > 1e-9 * max(1.0, d0):
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
            iso = self.generators[abs(x) - 1]
            if x < 0:
                iso = iso.inverse()
            result = result.compose(iso)
        return result

    def act(self, g: words.Word, p):
        return self.evaluate(g).apply(p)

    def is_trivial(self, tol: float = 1e-9) -> bool:
        return all(g.is_identity(tol) for g in self.generators)


def orbit_distance(rho: Representation, y, g: words.Word, h: words.Word) -> float:
    """The orbit pseudo-metric d_y(g, h) = dist(g.y, h.y)."""
    return rho.space.dist(rho.act(g, y), rho.act(h, y))
