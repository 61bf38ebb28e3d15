import math

import numpy as np
import pytest

from geowidth.errors import AlphabetMismatchError, ConfigError, DomainError
from geowidth.isometries import (
    CayleyTranslation,
    EuclideanIsometry,
    HyperbolicIsometry,
    Representation,
    TreeAutomorphism,
    orbit_distance,
)
from geowidth.spaces import CayleyPoint, CayleyTree, EuclideanSpace, HyperbolicPlane, MetricTree
from geowidth.words import enumerate_ball, multiply, parse_word

from conftest import parabolic_rep, readme_rep


def rotation2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestEuclideanIsometry:
    def test_apply_and_compose(self):
        g = EuclideanIsometry(rotation2(math.pi / 2), [1.0, 0.0])
        h = EuclideanIsometry(np.eye(2), [0.0, 2.0])
        p = np.array([1.0, 0.0])
        assert np.allclose(g.apply(p), [1.0, 1.0])
        assert np.allclose(g.compose(h).apply(p), g.apply(h.apply(p)))

    def test_inverse(self):
        g = EuclideanIsometry(rotation2(0.7), [3.0, -1.0])
        p = np.array([0.2, 0.4])
        assert np.allclose(g.inverse().apply(g.apply(p)), p)
        assert g.compose(g.inverse()).is_identity()

    def test_compose_inverse_identity_skip_the_orthogonality_check(self, monkeypatch):
        g = EuclideanIsometry(rotation2(0.3), [1.0, 2.0])
        h = EuclideanIsometry(rotation2(-1.1), [0.5, 0.0])
        checked = EuclideanIsometry(g.matrix @ h.matrix, g.matrix @ h.translation + g.translation)

        def refuse(*args, **kwargs):
            raise AssertionError("orthogonality re-checked")

        monkeypatch.setattr(np, "allclose", refuse)
        gh, gi, e = g.compose(h), g.inverse(), EuclideanIsometry.identity(EuclideanSpace(2))
        monkeypatch.undo()
        # bit for bit what the checking constructor builds
        assert (gh.matrix.tolist(), gh.translation.tolist()) == (checked.matrix.tolist(), checked.translation.tolist())
        inv = EuclideanIsometry(g.matrix.T, -(g.matrix.T @ g.translation))
        assert (gi.matrix.tolist(), gi.translation.tolist()) == (inv.matrix.tolist(), inv.translation.tolist())
        assert (e.matrix.tolist(), e.translation.tolist()) == (np.eye(2).tolist(), [0.0, 0.0])

    def test_generator_of_another_dimension_refused(self):
        data = {
            "space": {"model": "euclidean", "dim": 3},
            "generators": [{"matrix": [[1.0, 0.0], [0.0, 1.0]], "translation": [0.0, 1.0]}],
        }
        with pytest.raises(ConfigError):
            Representation.from_json(data, check_samples=0)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(DomainError):
            EuclideanIsometry([[2.0, 0.0], [0.0, 1.0]], [0.0, 0.0])


class TestHyperbolicIsometry:
    def test_identity(self):
        g = HyperbolicIsometry.identity()
        p = np.array([math.cosh(1.3), math.sinh(1.3), 0.0])
        assert np.allclose(g.apply(p), p)

    def test_diagonal_translates_along_axis(self):
        # diag(e, 1/e) moves the basepoint distance 2 along the x2 = 0 axis
        g = HyperbolicIsometry([[math.e, 0.0], [0.0, 1.0 / math.e]])
        space = HyperbolicPlane()
        o = space.point([1.0, 0.0, 0.0])
        img = g.apply(o)
        assert np.allclose(img, [math.cosh(2.0), math.sinh(2.0), 0.0])
        assert space.dist(o, img) == pytest.approx(2.0, abs=1e-12)

    def test_preserves_hyperboloid_and_distance(self):
        g = HyperbolicIsometry([[2.0, 1.0], [1.0, 1.0]])
        space = HyperbolicPlane()
        rng = np.random.default_rng(4)
        for _ in range(50):
            p, q = space.random_point(rng), space.random_point(rng)
            gp, gq = g.apply(p), g.apply(q)
            assert abs(space.minkowski(gp, gp) - 1.0) <= 1e-9
            assert space.dist(gp, gq) == pytest.approx(space.dist(p, q), rel=1e-9)

    def test_determinant_normalized(self):
        g = HyperbolicIsometry([[2.0, 0.0], [0.0, 2.0]])
        assert g.is_identity()

    def test_determinant_normalized_near_overflow(self):
        # |ad| + |bc| = 2.69e308 overflows although det = 6.9e307 is finite
        g = HyperbolicIsometry([[1.3e154, 1e154], [1e154, 1.3e154]])
        assert np.linalg.det(g.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_sign_normalized(self):
        g = HyperbolicIsometry([[-1.0, 0.0], [0.0, -1.0]])
        assert g.is_identity()

    def test_inverse_composition(self):
        g = HyperbolicIsometry([[5.0, 2.0], [2.0, 1.0]])
        assert g.compose(g.inverse()).is_identity()

    def test_trace_classification(self):
        assert HyperbolicIsometry([[2.0, 1.0], [1.0, 1.0]]).is_hyperbolic()
        rot = HyperbolicIsometry(rotation2(0.5))  # elliptic
        assert not rot.is_hyperbolic()

    def test_saved_matrices_load_exactly(self):
        # a matrix that its own normalisation left has determinant 1 to within that rounding
        rng = np.random.default_rng(11)
        for _ in range(20_000):
            m = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-3.0, 3.0)
            if m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] <= 0.0:
                m = m[::-1]
            g = HyperbolicIsometry(m)
            assert np.array_equal(HyperbolicIsometry.from_json(HyperbolicPlane(), g.to_json()).matrix, g.matrix)


class TestTreeAutomorphism:
    def tripod(self):
        return MetricTree(
            ["c", "p", "q", "r"], [("c", "p", 1.0), ("c", "q", 1.0), ("c", "r", 1.0)]
        )

    def test_leaf_rotation(self):
        tree = self.tripod()
        g = TreeAutomorphism(tree, {"c": "c", "p": "q", "q": "r", "r": "p"})
        assert g.apply(tree.vertex_point("p")) == tree.vertex_point("q")
        assert g.compose(g).compose(g).is_identity()

    def test_edge_point_orientation(self):
        tree = self.tripod()
        g = TreeAutomorphism(tree, {"c": "c", "p": "q", "q": "p", "r": "r"})
        x = tree.geodesic_point(tree.vertex_point("c"), tree.vertex_point("p"), 0.25)
        y = g.apply(x)
        assert tree.dist(y, tree.vertex_point("q")) == pytest.approx(0.75)
        assert tree.dist(y, tree.vertex_point("c")) == pytest.approx(0.25)

    def test_compose_inverse_identity_skip_the_edge_check(self, monkeypatch):
        # the heap-shaped 20-edge tree of the acceptance suite
        tree = MetricTree(list(range(21)), [(i, (i - 1) // 2, 0.5 + 0.35 * (i % 5)) for i in range(1, 21)])
        g = TreeAutomorphism(tree, {v: v for v in tree.vertices})
        calls, edge_between = [], tree._edge_between
        monkeypatch.setattr(tree, "_edge_between", lambda a, b: calls.append((a, b)) or edge_between(a, b))
        gg, gi, e = g.compose(g), g.inverse(), TreeAutomorphism.identity(tree)
        assert calls == []
        assert gg.permutation == gi.permutation == e.permutation == g.permutation

    def test_trusted_permutations_match_the_checking_constructor(self, monkeypatch):
        # a 20-edge star with equal edges: every leaf permutation is an automorphism
        leaves = list(range(1, 21))
        tree = MetricTree([0] + leaves, [(0, v, 1.0) for v in leaves])
        shift = TreeAutomorphism(tree, {0: 0, **{v: v % 20 + 1 for v in leaves}})
        swap = TreeAutomorphism(tree, {0: 0, **{v: v for v in leaves}, 1: 2, 2: 1})
        calls, edge_between = [], tree._edge_between
        monkeypatch.setattr(tree, "_edge_between", lambda a, b: calls.append((a, b)) or edge_between(a, b))
        products = [shift.compose(swap), swap.compose(shift), shift.inverse(), shift.compose(shift.inverse())]
        assert calls == []
        monkeypatch.undo()
        assert products[0].permutation[1] == shift.permutation[2] == 3
        assert products[1].permutation[1] == swap.permutation[2] == 1
        assert products[3].is_identity()
        for g in products:
            checked = TreeAutomorphism(tree, g.permutation)
            assert g.permutation == checked.permutation
            p = tree.edge_point(0, 0.25)
            assert g.apply(p) == checked.apply(p)

    def test_offset_measured_on_the_image_edge(self):
        # lengths within the constructor's 1e-12: the offset is measured on the image edge and stays on it
        tree = MetricTree(["c", "p", "q"], [("c", "p", 1.0), ("c", "q", 1.0 + 5e-13)])
        swap = TreeAutomorphism(tree, {"c": "c", "p": "q", "q": "p"})
        assert swap.apply(tree.edge_point(1, 1.0 + 4e-13)) == tree.vertex_point("p")
        assert swap.apply(tree.edge_point(0, 0.75)) == tree.edge_point(1, 0.75)
        flip = MetricTree(["p", "c", "q"], [("p", "c", 1.0), ("c", "q", 1.0 + 5e-13)])
        g = TreeAutomorphism(flip, {"c": "c", "p": "q", "q": "p"})
        assert g.apply(flip.edge_point(1, 1.0 + 4e-13)) == flip.vertex_point("p")  # offset 1 - (1 + 4e-13) < 0
        assert g.apply(flip.edge_point(1, 0.25)) == flip.edge_point(0, 0.75)

    def test_length_incompatible_rejected(self):
        tree = MetricTree(["c", "p", "q"], [("c", "p", 1.0), ("c", "q", 2.0)])
        with pytest.raises(DomainError):
            TreeAutomorphism(tree, {"c": "c", "p": "q", "q": "p"})

    def test_non_bijection_rejected(self):
        tree = self.tripod()
        with pytest.raises(DomainError):
            TreeAutomorphism(tree, {"c": "c", "p": "p", "q": "p", "r": "r"})


class TestCayleyTranslation:
    def test_left_action(self):
        tree = CayleyTree(2)
        g = CayleyTranslation(tree, (1,))
        assert g.apply(tree.vertex_point(())) == tree.vertex_point((1,))
        assert g.apply(tree.vertex_point((-1,))) == tree.vertex_point(())

    def test_preserves_distance(self):
        tree = CayleyTree(2)
        g = CayleyTranslation(tree, (1, 2, -1))
        rng = np.random.default_rng(6)
        for _ in range(50):
            p, q = tree.random_point(rng), tree.random_point(rng)
            assert tree.dist(g.apply(p), g.apply(q)) == pytest.approx(tree.dist(p, q))

    def test_alphabet_guard(self):
        with pytest.raises(AlphabetMismatchError):
            CayleyTranslation(CayleyTree(2), (3,))


class TestRepresentation:
    def test_evaluate_folds_composition(self):
        rho = Representation.free_on_cayley_tree(2)
        tree = rho.space
        e = tree.vertex_point(())
        assert rho.act((1, 2, -1), e) == tree.vertex_point((1, 2, -1))

    def test_matrix_representation_word(self):
        space = HyperbolicPlane()
        a = HyperbolicIsometry([[1.0, 2.0], [0.0, 1.0]])
        b = HyperbolicIsometry([[1.0, 0.0], [2.0, 1.0]])
        rho = Representation(space, [a, b], check_samples=50)
        g = rho.evaluate((1, -2))
        expected = a.compose(b.inverse())
        assert np.allclose(g.matrix, expected.matrix)

    def test_rejects_non_isometry(self):
        class Shear(EuclideanIsometry):
            def __init__(self):
                self.matrix = np.array([[1.0, 1.0], [0.0, 1.0]])
                self.translation = np.zeros(2)

        with pytest.raises(DomainError):
            Representation(EuclideanSpace(2), [Shear()], check_samples=50)

    @pytest.mark.parametrize(
        "space, generator",
        [
            ({"model": "euclidean", "dim": 2}, {"matrix": [[1, 0], [0, 1]], "translation": [math.nan, 0]}),
            ({"model": "hyperbolic"}, {"matrix": [[1e308, 1e308], [-1e308, 1e308]]}),
            ({"model": "hyperbolic"}, {"matrix": [[math.inf, 0], [0, 1]]}),
        ],
        ids=["translation-nan", "determinant-overflow", "entry-inf"],
    )
    def test_non_finite_generators_refused_without_samples(self, space, generator):
        # the constructors refuse them; the sampled isometry check does not run
        with pytest.raises(DomainError, match="must be finite"):
            Representation.from_json({"space": space, "generators": [generator]}, check_samples=0)

    def test_is_trivial(self):
        rho = Representation(
            EuclideanSpace(2), [EuclideanIsometry.identity(EuclideanSpace(2))], check_samples=0
        )
        assert rho.is_trivial()

    def test_orbit_distance_word_length(self):
        rho = Representation.free_on_cayley_tree(2)
        e = rho.space.vertex_point(())
        assert orbit_distance(rho, e, (1, 2, 1), ()) == pytest.approx(3.0)
        # pseudo-metric collapses when the basepoint is moved the same way
        assert orbit_distance(rho, e, (1, 2), (1, 2)) == 0.0


class TestTrustedPath:
    def reps(self):
        tree = MetricTree([0] + list(range(1, 5)), [(0, v, 1.0) for v in range(1, 5)])
        return [
            Representation(
                EuclideanSpace(2),
                [EuclideanIsometry(rotation2(0.4), [1.0, 0.0]), EuclideanIsometry(np.eye(2), [0.0, 1.0])],
                check_samples=10,
            ),
            readme_rep(),
            Representation(
                tree,
                [
                    TreeAutomorphism(tree, {0: 0, 1: 2, 2: 3, 3: 4, 4: 1}),
                    TreeAutomorphism(tree, {0: 0, 1: 2, 2: 1, 3: 3, 4: 4}),
                ],
                check_samples=10,
            ),
            Representation.free_on_cayley_tree(2),
        ]

    def test_evaluate_inverse_identity_run_no_constructor(self, monkeypatch):
        reps = self.reps()

        def refuse(self, *args, **kwargs):
            raise AssertionError("checking constructor called")

        for cls in (EuclideanIsometry, HyperbolicIsometry, TreeAutomorphism, CayleyTranslation):
            monkeypatch.setattr(cls, "__init__", refuse)
        word = (1, 2, -1, -1, 2, 2, 1, -2, -1, 2) * 2
        for rho in reps:
            g = rho.evaluate(word)
            assert g.compose(g.inverse()).compose(rho.identity_isometry()).is_identity()

    @pytest.mark.parametrize("make_rep", [readme_rep, parabolic_rep])
    def test_words_match_the_checking_constructor_bit_for_bit(self, make_rep):
        rho = make_rep()
        for w in enumerate_ball(2, 4):
            checked = HyperbolicIsometry(np.eye(2))
            for x in w:
                gen = rho.generators[abs(x) - 1]
                if x < 0:
                    a, b, c, d = gen.matrix.flat
                    gen = HyperbolicIsometry([[d, -b], [-c, a]])
                checked = HyperbolicIsometry(checked.matrix @ gen.matrix)
            assert rho.evaluate(w).matrix.tolist() == checked.matrix.tolist()

    def test_integral_products_are_exact(self):
        rho = readme_rep()
        ball = list(enumerate_ball(2, 10))
        rng = np.random.default_rng(12)
        for i, j in rng.integers(0, len(ball), size=(200, 2)):
            w, h = ball[i], ball[j]
            product = rho.evaluate(w).compose(rho.evaluate(h))
            assert np.array_equal(rho.evaluate(w + h).matrix, product.matrix)
            assert product.matrix.tolist() == readme_integer_product(w + h)

    @pytest.mark.parametrize("word", ["bbbbbbbbbbbb", "abababababababab", "aaaaaaaaaaaaaaaaaaaaa"])
    def test_long_readme_words_evaluate(self, word):
        # the float determinant of these products rounds to 0 or below
        w = parse_word(word)
        assert readme_rep().evaluate(w).matrix.tolist() == readme_integer_product(w)


def readme_integer_product(w):
    """The README representation's matrix of w in integers, sign-normalised like HyperbolicIsometry."""
    letters = {1: [[2, 1], [1, 1]], 2: [[5, 2], [2, 1]], -1: [[1, -1], [-1, 2]], -2: [[1, -2], [-2, 5]]}
    m = [[1, 0], [0, 1]]
    for x in w:
        n = letters[x]
        m = [[m[i][0] * n[0][j] + m[i][1] * n[1][j] for j in range(2)] for i in range(2)]
    sign = -1 if next(x for x in m[0] + m[1] if x) < 0 else 1
    return [[sign * x for x in row] for row in m]


def checked_tree_apply(g, p):
    """TreeAutomorphism.apply as it was, through the public vertex_point and edge_point."""
    if p.edge is None:
        return g.tree.vertex_point(g.permutation[p.vertex])
    a, b, length = g.tree.edges[p.edge]
    k = g.tree._edge_between(g.permutation[a], g.permutation[b])
    ka, _, _ = g.tree.edges[k]
    offset = p.offset if ka == g.permutation[a] else length - p.offset
    return g.tree.edge_point(k, offset)


def checked_cayley_apply(g, p):
    """CayleyTranslation.apply as it was, through the public edge_point."""
    base = multiply(g.word, p.word)
    if p.letter == 0:
        return CayleyPoint(word=base)
    return g.tree.edge_point(base, p.letter, p.t)


class TestTrustedApply:
    def isometries(self):
        tripod = MetricTree(["c", "p", "q", "r"], [("c", "p", 1.0), ("r", "c", 1.0), ("c", "q", 1.0)])
        path = MetricTree(list(range(7)), [(i, i + 1, 0.5 + 0.25 * min(i, 5 - i)) for i in range(6)])
        out = [
            TreeAutomorphism(tripod, {"c": "c", "p": "q", "q": "r", "r": "p"}),
            TreeAutomorphism(tripod, {"c": "c", "p": "r", "q": "q", "r": "p"}),
            TreeAutomorphism(path, {i: 6 - i for i in range(7)}),
        ]
        for rank in (1, 2, 3):
            tree = CayleyTree(rank)
            out += [CayleyTranslation(tree, w) for w in enumerate_ball(rank, 2)]
        return out

    def test_apply_matches_the_checked_path(self):
        rng = np.random.default_rng(59)
        for g in self.isometries():
            checked = checked_tree_apply if isinstance(g, TreeAutomorphism) else checked_cayley_apply
            for _ in range(300):
                p = g.tree.random_point(rng)
                assert g.apply(p) == checked(g, p)
