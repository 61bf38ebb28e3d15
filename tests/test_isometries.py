import math

import numpy as np
import pytest

from geowidth.errors import AlphabetMismatchError, DomainError
from geowidth.isometries import (
    CayleyTranslation,
    EuclideanIsometry,
    HyperbolicIsometry,
    Representation,
    TreeAutomorphism,
    orbit_distance,
)
from geowidth.spaces import CayleyTree, EuclideanSpace, HyperbolicPlane, MetricTree


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
        assert g.translation_length() == pytest.approx(2.0, abs=1e-12)

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
        assert rot.translation_length() == 0.0

    def test_axis_endpoints(self):
        g = HyperbolicIsometry([[math.e, 0.0], [0.0, 1.0 / math.e]])
        assert g.axis_endpoints() == (0.0, math.inf)
        h = HyperbolicIsometry([[2.0, 1.0], [1.0, 1.0]])
        lo, hi = h.axis_endpoints()
        # fixed slopes solve s = (2s + 1) / (s + 1), i.e. s^2 - s - 1 = 0
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        assert hi == pytest.approx(phi)
        assert lo == pytest.approx(1.0 - phi)
        assert HyperbolicIsometry(rotation2(1.0)).axis_endpoints() is None

    def test_so21_matrix_agrees(self):
        g = HyperbolicIsometry([[2.0, 1.0], [1.0, 1.0]])
        m = g.so21_matrix()
        space = HyperbolicPlane()
        rng = np.random.default_rng(8)
        p = space.random_point(rng)
        assert np.allclose(m @ p, g.apply(p), atol=1e-9)


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

    def test_translation_length_is_cyclic_length(self):
        tree = CayleyTree(2)
        assert CayleyTranslation(tree, (1, 2)).translation_length() == 2
        assert CayleyTranslation(tree, (-2, 1, 1, 2)).translation_length() == 2
        assert CayleyTranslation(tree, ()).translation_length() == 0

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
