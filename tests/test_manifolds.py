"""Geometry of the three concrete manifolds and their shared interface."""

import math
import warnings

import numpy as np
import pytest

from ivopt.calculus import width_monotone_along
from ivopt.convexity import DomainSampler, Verdict, check_convex, check_star_shaped
from ivopt.errors import (
    DomainError,
    ManifoldMismatchError,
    NonPositiveDefiniteError,
)
from ivopt.functions import IvFn, RealFn
from ivopt.manifolds import (
    ANGLE_SLACK,
    TWO_PI,
    Circle,
    Euclidean,
    Point,
    Spd,
    distance,
    exp_map,
    inner,
    log_map,
    sym_exp,
    sym_log,
    sym_power,
    symmetrize,
)

E1 = Euclidean(1)
E2 = Euclidean(2)
S1 = Circle()
SPD = Spd(2)

I2 = np.eye(2)


class TestEuclidean:
    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            Euclidean(0)

    def test_geodesic_is_linear_interpolation(self):
        p, q = E1.point([0.0]), E1.point([4.0])
        mid = E1.geodesic_point(p, q, 0.25)
        assert mid.value[0] == pytest.approx(1.0, abs=1e-15)
        assert distance(E1.geodesic_point(p, q, 0.0), p) <= 1e-9
        assert distance(E1.geodesic_point(p, q, 1.0), q) <= 1e-9

    def test_distance_pythagoras(self):
        assert distance(E2.point([0, 0]), E2.point([3, 4])) == pytest.approx(5.0)

    def test_log_exp(self):
        p, q = E2.point([1.0, -1.0]), E2.point([2.0, 3.0])
        x = log_map(p, q)
        assert np.allclose(x.value, [1.0, 4.0])
        assert distance(exp_map(p, x, 1.0), q) <= 1e-9
        zero = E2.tangent(p, [0.0, 0.0])
        assert distance(exp_map(p, zero, 0.7), p) <= 1e-9
        assert np.allclose(log_map(p, p).value, [0.0, 0.0])

    def test_features(self):
        feats = E2.features(E2.point([0.5, -2.0]))
        assert feats == {"x1": 0.5, "x2": -2.0}

    def test_inner_is_the_dot_product(self):
        p = E2.point([1.0, -1.0])
        assert inner(p, E2.tangent(p, [1.0, 2.0]), E2.tangent(p, [3.0, -4.0])) == -5.0

    def test_point_shape_checked(self):
        with pytest.raises(DomainError):
            E2.point([1.0])
        with pytest.raises(DomainError):
            E1.point([float("inf")])


class TestCircle:
    def test_chart_range_enforced_with_slack(self):
        assert S1.point(-0.5 * ANGLE_SLACK).value == 0.0
        assert S1.point(TWO_PI + 0.5 * ANGLE_SLACK).value == TWO_PI
        with pytest.raises(DomainError):
            S1.point(-0.1)
        with pytest.raises(DomainError):
            S1.point(TWO_PI + 0.1)

    def test_geodesic_endpoints(self):
        p, q = S1.point(math.pi / 2), S1.point(1.2)
        assert S1.geodesic_point(p, q, 0.0).value == pytest.approx(math.pi / 2)
        assert S1.geodesic_point(p, q, 1.0).value == pytest.approx(1.2)

    def test_log_is_chart_difference_without_wrap(self):
        x = log_map(S1.point(math.pi / 2), S1.point(0.0))
        assert x.value == pytest.approx(-math.pi / 2)
        # no shortest-arc wrapping: theta=0 and theta=2*pi are far apart
        assert distance(S1.point(0.0), S1.point(TWO_PI)) == pytest.approx(TWO_PI)

    def test_exp_inverts_log(self):
        p0 = S1.point(math.pi / 2)
        for theta in (0.0, 0.3, 2.0, 6.0):
            v = S1.tangent(p0, theta - math.pi / 2)
            assert exp_map(p0, v, 1.0).value == pytest.approx(theta, abs=1e-12)

    def test_inner_is_velocity_product(self):
        p = S1.point(1.0)
        assert inner(p, S1.tangent(p, 2.0), S1.tangent(p, -3.0)) == pytest.approx(-6.0)

    def test_features(self):
        assert S1.features(S1.point(1.25)) == {"theta": 1.25}


class TestSpdHelpers:
    def test_sym_power_examples(self):
        assert np.allclose(sym_power(4.0 * I2, 0.5), 2.0 * I2)
        p = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.allclose(sym_power(p, 1.0), p)
        assert np.allclose(sym_power(np.diag([1.0, 4.0]), 0.5), np.diag([1.0, 2.0]))
        assert np.allclose(sym_power(p, 0.0), I2)

    def test_sym_log_exp_invert(self):
        p = np.array([[3.0, 1.0], [1.0, 2.0]])
        assert np.allclose(sym_exp(sym_log(p)), p)
        assert np.allclose(sym_log(I2), np.zeros((2, 2)))

    def test_symmetrize_tolerance(self):
        mild = np.array([[1.0, 1e-9], [0.0, 1.0]])
        out = symmetrize(mild)
        assert np.allclose(out, out.T)
        with pytest.raises(DomainError):
            symmetrize(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_non_pd_rejected(self):
        with pytest.raises(NonPositiveDefiniteError):
            sym_log(np.diag([1.0, -1.0]))
        with pytest.raises(NonPositiveDefiniteError):
            SPD.point(np.diag([1.0, 0.0]))


class TestSpd:
    def test_geodesic_between_commuting_matrices(self):
        p, q = SPD.point(I2), SPD.point(2.0 * I2)
        for s in (0.0, 0.25, 0.5, 1.0):
            g = SPD.geodesic_point(p, q, s)
            assert np.allclose(g.value, 2.0**s * I2, atol=1e-12)
        mid = SPD.geodesic_point(p, q, 0.5)
        sign, logdet = np.linalg.slogdet(mid.value)
        assert sign > 0
        assert logdet == pytest.approx(math.log(2.0), abs=1e-12)

    def test_log_exp_closed_forms(self):
        p, q = SPD.point(I2), SPD.point(2.0 * I2)
        x = log_map(p, q)
        assert np.allclose(x.value, math.log(2.0) * I2, atol=1e-12)
        for s in (0.3, 1.0):
            assert np.allclose(exp_map(p, x, s).value, 2.0**s * I2, atol=1e-12)

    def test_distance_closed_form(self):
        d = distance(SPD.point(I2), SPD.point(2.0 * I2))
        assert d == pytest.approx(math.sqrt(2.0) * math.log(2.0), abs=1e-12)

    def test_inner_affine_invariant(self):
        p = SPD.point(I2)
        a = np.array([[1.0, 2.0], [2.0, 0.0]])
        b = np.array([[0.5, -1.0], [-1.0, 3.0]])
        assert inner(p, SPD.tangent(p, a), SPD.tangent(p, b)) == pytest.approx(
            np.trace(a @ b)
        )
        p2 = SPD.point(2.0 * I2)
        x = SPD.tangent(p2, I2)
        assert inner(p2, x, x) == pytest.approx(0.5)

    def test_inner_positive_definite(self):
        rng = np.random.default_rng(7)
        p = SPD.random_point(rng)
        x = SPD.tangent(p, np.array([[0.2, -1.0], [-1.0, 0.7]]))
        assert inner(p, x, x) > 0.0

    def test_chord_point_is_ambient_mixing(self):
        p, q = SPD.point(I2), SPD.point(2.0 * I2)
        mid = SPD.chord_point(p, q, 0.5)
        assert np.allclose(mid.value, 1.5 * I2)

    def test_features(self):
        feats = SPD.features(SPD.point(2.0 * I2))
        assert feats["logdet"] == pytest.approx(math.log(4.0), abs=1e-12)
        assert feats["trace"] == pytest.approx(4.0)

    # above EIG_FLOOR by eigvalsh (min eigenvalue about 3.6e-12), yet with no
    # Cholesky factor, so no pencil, distance, log or grid could start from it
    ROT = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
    NO_FACTOR = ROT @ np.diag([1e5, 2e-12]) @ ROT.T

    def test_point_requires_a_cholesky_factor(self):
        assert np.linalg.eigvalsh(symmetrize(self.NO_FACTOR)).min() > 1e-12
        with pytest.raises(NonPositiveDefiniteError, match="^matrix has no Cholesky factor$"):
            SPD.point(self.NO_FACTOR)

    def test_a_stack_with_a_matrix_without_a_cholesky_factor_is_refused(self):
        sym, features = SPD._stack(np.stack([I2, 2.0 * I2]))
        assert features["trace"].tolist() == [2.0, 4.0]
        assert SPD._stack(np.stack([I2, self.NO_FACTOR])) is None

    @pytest.mark.parametrize("manifold", [Spd(1), SPD, Spd(3)], ids=str)
    def test_log_and_distance_match_their_formulas_bitwise(self, manifold):
        rng = np.random.default_rng(17)
        for _ in range(50):
            p, q = manifold.random_point(rng), manifold.random_point(rng)
            # the Cholesky pencil: p = L L^T, L^-1 q L^-T = V diag(vals) V^T
            low = np.linalg.cholesky(p.value)
            inv = np.linalg.inv(low)
            m = inv @ q.value @ inv.T
            vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
            b = low @ vecs
            assert log_map(p, q).value.tobytes() == ((b * np.log(vals)) @ b.T).tobytes()
            assert distance(p, q).hex() == float(np.sqrt(np.sum(np.log(vals) ** 2))).hex()
            # the same maps as through the symmetric square root of p
            half, inv_half = sym_power(p.value, 0.5), sym_power(p.value, -0.5)
            m = inv_half @ q.value @ inv_half
            assert np.allclose(log_map(p, q).value, half @ sym_log(m) @ half,
                               rtol=1e-12, atol=1e-12)


def _grid(n, interior):
    first, last = (1, n - 1) if interior else (0, n)
    return [j / (n - 1) for j in range(first, last)]


def _hex(feats):
    return {name: float(value).hex() for name, value in feats.items()}


def _per_point_geodesic(manifold, p, q, s):
    """The geodesic point p^1/2 (p^-1/2 q p^-1/2)^s p^1/2, validated by Spd.point."""
    half, inv_half = sym_power(p.value, 0.5), sym_power(p.value, -0.5)
    return manifold.point(half @ sym_power(inv_half @ q.value @ inv_half, s) @ half)


def _closed_form_point(manifold, p, q, s):
    """One geodesic point from the pair's pencil (b, vals), with b b^T = p and
    b diag(vals) b^T = q: its value and its closed-form logdet and trace."""
    b, vals = manifold._pencil(p, q)
    logs = np.log(vals)
    eig = np.exp(s * logs)
    raw = (b * eig) @ b.T
    trace = 0.0
    for w, e in zip(np.sum(b * b, axis=0).tolist(), eig.tolist()):
        trace += w * e
    logdet = manifold.features(p)["logdet"] + s * sum(logs.tolist())
    return 0.5 * (raw + raw.T), {"logdet": logdet, "trace": trace}


class TestSpdGeodesicGrid:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("interior", [False, True])
    def test_grid_matches_per_point_formula_bitwise(self, dim, interior):
        manifold = Spd(dim)
        rng = np.random.default_rng(dim)
        for _ in range(20):
            p, q = manifold.random_point(rng), manifold.random_point(rng)
            for n in (3, 9, 33):  # the full 3-point grid is s = 0, 0.5, 1
                svals = _grid(n, interior)
                points = list(manifold.path_points(p, q, svals))
                assert len(points) == len(svals)
                for s, pt in zip(svals, points):
                    value, feats = _closed_form_point(manifold, p, q, s)
                    assert value.tobytes() == pt.value.tobytes()
                    assert _hex(manifold.features(pt)) == _hex(feats)
                    single = manifold.geodesic_point(p, q, s)
                    assert single.value.tobytes() == pt.value.tobytes()
                    assert _hex(manifold.features(single)) == _hex(manifold.features(pt))
                    # the symmetric-root formula and the point's own slogdet agree
                    ref = _per_point_geodesic(manifold, p, q, s)
                    assert np.allclose(pt.value, ref.value, rtol=1e-12, atol=1e-12)
                    exact = manifold.features(Point(manifold, pt.value))
                    assert feats["logdet"] == pytest.approx(exact["logdet"], abs=1e-12)
                    assert feats["trace"] == pytest.approx(exact["trace"], rel=1e-13)

    def test_grid_points_are_read_only(self):
        p, q = SPD.point(I2), SPD.point(np.diag([2.0, 3.0]))
        pt = next(SPD.path_points(p, q, [0.5]))
        with pytest.raises(ValueError):
            pt.value[0, 0] = 1.0

    def test_empty_grid_builds_nothing(self):
        assert list(SPD.path_points(SPD.point(I2), SPD.point(2.0 * I2), [])) == []

    # p = x I and q = y I with x = 3.7e307 and y = 1.5 * 2^1022, both valid
    # points: the grid point at s has trace 2 x (y/x)^s, and twice that trace
    # overflows from s = 0.32 on, so the points up to s = 0.25 are valid and
    # the one at s = 0.375 breaks the validity rule
    P_BIG = 3.7e307 * I2
    Q_BIG = 1.5 * 2.0**1022 * I2
    SVALS = [j / 8 for j in range(9)]
    FAIL_AT = 3  # s = 0.375

    def test_failing_grid_point_raises_like_point(self):
        p, q = SPD.point(self.P_BIG), SPD.point(self.Q_BIG)
        with pytest.raises(DomainError) as expected:
            SPD.geodesic_point(p, q, self.SVALS[self.FAIL_AT])
        assert str(expected.value) == "matrix entries must be finite"
        built = []
        with pytest.raises(DomainError) as got:
            for pt in SPD.path_points(p, q, self.SVALS):
                built.append(pt)
        assert len(built) == self.FAIL_AT
        assert str(got.value) == str(expected.value)
        for s, pt in zip(self.SVALS, built):
            assert SPD.geodesic_point(p, q, s).value.tobytes() == pt.value.tobytes()

    def test_caller_stopping_before_failing_point_does_not_raise(self):
        p, q = SPD.point(self.P_BIG), SPD.point(self.Q_BIG)
        # grid 9, interior: s = 0.125 is a member, s = 0.25 is not (its trace
        # is above that at s = 3/16), and the point that breaks the rule
        # (s = 0.375) is never reached
        below = 2.0 * 3.7e307 * (self.Q_BIG[0, 0] / 3.7e307) ** (3 / 16)
        dom = DomainSampler(
            membership=lambda pt: pt is q or SPD.features(pt)["trace"] < below,
            sample=lambda rng: q,
        )
        report = check_star_shaped(dom, p, targets=1, grid=9)
        assert report.verdict is Verdict.COUNTEREXAMPLE
        assert report.counterexample.s == 0.25
        everything = DomainSampler(membership=lambda pt: True, sample=lambda rng: q)
        with pytest.raises(DomainError, match="^matrix entries must be finite$"):
            check_star_shaped(everything, p, targets=1, grid=9)


class TestGeodesicFeatures:
    @pytest.mark.parametrize("manifold", [S1, E2, Euclidean(3), SPD, Spd(3)], ids=str)
    def test_arrays_match_grid_point_features_bitwise(self, manifold):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p, q = manifold.random_point(rng), manifold.random_point(rng)
            for svals in (_grid(2, False), _grid(9, True), _grid(33, False)):
                for path in ("geodesic", "chord"):
                    arrays = manifold.path_features(p, q, svals, path)
                    assert sorted(arrays) == sorted(manifold.feature_names)
                    for j, pt in enumerate(manifold.path_points(p, q, svals, path)):
                        for name, value in manifold.features(pt).items():
                            assert float(arrays[name][j]).hex() == float(value).hex(), (
                                path, name, j)

    @pytest.mark.parametrize("manifold", [S1, E2, Euclidean(3), Spd(1), SPD, Spd(3)], ids=str)
    def test_empty_grid_gives_empty_arrays(self, manifold):
        rng = np.random.default_rng(3)
        p, q = manifold.random_point(rng), manifold.random_point(rng)
        for path in ("geodesic", "chord"):
            arrays = manifold.path_features(p, q, [], path)
            assert sorted(arrays) == sorted(manifold.feature_names)
            assert all(a.shape == (0,) and a.dtype == float for a in arrays.values())
        assert list(manifold.path_points(p, q, [])) == []

    def test_circle_clamps_like_point_and_rejects_like_point(self):
        p, q = S1.point(0.0), S1.point(TWO_PI)
        svals = [-1e-11, 1.0 + 1e-11]  # inside ANGLE_SLACK of the chart ends
        arrays = S1.path_features(p, q, svals)
        assert arrays["theta"].tolist() == [pt.value for pt in S1.path_points(p, q, svals)]
        assert arrays["theta"].tolist() == [0.0, TWO_PI]
        assert S1.path_features(p, q, [0.5, 1.5]) is None
        with pytest.raises(DomainError):
            S1.geodesic_point(p, q, 1.5)

    def test_euclidean_non_finite_grid_point_gives_none(self):
        p, q = E2.point([1e308, 0.0]), E2.point([-1e308, 0.0])
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert E2.path_features(p, q, [0.0, 3.0]) is None
            assert E2.path_features(p, q, [0.0, 3.0], "chord") is None
        assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []
        with pytest.raises(DomainError):
            E2.geodesic_point(p, q, 3.0)

    def test_spd_failing_grid_point_gives_none(self):
        grid = TestSpdGeodesicGrid()
        p, q = SPD.point(grid.P_BIG), SPD.point(grid.Q_BIG)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert SPD.path_features(p, q, grid.SVALS) is None
            assert SPD.path_features(p, q, grid.SVALS[grid.FAIL_AT:]) is None
            arrays = SPD.path_features(p, q, grid.SVALS[: grid.FAIL_AT])
        points = SPD.path_points(p, q, grid.SVALS[: grid.FAIL_AT])
        assert [_hex(SPD.features(pt)) for pt in points] == [
            {name: float(arrays[name][j]).hex() for name in arrays} for j in range(grid.FAIL_AT)]


    def test_spd_geodesic_point_that_underflows_gives_none_and_raises_there(self):
        # the pencil of p = diag(2^40, 1) and q = diag(2^-39, 1) has vals 2^-79
        # and 1: at s = 16, 2^-1264 underflows to 0 while logdet and trace stay
        # finite, so only the positivity of vals^s rules the point out
        p, q = SPD.point(np.diag([2.0**40, 1.0])), SPD.point(np.diag([2.0**-39, 1.0]))
        assert SPD.path_features(p, q, [0.0, 1.0, 8.0]) is not None
        assert SPD.path_features(p, q, [0.0, 1.0, 16.0]) is None
        with pytest.raises(NonPositiveDefiniteError) as got:
            list(SPD.path_points(p, q, [0.0, 1.0, 16.0]))
        assert str(got.value) == (
            "matrix is not positive definite (min eigenvalue 0.000e+00 relative to p)")

class TestChordFeatures:
    """Chord ``path_features`` against its reference, ``chord_point`` + ``features``."""

    @pytest.mark.parametrize("manifold", [S1, E2, Euclidean(3), Spd(1), SPD, Spd(3)], ids=str)
    def test_arrays_match_chord_point_features_bitwise(self, manifold):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p, q = manifold.random_point(rng), manifold.random_point(rng)
            # full grids: 3 points are s = 0, 0.5, 1; 9 and 33 hold them too
            for svals in (_grid(3, False), _grid(9, False), _grid(33, False), _grid(9, True)):
                arrays = manifold.path_features(p, q, svals, "chord")
                assert sorted(arrays) == sorted(manifold.feature_names)
                points = manifold.path_points(p, q, svals, "chord")
                for j, (s, pt) in enumerate(zip(svals, points)):
                    single = manifold.chord_point(p, q, s)
                    assert np.asarray(pt.value).tobytes() == np.asarray(single.value).tobytes()
                    feats = manifold.features(single)
                    assert _hex(manifold.features(pt)) == _hex(feats)
                    for name, value in feats.items():
                        assert float(arrays[name][j]).hex() == float(value).hex(), (name, s)

    def test_flat_chords_are_geodesics(self):
        # the flat geometries' path_features do not read the path
        rng = np.random.default_rng(7)
        svals = _grid(33, False) + [-0.5, 1.5]  # beyond the ends, a circle grid fails
        for manifold in (E2, Euclidean(3), S1):
            for _ in range(10):
                p, q = manifold.random_point(rng), manifold.random_point(rng)
                geodesic, chord = (manifold.path_features(p, q, svals, path)
                                   for path in ("geodesic", "chord"))
                if geodesic is None:
                    assert chord is None
                else:
                    assert {name: a.tobytes() for name, a in chord.items()} == {
                        name: a.tobytes() for name, a in geodesic.items()}

    def test_spd_non_finite_chord_point_gives_none(self):
        p, q = SPD.point(np.diag([8e307, 1.0])), SPD.point(np.diag([8.5e307, 1.0]))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert SPD.path_features(p, q, [0.0, 0.5, 1.0], "chord") is not None
            assert SPD.path_features(p, q, [0.0, 3.0], "chord") is None
        assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []
        with pytest.raises(DomainError, match="finite"):
            SPD.chord_point(p, q, 3.0)

    def test_spd_point_rejects_entries_that_overflow_when_symmetrized(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                SPD.point(np.diag([1e308, 1.0]))
        assert str(info.value) == "matrix entries must be finite"

    def test_spd_chord_through_an_overflowing_point_gives_none_and_raises_there(self):
        from ivopt.functions import IvFn, path_bounds

        # the chord point at s = 1.25 is diag(1e308, 1)
        p, q = SPD.point(I2), SPD.point(np.diag([8e307, 1.0]))
        f = IvFn.from_expressions("logdet", "trace", SPD)
        assert SPD.path_features(p, q, [0.0, 0.5, 1.0], "chord") is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert SPD.path_features(p, q, [0.0, 0.5, 1.25], "chord") is None
        with pytest.raises(DomainError, match="^matrix entries must be finite$"):
            path_bounds(f, p, q, [0.0, 0.5, 1.25], "chord")

    # p = I, q = diag(1/2, 1): the chord point at s is diag(1 - s/2, 1), which
    # stops being positive definite at s = 2, beyond the checks' grids
    SVALS = [j / 4 for j in range(10)]
    FAIL_AT = 8  # s = 2

    def test_spd_chord_point_at_the_eig_floor_gives_none_and_raises_there(self):
        from ivopt.functions import RealFn, path_bounds

        p, q = SPD.point(I2), SPD.point(np.diag([0.5, 1.0]))
        assert SPD.path_features(p, q, self.SVALS, "chord") is None
        assert SPD.path_features(p, q, self.SVALS[self.FAIL_AT:], "chord") is None
        assert SPD.path_features(p, q, self.SVALS[: self.FAIL_AT], "chord") is not None
        with pytest.raises(NonPositiveDefiniteError) as expected:
            SPD.chord_point(p, q, self.SVALS[self.FAIL_AT])
        assert str(expected.value) == (
            "matrix is not positive definite (min eigenvalue 0.000e+00 relative to p)")
        # a check's segment evaluation falls back to the point loop and raises
        # at the same point, compiled or not
        for f in (RealFn.from_expression("-logdet", SPD),
                  RealFn(SPD, lambda pt: -SPD.features(pt)["logdet"])):
            with pytest.raises(NonPositiveDefiniteError) as got:
                path_bounds(f, p, q, self.SVALS, "chord")
            assert str(got.value) == str(expected.value)


def _random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


class TestSpdClosedForm:
    """The closed-form grid features against a 50-digit oracle and a symmetry."""

    SVALS = _grid(33, False)

    def test_features_match_a_50_digit_oracle(self):
        # p^1/2 M^s p^1/2 (M = p^-1/2 q p^-1/2) and (1 - s) p + s q at 50 digits,
        # with mpmath's powm for the roots of p and its eigsy for the powers of M
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            worst = self._oracle_errors(mp)
        # seen: 1.1e-14 and 1.2e-15 (about 50 and 5 units of roundoff)
        assert worst["logdet"] <= 5e-14 and worst["trace"] <= 5e-14, worst

    def _oracle_errors(self, mp) -> dict:
        rng = np.random.default_rng(23)
        worst = {"logdet": 0.0, "trace": 0.0}
        for dim in (1, 2, 3):
            manifold = Spd(dim)
            for _ in range(4):
                p, q = manifold.random_point(rng), manifold.random_point(rng)
                big_p, big_q = mp.matrix(p.value.tolist()), mp.matrix(q.value.tolist())
                half, inv_half = mp.powm(big_p, mp.mpf(1) / 2), mp.powm(big_p, -mp.mpf(1) / 2)
                lam, vec = mp.eigsy(inv_half * big_q * inv_half)
                for path in ("geodesic", "chord"):
                    arrays = manifold.path_features(p, q, self.SVALS, path)
                    for j, s in enumerate(self.SVALS):
                        if path == "geodesic":
                            power = mp.diag([lam[i] ** mp.mpf(s) for i in range(dim)])
                            exact = half * vec * power * vec.T * half
                        else:
                            exact = (1 - mp.mpf(s)) * big_p + mp.mpf(s) * big_q
                        logdet = mp.log(mp.det(exact))
                        trace = sum(exact[i, i] for i in range(dim))
                        worst["logdet"] = max(worst["logdet"], float(
                            abs(arrays["logdet"][j] - logdet) / max(1, abs(logdet))))
                        worst["trace"] = max(worst["trace"], float(
                            abs(arrays["trace"][j] - trace) / trace))
        return worst

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_geodesic_logdet_is_logdet_p_plus_s_sum_of_logs_to_one_rounding(self, dim):
        mp = pytest.importorskip("mpmath")
        manifold = Spd(dim)
        rng = np.random.default_rng(dim)
        for _ in range(20):
            p, q = manifold.random_point(rng), manifold.random_point(rng)
            _, vals = manifold._pencil(p, q)
            total = sum(np.log(vals).tolist())
            start = manifold.features(p)["logdet"]
            arrays = manifold.path_features(p, q, self.SVALS)
            for s, got in zip(self.SVALS, arrays["logdet"].tolist()):
                exact = float(mp.mpf(start) + mp.mpf(s) * mp.mpf(total))
                assert abs(got - exact) <= math.ulp(exact) + math.ulp(s * total)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_features_are_congruence_invariant(self, dim):
        # logdet and trace of Q x Q^T are those of x, and Q (p #_s q) Q^T is
        # the geodesic point of the rotated pair
        manifold = Spd(dim)
        rng = np.random.default_rng(40 + dim)
        for _ in range(20):
            rot = _random_orthogonal(rng, dim)
            p, q = manifold.random_point(rng), manifold.random_point(rng)
            p2, q2 = (manifold.point(rot @ x.value @ rot.T) for x in (p, q))
            for path in ("geodesic", "chord"):
                arrays = manifold.path_features(p, q, self.SVALS, path)
                turned = manifold.path_features(p2, q2, self.SVALS, path)
                for name in manifold.feature_names:
                    assert np.allclose(turned[name], arrays[name], rtol=1e-13, atol=1e-13)
            for s in (0.25, 0.5, 1.5):
                assert np.allclose(manifold.geodesic_point(p2, q2, s).value,
                                   rot @ manifold.geodesic_point(p, q, s).value @ rot.T,
                                   rtol=1e-12, atol=1e-12)


class TestFeatureMemo:
    @pytest.mark.parametrize(
        "manifold, raw",
        [(E2, [0.5, -2.0]), (S1, 1.25), (SPD, 2.0 * I2)],
        ids=lambda v: getattr(v, "name", ""),
    )
    def test_each_call_gets_a_fresh_dict(self, manifold, raw):
        p = manifold.point(raw)
        first = manifold.features(p)
        first[manifold.feature_names[0]] = 123.0
        second = manifold.features(p)
        assert second is not first
        assert second == manifold.features(manifold.point(raw))

    def test_mismatched_point_still_rejected(self):
        with pytest.raises(ManifoldMismatchError):
            SPD.features(S1.point(1.0))


class TestRandomizedGeometry:
    """Sweeps over random pairs; tolerances follow the module contract."""

    def _pairs(self, manifold, n, seed=0):
        rng = np.random.default_rng(seed)
        return [
            (manifold.random_point(rng), manifold.random_point(rng))
            for _ in range(n)
        ]

    @pytest.mark.parametrize("manifold", [E2, S1, SPD], ids=lambda m: m.name)
    def test_geodesic_endpoint_consistency(self, manifold):
        for p, q in self._pairs(manifold, 1000):
            assert distance(manifold.geodesic_point(p, q, 0.0), p) <= 1e-10
            assert distance(manifold.geodesic_point(p, q, 1.0), q) <= 1e-10

    @pytest.mark.parametrize("manifold", [E2, S1, SPD], ids=lambda m: m.name)
    def test_exp_log_inversion(self, manifold):
        for p, q in self._pairs(manifold, 300, seed=1):
            assert distance(exp_map(p, log_map(p, q), 1.0), q) <= 1e-8

    def test_spd_geodesic_stays_positive_definite(self):
        for p, q in self._pairs(SPD, 200, seed=2):
            for s in np.linspace(0.0, 1.0, 11):
                vals = np.linalg.eigvalsh(SPD.geodesic_point(p, q, s).value)
                assert vals.min() > 0.0

    def test_spd_logdet_affine_along_geodesics(self):
        for p, q in self._pairs(SPD, 200, seed=3):
            ldp = SPD.features(p)["logdet"]
            ldq = SPD.features(q)["logdet"]
            for s in (0.25, 0.5, 0.75):
                ld = SPD.features(SPD.geodesic_point(p, q, s))["logdet"]
                assert ld == pytest.approx((1 - s) * ldp + s * ldq, abs=1e-9)


class TestCrossManifoldSafety:
    def test_point_mismatch_rejected(self):
        with pytest.raises(ManifoldMismatchError):
            distance(S1.point(1.0), E1.point([1.0]))

    def test_tangent_base_checked(self):
        p, q = S1.point(1.0), S1.point(2.0)
        x = S1.tangent(q, 0.5)
        with pytest.raises(ManifoldMismatchError):
            exp_map(p, x, 1.0)
        # Spd(2): the same base object, an equal but distinct base, a distant base
        p = SPD.point(np.array([[2.0, 0.3], [0.3, 1.0]]))
        raw = np.array([[0.1, 0.2], [0.2, -0.1]])
        same = SPD.tangent(p, raw)
        equal = SPD.tangent(SPD.point(np.array(p.value)), raw)
        distant = SPD.tangent(SPD.point(3.0 * I2), raw)
        assert np.array_equal(exp_map(p, same, 0.5).value, exp_map(p, equal, 0.5).value)
        assert inner(p, same, same) == inner(p, equal, equal)
        with pytest.raises(ManifoldMismatchError):
            exp_map(p, distant, 0.5)
        with pytest.raises(ManifoldMismatchError):
            inner(p, same, distant)

    def test_geodesic_mixed_endpoints_rejected(self):
        f = IvFn.from_expressions("theta", "1", S1)
        for p, q in ((S1.point(1.0), E1.point([1.0])), (E1.point([1.0]), S1.point(1.0))):
            with pytest.raises(ManifoldMismatchError):
                width_monotone_along(f, p, q)

    def test_value_equal_manifolds_interoperate(self):
        # structurally identical manifold objects compare equal, so points
        # built from separately constructed instances mix freely
        other = Spd(2)
        assert other == SPD
        assert distance(other.point(I2), SPD.point(2.0 * I2)) > 0.0

    def test_tangent_scaling(self):
        p = S1.point(1.0)
        x = S1.tangent(p, 0.5).scaled(-2.0)
        assert x.value == pytest.approx(-1.0)

    def test_point_json_forms(self):
        assert S1.point(1.5).to_json() == {"theta": 1.5}
        assert E2.point([1.0, 2.0]).to_json() == [1.0, 2.0]
        assert SPD.point(2.0 * I2).to_json() == [[2.0, 0.0], [0.0, 2.0]]


class TestPathKind:
    """Every walk of a path grid refuses a path kind other than the two."""

    ENDS = {"euclidean": (E2, [0.0, 1.0], [1.0, 2.0]), "circle": (S1, 1.0, 2.0),
            "spd": (SPD, I2, np.diag([2.0, 3.0]))}

    @pytest.mark.parametrize("name", sorted(ENDS))
    def test_unknown_path_is_refused(self, name):
        manifold, a, b = self.ENDS[name]
        p, q = manifold.point(a), manifold.point(b)
        for path in ("geodesc", "nonsense", "Chord", ""):
            message = f"^unknown path kind {path!r}$"
            with pytest.raises(ValueError, match=message):
                manifold.path_features(p, q, [0.5], path)
            with pytest.raises(ValueError, match=message):
                list(manifold.path_points(p, q, [0.5], path))
            with pytest.raises(ValueError, match=message):
                list(manifold.path_points(p, q, [], path))
        for path in ("geodesic", "chord"):
            assert len(list(manifold.path_points(p, q, [0.0, 0.5], path))) == 2
            assert manifold.path_features(p, q, [0.0, 0.5], path) is not None

    @pytest.mark.parametrize("name", sorted(ENDS))
    def test_check_convex_refuses_before_any_draw(self, name):
        manifold = self.ENDS[name][0]

        def sample(rng):
            raise AssertionError("a point was drawn")

        dom = DomainSampler(membership=lambda p: True, sample=sample)
        f = RealFn.from_expression(manifold.feature_names[0], manifold)
        with pytest.raises(ValueError, match="^unknown path kind 'geodesc'$"):
            check_convex(f, dom, pairs=2, grid=3, path="geodesc")
