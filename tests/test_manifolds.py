"""Geometry of the three concrete manifolds and their shared interface."""

import math
import warnings

import numpy as np
import pytest

from ivopt import manifolds
from ivopt.convexity import DomainSampler, Verdict, check_star_shaped
from ivopt.errors import (
    DomainError,
    ManifoldMismatchError,
    NonPositiveDefiniteError,
)
from ivopt.manifolds import (
    ANGLE_SLACK,
    TWO_PI,
    Circle,
    Euclidean,
    Geodesic,
    Point,
    Spd,
    distance,
    exp_map,
    geodesic_at,
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
        assert geodesic_at(Geodesic(p, q), 0.0).close_to(p)
        assert geodesic_at(Geodesic(p, q), 1.0).close_to(q)

    def test_distance_pythagoras(self):
        assert distance(E2.point([0, 0]), E2.point([3, 4])) == pytest.approx(5.0)

    def test_log_exp(self):
        p, q = E2.point([1.0, -1.0]), E2.point([2.0, 3.0])
        x = log_map(p, q)
        assert np.allclose(x.value, [1.0, 4.0])
        assert exp_map(p, x, 1.0).close_to(q)
        zero = E2.tangent(p, [0.0, 0.0])
        assert exp_map(p, zero, 0.7).close_to(p)
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

    @pytest.mark.parametrize("manifold", [Spd(1), SPD, Spd(3)], ids=str)
    def test_log_and_distance_match_their_formulas_bitwise(self, manifold):
        rng = np.random.default_rng(17)
        for _ in range(50):
            p, q = manifold.random_point(rng), manifold.random_point(rng)
            half, inv_half = manifold._roots(p)
            m = inv_half @ q.value @ inv_half
            vals = np.linalg.eigh(symmetrize(m))[0]
            assert log_map(p, q).value.tobytes() == (half @ sym_log(m) @ half).tobytes()
            assert distance(p, q).hex() == float(np.sqrt(np.sum(np.log(vals) ** 2))).hex()


def _grid(n, interior):
    first, last = (1, n - 1) if interior else (0, n)
    return [j / (n - 1) for j in range(first, last)]


def _hex(feats):
    return {name: float(value).hex() for name, value in feats.items()}


def _per_point_geodesic(manifold, p, q, s):
    """The per-point geodesic formula, validated by Spd.point."""
    half, inv_half = manifold._roots(p)
    return manifold.point(half @ sym_power(inv_half @ q.value @ inv_half, s) @ half)


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
                points = list(manifold.geodesic_points(p, q, svals))
                assert len(points) == len(svals)
                for s, pt in zip(svals, points):
                    ref = _per_point_geodesic(manifold, p, q, s)
                    assert np.array_equal(pt.value, ref.value)
                    assert manifold.features(pt) == manifold.features(Point(manifold, ref.value))
                    single = manifold.geodesic_point(p, q, s)
                    assert single.value.tobytes() == pt.value.tobytes()
                    assert _hex(manifold.features(single)) == _hex(manifold.features(pt))

    def test_grid_points_are_read_only(self):
        p, q = SPD.point(I2), SPD.point(np.diag([2.0, 3.0]))
        pt = next(SPD.geodesic_points(p, q, [0.5]))
        with pytest.raises(ValueError):
            pt.value[0, 0] = 1.0

    def test_empty_grid_builds_nothing(self):
        assert list(SPD.geodesic_points(SPD.point(I2), SPD.point(2.0 * I2), [])) == []

    # p = I/2, q = diag(1/4, 1): the grid point at s has smallest eigenvalue
    # 2^-(1+s), while p and p^-1/2 q p^-1/2 keep every eigenvalue >= 1/2.
    P_HALF = np.eye(2) / 2.0
    Q_SKEW = np.diag([0.25, 1.0])
    SVALS = [j / 8 for j in range(9)]
    FAIL_AT = 3  # s = 0.375

    def _floor_between_points(self, monkeypatch):
        lows = [2.0 ** -(1.0 + s) for s in self.SVALS]
        monkeypatch.setattr(
            manifolds, "EIG_FLOOR", 0.5 * (lows[self.FAIL_AT - 1] + lows[self.FAIL_AT])
        )

    def test_failing_grid_point_raises_like_point(self, monkeypatch):
        p, q = SPD.point(self.P_HALF), SPD.point(self.Q_SKEW)
        self._floor_between_points(monkeypatch)
        with pytest.raises(NonPositiveDefiniteError) as expected:
            _per_point_geodesic(SPD, p, q, self.SVALS[self.FAIL_AT])
        built = []
        with pytest.raises(NonPositiveDefiniteError) as got:
            for pt in SPD.geodesic_points(p, q, self.SVALS):
                built.append(pt)
        assert len(built) == self.FAIL_AT
        assert str(got.value) == str(expected.value)
        with pytest.raises(NonPositiveDefiniteError) as single:
            SPD.geodesic_point(p, q, self.SVALS[self.FAIL_AT])
        assert str(single.value) == str(expected.value)

    def test_caller_stopping_before_failing_point_does_not_raise(self, monkeypatch):
        p, q = SPD.point(self.P_HALF), SPD.point(self.Q_SKEW)
        self._floor_between_points(monkeypatch)
        # grid 9, interior: s = 0.125 is a member, s = 0.25 is not, and the
        # point that fails validation (s = 0.375) is never reached
        dom = DomainSampler(
            membership=lambda pt: pt is q or np.linalg.eigvalsh(pt.value).min() > 0.43,
            sample=lambda rng: q,
        )
        report = check_star_shaped(dom, p, targets=1, grid=9)
        assert report.verdict is Verdict.COUNTEREXAMPLE
        assert report.counterexample.s == 0.25
        everything = DomainSampler(membership=lambda pt: True, sample=lambda rng: q)
        with pytest.raises(NonPositiveDefiniteError):
            check_star_shaped(everything, p, targets=1, grid=9)


class TestGeodesicFeatures:
    @pytest.mark.parametrize("manifold", [S1, E2, Euclidean(3), SPD, Spd(3)], ids=str)
    def test_arrays_match_grid_point_features_bitwise(self, manifold):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p, q = manifold.random_point(rng), manifold.random_point(rng)
            for svals in (_grid(2, False), _grid(9, True), _grid(33, False)):
                arrays = manifold.geodesic_features(p, q, svals)
                assert sorted(arrays) == sorted(manifold.feature_names)
                for j, pt in enumerate(manifold.geodesic_points(p, q, svals)):
                    for name, value in manifold.features(pt).items():
                        assert float(arrays[name][j]).hex() == float(value).hex(), (name, j)

    @pytest.mark.parametrize("manifold", [S1, E2, Euclidean(3), Spd(1), SPD, Spd(3)], ids=str)
    def test_empty_grid_gives_empty_arrays(self, manifold):
        rng = np.random.default_rng(3)
        p, q = manifold.random_point(rng), manifold.random_point(rng)
        for along in (manifold.geodesic_features, manifold.chord_features):
            arrays = along(p, q, [])
            assert sorted(arrays) == sorted(manifold.feature_names)
            assert all(a.shape == (0,) and a.dtype == float for a in arrays.values())
        assert list(manifold.geodesic_points(p, q, [])) == []

    def test_circle_clamps_like_point_and_rejects_like_point(self):
        p, q = S1.point(0.0), S1.point(TWO_PI)
        svals = [-1e-11, 1.0 + 1e-11]  # inside ANGLE_SLACK of the chart ends
        arrays = S1.geodesic_features(p, q, svals)
        assert arrays["theta"].tolist() == [pt.value for pt in S1.geodesic_points(p, q, svals)]
        assert arrays["theta"].tolist() == [0.0, TWO_PI]
        assert S1.geodesic_features(p, q, [0.5, 1.5]) is None
        with pytest.raises(DomainError):
            S1.geodesic_point(p, q, 1.5)

    def test_euclidean_non_finite_grid_point_gives_none(self):
        p, q = E2.point([1e308, 0.0]), E2.point([-1e308, 0.0])
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert E2.geodesic_features(p, q, [0.0, 3.0]) is None
            assert E2.chord_features(p, q, [0.0, 3.0]) is None
        assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []
        with pytest.raises(DomainError):
            E2.geodesic_point(p, q, 3.0)

    def test_spd_failing_grid_point_gives_none(self, monkeypatch):
        grid = TestSpdGeodesicGrid()
        p, q = SPD.point(grid.P_HALF), SPD.point(grid.Q_SKEW)
        assert SPD.geodesic_features(p, q, grid.SVALS) is not None
        grid._floor_between_points(monkeypatch)
        assert SPD.geodesic_features(p, q, grid.SVALS) is None
        assert SPD.geodesic_features(p, q, grid.SVALS[: grid.FAIL_AT]) is not None


class TestChordFeatures:
    """``chord_features`` against its reference, ``chord_point`` + ``features``."""

    @pytest.mark.parametrize("manifold", [S1, E2, Euclidean(3), Spd(1), SPD, Spd(3)], ids=str)
    def test_arrays_match_chord_point_features_bitwise(self, manifold):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p, q = manifold.random_point(rng), manifold.random_point(rng)
            # full grids: 3 points are s = 0, 0.5, 1; 9 and 33 hold them too
            for svals in (_grid(3, False), _grid(9, False), _grid(33, False), _grid(9, True)):
                arrays = manifold.chord_features(p, q, svals)
                assert sorted(arrays) == sorted(manifold.feature_names)
                for j, s in enumerate(svals):
                    feats = manifold.features(manifold.chord_point(p, q, s))
                    for name, value in feats.items():
                        assert float(arrays[name][j]).hex() == float(value).hex(), (name, s)

    def test_flat_chords_are_geodesics(self):
        assert Circle.chord_features is Circle.geodesic_features
        assert Euclidean.chord_features is Euclidean.geodesic_features

    def test_spd_non_finite_chord_point_gives_none(self):
        p, q = SPD.point(np.diag([8e307, 1.0])), SPD.point(np.diag([8.5e307, 1.0]))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert SPD.chord_features(p, q, [0.0, 0.5, 1.0]) is not None
            assert SPD.chord_features(p, q, [0.0, 3.0]) is None
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
        from ivopt.convexity import _path_bounds
        from ivopt.functions import IvFn

        # the chord point at s = 1.25 is diag(1e308, 1)
        p, q = SPD.point(I2), SPD.point(np.diag([8e307, 1.0]))
        f = IvFn.from_expressions("logdet", "trace", SPD)
        assert SPD.chord_features(p, q, [0.0, 0.5, 1.0]) is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert SPD.chord_features(p, q, [0.0, 0.5, 1.25]) is None
        with pytest.raises(DomainError, match="^matrix entries must be finite$"):
            _path_bounds(f, p, q, [0.0, 0.5, 1.25], "chord")

    # p = I, q = diag(1/4, 1): the chord point at s has smallest eigenvalue
    # 1 - 3s/4, and EIG_FLOOR is set to exactly that at s = 3/8
    SVALS = [j / 8 for j in range(9)]
    FAIL_AT = 3

    def test_spd_chord_point_at_the_eig_floor_gives_none_and_raises_there(self, monkeypatch):
        from ivopt.convexity import check_convex
        from ivopt.functions import RealFn

        p, q = SPD.point(I2), SPD.point(np.diag([0.25, 1.0]))
        assert SPD.chord_features(p, q, self.SVALS) is not None
        floor = np.linalg.eigvalsh(SPD.chord_point(p, q, self.SVALS[self.FAIL_AT]).value).min()
        monkeypatch.setattr(manifolds, "EIG_FLOOR", floor)
        assert SPD.chord_features(p, q, self.SVALS) is None
        assert SPD.chord_features(p, q, self.SVALS[: self.FAIL_AT]) is not None
        with pytest.raises(NonPositiveDefiniteError) as expected:
            SPD.chord_point(p, q, self.SVALS[self.FAIL_AT])
        # the check falls back to the point loop and raises at the same point
        pair = iter([p, q])
        dom = DomainSampler(membership=lambda pt: True, sample=lambda rng: next(pair))
        for f in (RealFn.from_expression("-logdet", SPD),
                  RealFn(SPD, lambda pt: -SPD.features(pt)["logdet"])):
            pair = iter([p, q])
            with pytest.raises(NonPositiveDefiniteError) as got:
                check_convex(f, dom, pairs=1, grid=9, path="chord")
            assert str(got.value) == str(expected.value)


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
            geod = manifold.geodesic(p, q)
            assert distance(geod.at(0.0), p) <= 1e-10
            assert distance(geod.at(1.0), q) <= 1e-10

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
        with pytest.raises(ManifoldMismatchError):
            Geodesic(S1.point(1.0), E1.point([1.0]))

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
