import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksenergy import make_space, verify_metric_axioms
from ksenergy.errors import ConfigError, InvalidPointError
from ksenergy.spaces import _outer_sum, _power

TAU = 2 * math.pi

finite2 = st.tuples(st.floats(-3, 3), st.floats(-3, 3))


class TestDistances:
    def test_max_norm_example(self):
        mn = make_space("max_norm_plane")
        assert mn.distance([0.0, 0.0], [1.0, 2.0]) == 2.0

    def test_euclidean_pythagorean(self):
        assert make_space("euclidean:2").distance([0, 0], [3, 4]) == 5.0

    def test_circle_wraparound(self):
        c = make_space("circle")
        assert c.distance([0.0], [3 * math.pi / 2]) == pytest.approx(math.pi / 2, abs=1e-15)
        assert c.distance([0.1], [TAU - 0.1]) == pytest.approx(0.2, abs=1e-12)

    def test_q_points_matching(self):
        q = make_space("q:2:1")
        # pairing {0, 1} vs {1.2, 0.1}: best matching is (0->0.1, 1->1.2)
        d = q.distance([0.0, 1.0], [1.2, 0.1])
        assert d == pytest.approx(math.hypot(0.1, 0.2), abs=1e-14)

    def test_q_points_permutation_invariance_exact(self):
        q = make_space("q:2:2")
        a = np.array([0.3, -0.7, 1.5, 0.2])
        a_swapped = np.array([1.5, 0.2, 0.3, -0.7])
        b = np.array([-0.5, 0.1, 0.9, 0.9])
        assert q.distance(a, b) == q.distance(a_swapped, b)
        assert q.distance(b, a) == q.distance(b, a_swapped)

    @settings(max_examples=50, deadline=None)
    @given(a1=finite2, a2=finite2, b1=finite2, b2=finite2)
    def test_q_points_brute_force_oracle(self, a1, a2, b1, b2):
        """Matching distance equals the explicit min over both pairings."""
        q = make_space("q:2:2")
        a = np.array(a1 + a2)
        b = np.array(b1 + b2)
        d_id = math.sqrt(
            sum((x - y) ** 2 for x, y in zip(a1, b1)) + sum((x - y) ** 2 for x, y in zip(a2, b2))
        )
        d_sw = math.sqrt(
            sum((x - y) ** 2 for x, y in zip(a1, b2)) + sum((x - y) ** 2 for x, y in zip(a2, b1))
        )
        assert q.distance(a, b) == pytest.approx(min(d_id, d_sw), abs=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(InvalidPointError):
            make_space("euclidean:2").validate_point([1.0, 2.0, 3.0])
        with pytest.raises(InvalidPointError):
            make_space("euclidean:2").validate_point([np.nan, 0.0])


def _matching_reference(Q, m, a, b):
    """The Q!-permutation loop that the Q-points kernel replaced."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    a = np.broadcast_to(a, shape).reshape(shape[:-1] + (Q, m))
    b = np.broadcast_to(b, shape).reshape(shape[:-1] + (Q, m))
    best = None
    for perm in itertools.permutations(range(Q)):
        diff = a - b[..., perm, :]
        cost = np.sum(diff * diff, axis=(-2, -1))
        best = cost if best is None else np.minimum(best, cost)
    return np.sqrt(best)


def _reference_distance(spec, a, b):
    """The trailing-axis reductions that the distance kernels must reproduce."""
    if spec == "circle":
        r = np.abs(a - b)[..., 0] % TAU
        return np.minimum(r, TAU - r)
    if spec.startswith("euclidean"):
        return np.linalg.norm(a - b, axis=-1)
    if spec == "max_norm_plane":
        return np.max(np.abs(a - b), axis=-1)
    _, Q, m = spec.split(":")
    return _matching_reference(int(Q), int(m), a, b)


# signed zeros, non-finite values and both ends of the exponent range
KERNEL_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300, -1e-300]


def _call_operands(shape_kind, rep_dim, seed):
    """Operands in the two layouts the package uses, over many magnitudes.

    The broadcast layout, where the kernels take the outer difference as a
    BLAS product (`spaces._outer_sum`), also pairs every KERNEL_SPECIALS
    entry of a with every one of b, in each coordinate (rotated per
    coordinate, so that a row mixes them).
    """
    rng = np.random.default_rng(seed)
    if shape_kind == "broadcast":  # prefix scan: (N, 1, m) x (1, B, m)
        a = rng.normal(size=(96, 1, rep_dim)) * 10.0 ** rng.uniform(-6, 6, size=(96, 1, 1))
        b = rng.normal(size=(1, 40, rep_dim))
        k = len(KERNEL_SPECIALS)
        for c in range(rep_dim):
            a[:k, 0, c] = np.roll(KERNEL_SPECIALS, c)
            b[0, :k, c] = np.roll(KERNEL_SPECIALS, -c)
    else:  # refinement rows: (R, m) x (R, m)
        a = rng.normal(size=(4000, rep_dim)) * 10.0 ** rng.uniform(-6, 6, size=(4000, 1))
        b = rng.normal(size=(4000, rep_dim))
    return a, b


# |a - b| below, at, and above 2pi, signed zeros and non-finite values
CIRCLE_SPECIALS = [0.0, -0.0, 1e-300, 1.0, np.nextafter(TAU, 0.0), TAU, np.nextafter(TAU, 7.0), -TAU,
                   2.0 * TAU, 3.0 * TAU, 1e6, -1e6, math.inf, -math.inf, math.nan]


def _circle_operands(shape_kind, seed):
    """`_call_operands` with every pair of CIRCLE_SPECIALS in the leading entries."""
    a, b = _call_operands(shape_kind, 1, seed)
    s = np.array(CIRCLE_SPECIALS)
    if shape_kind == "broadcast":
        a[: s.size, 0, 0] = s
        b[0, : s.size, 0] = s
    else:
        pairs = np.array(list(itertools.product(s, s)))
        a[: len(pairs), 0] = pairs[:, 0]
        b[: len(pairs), 0] = pairs[:, 1]
    return a, b


# every class of float64 value: signed zeros, subnormals, both ends of the range, non-finite values
SUM_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 2.2250738585072014e-308, 1e-300, -1e-300,
                1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan]


def _summands(size, rng):
    """`size` values over 1e-300..1e300 and the subnormals, led by as many SUM_SPECIALS as fit."""
    x = rng.normal(size=size) * 10.0 ** rng.uniform(-300, 300, size=size)
    x[size // 2 :] *= rng.choice([1.0, 1e-20], size=size - size // 2)  # some are subnormal
    k = min(size, len(SUM_SPECIALS))
    x[:k] = rng.permutation(SUM_SPECIALS)[:k]
    return x


@pytest.mark.parametrize("shape", [(128, 128), (512, 128), (37, 5), (1, 128), (128, 1)])
def test_outer_sum_is_add_outer_bit_for_bit(shape):
    """`_outer_sum` against np.add.outer: the same bits, NaN for NaN, except (-0) + (-0), which is +0.

    Also into a non-contiguous `out`: a partial tile of a larger buffer
    (BLAS writes it with a leading dimension) and a strided view (numpy
    goes without BLAS or through a copy).
    """
    rng = np.random.default_rng(sum(shape))
    a, b = _summands(shape[0], rng), _summands(shape[1], rng)
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.add.outer(a, b)
        tile = np.empty((shape[0] + 3, shape[1] + 5))[: shape[0], : shape[1]]
        strided = np.empty((shape[0], 2 * shape[1]))[:, ::2]
        results = [_outer_sum(a, b), _outer_sum(a, b, out=tile), _outer_sum(a, b, out=strided)]
    negative_zeros = np.signbit(a)[:, None] & np.signbit(b)[None, :] & (want == 0.0)
    nan = np.isnan(want)
    for got in results:
        assert got.shape == shape
        assert np.array_equal(np.isnan(got), nan)
        same = ~nan & ~negative_zeros
        assert np.array_equal(got.view(np.uint64)[same], want.view(np.uint64)[same])
        assert np.all(got[negative_zeros] == 0.0) and not np.any(np.signbit(got[negative_zeros]))
    assert results[1] is tile and results[2] is strided
    if min(shape) >= len(SUM_SPECIALS):
        assert np.any(negative_zeros) and np.any(nan)


class TestKernelExactness:
    """The coordinate-slice kernels against the plain reductions they replaced."""

    @pytest.mark.parametrize("shape_kind", ["broadcast", "rows"])
    def test_circle(self, shape_kind):
        """The circle kernel reduces mod 2pi only where |a - b| >= 2pi: same values, NaN where the plain one has NaN."""
        space = make_space("circle")
        for seed in range(3):
            a, b = _circle_operands(shape_kind, seed)
            with np.errstate(invalid="ignore"):
                got = space.distance(a, b)
                want = _reference_distance("circle", a, b)
                d = np.abs(a - b)[..., 0]
            assert np.array_equal(got, want, equal_nan=True)
            assert all(np.any(c) for c in (d == 0.0, d == TAU, (d > TAU) & (d < np.inf), d == np.inf, np.isnan(d)))

    @pytest.mark.parametrize("shape_kind", ["broadcast", "rows"])
    @pytest.mark.parametrize("spec", ["euclidean:1", "euclidean:2", "euclidean:3", "max_norm_plane", "q:2:1"])
    def test_bit_identical(self, spec, shape_kind):
        space = make_space(spec)
        for seed in range(3):
            a, b = _call_operands(shape_kind, space.rep_dim, seed)
            with np.errstate(invalid="ignore", over="ignore"):
                got, want = space.distance(a, b), _reference_distance(spec, a, b)
            assert np.array_equal(got, want, equal_nan=True)

    def test_q_points_2_2(self):
        """Bit-identical on rows; within rounding on the broadcast layout.

        The kernel sums each pairing's Q*m squared gaps in representation
        order. The reference's np.sum follows the memory layout numpy picks
        for the permuted operand: on rows that is the same sequential order,
        on the broadcast layout it sums block by block, which may differ in
        the last bit.
        """
        space = make_space("q:2:2")
        for seed in range(3):
            a, b = _call_operands("rows", 4, seed)
            assert np.array_equal(space.distance(a, b), _reference_distance("q:2:2", a, b))
            a, b = _call_operands("broadcast", 4, seed)
            with np.errstate(invalid="ignore", over="ignore"):
                got, want = space.distance(a, b), _reference_distance("q:2:2", a, b)
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("shape_kind", ["broadcast", "rows"])
    @pytest.mark.parametrize("spec", ["euclidean:8", "q:3:1"])
    def test_within_rounding(self, spec, shape_kind):
        """At 8+ terms numpy sums pairwise, so euclidean:8 may differ in rounding."""
        space = make_space(spec)
        a, b = _call_operands(shape_kind, space.rep_dim, 0)
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = space.distance(a, b), _reference_distance(spec, a, b)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _sequential_kernel(spec, a, b):
    """The p = 1 kernels written out: (squared distance, None) or (None, distance).

    Euclidean and Q-point squares are summed in representation order, as
    the kernels do at every size (the plain reductions above sum pairwise
    from 8 terms and follow the permuted layout).
    """
    if spec == "circle" or spec == "max_norm_plane":
        return None, _reference_distance(spec, a, b)
    if spec.startswith("euclidean"):
        Q, m = 1, int(spec.split(":")[1])
    else:
        Q, m = (int(v) for v in spec.split(":")[1:])
    best = None
    for perm in itertools.permutations(range(Q)):
        cost = None
        for i, j in enumerate(perm):
            for c in range(m):
                d = a[..., i * m + c] - b[..., j * m + c]
                cost = d * d if cost is None else cost + d * d
        best = cost if best is None else np.minimum(best, cost)
    return best, None


def _ks_operands(rep_dim, seed):
    """The KS tile layout: coordinate-major (R, B, m) ball-point values against (R, 1, m) centres."""
    rng = np.random.default_rng(seed)
    planes = rng.normal(size=(rep_dim, 37, 128)) * 10.0 ** rng.uniform(-6, 6, size=(1, 37, 1))
    return np.moveaxis(planes, 0, -1), rng.normal(size=(37, 1, rep_dim))


ALL_SPECS = ["euclidean:1", "euclidean:2", "euclidean:3", "euclidean:8", "max_norm_plane", "circle",
             "q:1:1", "q:2:1", "q:2:2", "q:3:1"]
# every branch of the power helpers: the product forms and np.power
POWERS = [1.0, 1.5, 2.0, 2.5, 3.0, 1.7]


@pytest.mark.parametrize("shape_kind", ["broadcast", "rows", "ks"])
@pytest.mark.parametrize("spec", ALL_SPECS)
def test_distance_power_is_the_kernels_power(spec, shape_kind):
    """distance(a, b) is the sequential kernel bit for bit; distance(a, b, p) is `_power` of it.

    Euclidean and Q-point targets return their squares as they are at p = 2.
    """
    space = make_space(spec)
    for seed in range(2):
        if shape_kind == "ks":
            a, b = _ks_operands(space.rep_dim, seed)
        else:
            a, b = _call_operands(shape_kind, space.rep_dim, seed)
        with np.errstate(invalid="ignore", over="ignore"):
            sq, d = _sequential_kernel(spec, a, b)
            if d is None:
                d = np.sqrt(sq)
            assert np.array_equal(space.distance(a, b), d, equal_nan=True)
            for p in POWERS:
                want = sq if p == 2 and sq is not None else _power(d.copy(), p)
                assert np.array_equal(space.distance(a, b, p), want, equal_nan=True), p


LONG_DOUBLE = np.finfo(np.longdouble).nmant >= 63


def _max_ulp(got, want):
    """Largest |got - want| in ulps of want, for an np.longdouble reference."""
    ulp = np.spacing(want.astype(np.float64)).astype(np.longdouble)
    return np.max(np.abs(got.astype(np.longdouble) - want) / ulp)


@pytest.mark.skipif(not LONG_DOUBLE, reason="needs an extended-precision np.longdouble")
@pytest.mark.parametrize("p", POWERS)
def test_power_within_1_5_ulp(p):
    """`_power`, on every branch, against an extended-precision power over 1e-30..1e30."""
    x = 10.0 ** np.random.default_rng(7).uniform(-30.0, 30.0, size=200_000)
    assert _max_ulp(_power(x.copy(), p), x.astype(np.longdouble) ** np.longdouble(p)) <= 1.5


@pytest.mark.skipif(not LONG_DOUBLE, reason="needs an extended-precision np.longdouble")
@pytest.mark.parametrize("p", POWERS)
def test_squared_kernels_within_3_ulp(p):
    """Euclidean and Q-point powers against the exact power of the kernel's own squared distance.

    sqrt(sq) adds half an ulp before `_power`, so the bound is 3 ulp
    (sqrt(sq)**p reaches 2.9 at p = 3).
    """
    rng = np.random.default_rng(7)
    a = 10.0 ** rng.uniform(-30.0, 30.0, size=(200_000, 2)) * rng.uniform(0.0, 1.0, size=(200_000, 2))
    sq = (a[:, 0] * a[:, 0] + a[:, 1] * a[:, 1]).astype(np.longdouble)
    want = sq ** (np.longdouble(p) / 2)
    for spec, b in (("euclidean:2", np.zeros(2)), ("q:2:1", np.array([0.0, 0.0]))):
        assert _max_ulp(make_space(spec).distance(a, b, p), want) <= 3.0, spec


@pytest.mark.parametrize("spec", ["euclidean:2", "q:2:1"])
@pytest.mark.parametrize("p", [1.5, 1.7, 2.5])
def test_squared_kernels_keep_their_range(spec, p):
    """d**p stays finite wherever it and the squared distance do: here d ~ 1e120."""
    got = make_space(spec).distance(np.array([1e120, 3e119]), np.zeros(2), p)
    assert got == pytest.approx(math.hypot(1e120, 3e119) ** p, rel=1e-15)


@pytest.mark.parametrize("p", POWERS)
def test_powers_propagate_zero_inf_nan(p):
    got = _power(np.array([0.0, np.inf, np.nan]), p)
    assert got[0] == 0.0 and got[1] == np.inf and np.isnan(got[2])
    for spec in ("euclidean:2", "max_norm_plane", "q:2:1"):
        space = make_space(spec)
        a = np.zeros((3, space.rep_dim))
        b = np.zeros((3, space.rep_dim))
        b[1, 0], b[2, 0] = np.inf, np.nan
        got = space.distance(a, b, p)
        assert got[0] == 0.0 and got[1] == np.inf and np.isnan(got[2])


@pytest.mark.parametrize("spec", ["euclidean:1", "euclidean:3", "max_norm_plane", "circle",
                                  "q:1:1", "q:2:1", "q:2:2", "q:3:1"])
def test_distance_leaves_operands_unchanged(spec):
    """No kernel writes into its operands, on either layout or on single points.

    Two single points give a 0-d result equal to the one-row result.
    """
    space = make_space(spec)
    for shape_kind in ("broadcast", "rows"):
        a, b = _call_operands(shape_kind, space.rep_dim, 0)
        a0, b0 = a.copy(), b.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            space.distance(a, b)
        assert np.array_equal(a, a0, equal_nan=True) and np.array_equal(b, b0, equal_nan=True)
    a, b = a[0], b[0]
    got = space.distance(a, b)
    assert np.ndim(got) == 0 and got == space.distance(a[None], b[None])[0]
    assert np.array_equal(a, a0[0]) and np.array_equal(b, b0[0])


class TestDenseEnumeration:
    def test_euclidean1_starts_at_origin(self):
        assert make_space("euclidean:1").dense_points(1)[0] == pytest.approx([0.0])

    def test_circle_first_four(self):
        pts = make_space("circle").dense_points(4).ravel()
        assert pts == pytest.approx([0.0, math.pi, math.pi / 2, 3 * math.pi / 2], abs=1e-15)

    def test_enumeration_deterministic(self):
        a = make_space("euclidean:2").dense_points(600)
        b = make_space("euclidean:2").dense_points(600)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("spec,count", [("euclidean:2", 2048), ("euclidean:1", 512),
                                            ("circle", 512), ("q:2:1", 512), ("max_norm_plane", 1024)])
    def test_enumeration_injective(self, spec, count):
        pts = make_space(spec).dense_points(count)
        assert len(np.unique(pts, axis=0)) == count

    def test_covering_radius_10k_points(self):
        """First 10^4 plane points cover [-1,1]^2 within 0.05."""
        pts = make_space("euclidean:2").dense_points(10_000)
        side = np.linspace(-1.0, 1.0, 161)
        scan = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
        from scipy.spatial import cKDTree

        worst = cKDTree(pts).query(scan)[0].max()
        cell_halfdiag = math.sqrt(2) * (2.0 / 160.0) / 2.0
        assert worst + cell_halfdiag <= 0.05

    def test_covering_radius_shrinks(self):
        space = make_space("euclidean:2")
        from scipy.spatial import cKDTree

        side = np.linspace(-1.0, 1.0, 81)
        scan = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
        radii = [cKDTree(space.dense_points(k)).query(scan)[0].max() for k in (100, 1000, 10000)]
        assert radii[0] > radii[1] > radii[2]

    def test_circle_prefix_is_fine(self):
        pts = np.sort(make_space("circle").dense_points(64).ravel())
        gaps = np.diff(np.concatenate([pts, [TAU + pts[0]]]))
        assert gaps.max() <= TAU / 64 + 1e-12

    def test_snap_lands_on_dyadic_lattice(self):
        for spec in ("euclidean:2", "max_norm_plane", "q:2:1"):
            space = make_space(spec)
            rng = np.random.default_rng(0)
            x = space.sample_points(50, rng)
            snapped = space.snap(x, 7)
            assert np.allclose(snapped * 2**7, np.round(snapped * 2**7), atol=1e-9)
            assert np.max(np.abs(snapped - space.canonical(x))) <= 2.0**-7

    def test_snap_circle_stays_dyadic_angle(self):
        c = make_space("circle")
        snapped = c.snap(np.array([[1.234], [6.1], [0.01]]), 6)
        frac = snapped / TAU * 2**6
        assert np.allclose(frac, np.round(frac), atol=1e-9)


class TestAxioms:
    @pytest.mark.parametrize("spec", ["euclidean:3", "max_norm_plane", "circle", "q:2:2"])
    def test_no_violations_on_1000_triples(self, spec):
        report = verify_metric_axioms(make_space(spec), 1000, seed=42)
        assert report.total_violations == 0

    def test_requires_positive_samples(self):
        with pytest.raises(ConfigError):
            verify_metric_axioms(make_space("circle"), 0, seed=0)


def test_make_space_errors():
    for bad in ("euclidean", "euclidean:x", "q:2", "torus", "q:9:1"):
        with pytest.raises(ConfigError):
            make_space(bad)
