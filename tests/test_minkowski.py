import numpy as np
import pytest
from hypothesis import given, strategies as st

from retnbody import minkowski as mk


def test_dot_signature_example():
    assert mk.dot([2.0, 1.0, 1.0, 1.0], [2.0, 1.0, 1.0, 1.0]) == pytest.approx(1.0, abs=0.0)


def test_dot_of_unit_timelike():
    assert mk.dot([1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]) == 1.0


def test_boost_of_rest_velocity():
    out = mk.Boost(np.array([0.6, 0.0, 0.0])).matrix() @ np.array([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(out, [1.25, 0.75, 0.0, 0.0], rtol=0.0, atol=1e-15)


def test_boost_gamma():
    b = mk.Boost(np.array([0.6, 0.0, 0.0]))
    assert b.gamma == pytest.approx(1.25, abs=1e-15)


def test_boost_rejects_superluminal():
    with pytest.raises(ValueError):
        mk.Boost(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        mk.Boost(np.array([0.8, 0.8, 0.0]))


def test_boost_inverse_round_trip():
    b = mk.Boost(np.array([0.3, -0.2, 0.5]))
    v = np.array([2.0, 0.1, -0.4, 0.7])
    back = mk.Boost(-b.beta).matrix() @ (b.matrix() @ v)
    assert np.allclose(back, v, atol=1e-14)


def test_four_vector_validation():
    with pytest.raises(ValueError):
        mk.dot(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        mk.dot(np.array([1.0, np.nan, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))


def test_faraday_rejects_symmetric_part():
    m = np.zeros((4, 4))
    m[0, 1] = 1.0
    m[1, 0] = -1.0
    m[2, 2] = 1e-3
    with pytest.raises(ValueError):
        mk.FaradayTensor(m)


def test_faraday_accepts_and_stores_antisymmetric():
    m = np.zeros((4, 4))
    m[0, 1] = 2.0
    m[1, 0] = -2.0
    F = mk.FaradayTensor(m)
    assert np.array_equal(F.matrix, -F.matrix.T)
    assert F.electric[0] == 2.0


def test_lower_raise_round_trip():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(mk.raise_index(mk.lower(v)), v)
    assert mk.dot(v, v) == pytest.approx(float(mk.lower(v) @ v))


finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
small_beta = st.floats(min_value=-0.57, max_value=0.57, allow_nan=False)


@given(st.tuples(finite, finite, finite, finite), st.tuples(finite, finite, finite, finite),
       st.tuples(small_beta, small_beta, small_beta))
def test_dot_is_boost_invariant(av, bv, beta):
    a = np.array(av)
    b = np.array(bv)
    bst = mk.Boost(np.array(beta))
    before = mk.dot(a, b)
    after = mk.dot(bst.matrix() @ a, bst.matrix() @ b)
    scale = 1.0 + abs(before) + float(np.max(np.abs(a))) * float(np.max(np.abs(b)))
    assert abs(after - before) < 1e-10 * scale


@given(st.tuples(finite, finite, finite, finite))
def test_boost_identity_when_beta_zero(av):
    v = np.array(av)
    assert np.array_equal(mk.Boost(np.zeros(3)).matrix() @ v, v)


@pytest.mark.parametrize("m", [1, 2, 7, 66, 5000])
def test_batched_products_have_the_bits_of_single_products(m):
    # _dot and dots are one np.vecdot call over the batch; each row must
    # round exactly as its own a @ b and dot do, on contiguous stacks and
    # on strided column slices (as ev.r[:, 1:] is), over 16 decades
    from retnbody.retardation import _dot

    rng = np.random.default_rng(m)

    def block():
        return rng.normal(size=(m, 5)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(m, 5))

    a, b = block(), block()
    for k in (3, 4):
        for x, y in [(np.ascontiguousarray(a[:, :k]), np.ascontiguousarray(b[:, :k])),
                     (a[:, 5 - k:], b[:, 5 - k:]), (a[:, :k], b[:, 1:1 + k])]:
            want = np.array([xi @ yi for xi, yi in zip(x, y)])
            assert _dot(x, y).tobytes() == want.tobytes()
    for x, y in [(np.ascontiguousarray(a[:, :4]), np.ascontiguousarray(b[:, 1:])),
                 (a[:, 1:], b[:, :4])]:
        want = np.array([mk.dot(xi, yi) for xi, yi in zip(x, y)])
        assert mk.dots(x, y).tobytes() == want.tobytes()
