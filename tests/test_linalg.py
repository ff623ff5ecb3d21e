from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rclkit.field import QQ, PrimeField
from rclkit.fixture_gen import invert
from rclkit.linalg import Mat, SubspaceBasis, nullspace, rank, solve


def qmat(rows):
    return Mat.from_rows(QQ, [[Fraction(x) for x in r] for r in rows])


def test_rank_identity_and_zero():
    assert rank(Mat.identity(QQ, 2)) == 2
    assert rank(Mat.zeros(QQ, 2, 2)) == 0


def test_rank_dependent_rows():
    # hand row-reduction: second row is twice the first
    assert rank(qmat([[1, 2], [2, 4]])) == 1


def test_solve_identity_and_unsolvable():
    b = qmat([[3], [7]])
    x = solve(Mat.identity(QQ, 2), b)
    assert x == b
    assert solve(Mat.zeros(QQ, 2, 2), qmat([[1], [0]])) is None


def test_solve_back_substitution():
    a = qmat([[1, 1], [0, 1]])
    b = qmat([[3], [1]])
    x = solve(a, b)
    assert x.col(0) == (Fraction(2), Fraction(1))
    assert a.mul(x) == b


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_fracs, min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_rank_transpose(rows):
    m = qmat(rows)
    assert rank(m) == rank(Mat.from_columns(QQ, m.cols, m.data))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_fracs, min_size=3, max_size=3),
                min_size=1, max_size=3),
       st.lists(st.lists(small_fracs, min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_canonical_form_change_of_basis(vectors, mixing):
    """Equal subspaces serialize to identical bases."""
    u = SubspaceBasis.from_vectors(QQ, 3, vectors)
    mixed = []
    for row in mixing:
        acc = [Fraction(0)] * 3
        for c, v in zip(row, vectors):
            acc = [a + c * x for a, x in zip(acc, v)]
        mixed.append(acc)
    v = SubspaceBasis.from_vectors(QQ, 3, list(vectors) + mixed)
    assert u == v


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_fracs, min_size=2, max_size=2),
                min_size=2, max_size=3),
       st.lists(small_fracs, min_size=2, max_size=2))
def test_solve_solves_when_consistent(rows, xvec):
    a = qmat(rows)
    x = Mat.column(QQ, [Fraction(v) for v in xvec])
    b = a.mul(x)
    got = solve(a, b)
    assert got is not None
    assert a.mul(got) == b


def test_nullspace_orthogonal_to_rows():
    a = qmat([[1, 2, 3], [0, 1, 1]])
    for v in nullspace(a):
        assert all(x == 0 for x in a.apply(v))
    assert len(nullspace(a)) == 1


def test_prime_field_arithmetic():
    F = PrimeField(101)
    assert F.mul(F.inv(7), 7) == 1
    m = Mat.from_rows(F, [[3, 6], [1, 2]])
    assert rank(m) == 1
    with pytest.raises(ValueError):
        PrimeField(6)


def test_invert():
    m = qmat([[1, 1], [0, 1]])
    inv = invert(m)
    assert m.mul(inv) == Mat.identity(QQ, 2)
    assert invert(qmat([[1, 2], [2, 4]])) is None



@pytest.mark.parametrize("rows,cols,data", [
    (2, 2, [[1, 2], [3]]),      # ragged rows
    (3, 2, [[1, 2], [3, 4]]),   # wrong number of rows
    (2, 3, [[1, 2], [3, 4]]),   # wrong number of columns
    (0, 2, [[1, 2]]),           # rows for an empty matrix
])
def test_mat_rejects_data_of_the_wrong_shape(rows, cols, data):
    with pytest.raises(ValueError, match=r"^shape mismatch: %dx%d vs data$" % (rows, cols)):
        Mat(QQ, rows, cols, data)
