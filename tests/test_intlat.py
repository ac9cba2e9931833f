import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepaut.intlat import (
    IntMatrix,
    gcd_of_minors,
    kernel_basis,
    smith_normal_form,
)

# difference matrix of the flagship example, rows chi_i - chi_1 over the
# canonical variable order (X2, X1, Y1, Y2, Y3)
FLAGSHIP_D = IntMatrix.from_rows(
    [
        [-11, -10, 10, 0, 0],
        [-11, -10, 0, 10, 0],
        [-11, -10, 0, 0, 10],
    ]
)


def assert_snf_contract(a):
    """Full SNFResult contract, with the gcd-of-minors oracle as referee."""
    res = smith_normal_form(a)
    assert (res.U @ a @ res.V).entries == res.S.entries
    assert abs(res.U.determinant()) == 1
    assert abs(res.V.determinant()) == 1
    assert all(d > 0 for d in res.divisors)
    for i in range(len(res.divisors) - 1):
        assert res.divisors[i + 1] % res.divisors[i] == 0
    for i in range(res.S.rows):
        for j in range(res.S.cols):
            if i != j:
                assert res.S.at(i, j) == 0
    prev = 1
    for k, d in enumerate(res.divisors, start=1):
        delta = gcd_of_minors(a, k)
        assert delta == prev * d, f"divisor {k} disagrees with minors"
        prev = delta
    if len(res.divisors) < min(a.rows, a.cols):
        assert gcd_of_minors(a, len(res.divisors) + 1) == 0
    return res


def test_identity_has_unit_divisors():
    res = assert_snf_contract(IntMatrix.identity(3))
    assert res.divisors == (1, 1, 1)


def test_known_two_by_two():
    # minors oracle: gcd of entries 2, |det| = 8, so divisors (2, 8/2)
    res = assert_snf_contract(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert res.divisors == (2, 4)


def test_flagship_difference_matrix_divisors():
    assert gcd_of_minors(FLAGSHIP_D, 1) == 1
    assert gcd_of_minors(FLAGSHIP_D, 2) == 10
    assert gcd_of_minors(FLAGSHIP_D, 3) == 100
    res = assert_snf_contract(FLAGSHIP_D)
    assert res.divisors == (1, 10, 10)


def test_zero_matrix():
    res = assert_snf_contract(IntMatrix.from_rows([[0, 0, 0]]))
    assert res.divisors == ()


def test_empty_matrix():
    empty = IntMatrix.from_rows([], cols=3)
    res = smith_normal_form(empty)
    assert res.divisors == ()
    assert sorted(kernel_basis(empty)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_transpose_same_divisors():
    a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert smith_normal_form(a).divisors == smith_normal_form(a.transpose()).divisors


_matrices = (
    st.tuples(st.integers(1, 6), st.integers(1, 6))
    .flatmap(
        lambda rc: st.lists(
            st.lists(st.integers(-50, 50), min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        )
    )
    .map(IntMatrix.from_rows)
)


@settings(max_examples=120, deadline=None)
@given(_matrices)
def test_snf_contract_random(a):
    assert_snf_contract(a)


@settings(max_examples=60, deadline=None)
@given(_matrices)
def test_snf_divisors_match_transpose(a):
    assert smith_normal_form(a).divisors == smith_normal_form(a.transpose()).divisors


def test_kernel_of_zero_row_is_standard_basis():
    basis = kernel_basis(IntMatrix.from_rows([[0, 0, 0]]))
    assert sorted(basis) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_kernel_small_primitive():
    (vec,) = kernel_basis(IntMatrix.from_rows([[-2, 3]]))
    assert vec in ((3, 2), (-3, -2))


def test_kernel_of_flagship():
    basis = kernel_basis(FLAGSHIP_D)
    assert len(basis) == 2
    for vec in basis:
        assert FLAGSHIP_D.matvec(vec) == (0, 0, 0)
    # saturation: the basis extends to a basis of Z^5
    assert smith_normal_form(IntMatrix.from_rows(basis)).divisors == (1, 1)


@settings(max_examples=80, deadline=None)
@given(_matrices)
def test_kernel_contract_random(a):
    basis = kernel_basis(a)
    rank = len(smith_normal_form(a).divisors)
    assert len(basis) == a.cols - rank
    zero = (0,) * a.rows
    for vec in basis:
        assert a.matvec(vec) == zero
    if basis:
        sat = smith_normal_form(IntMatrix.from_rows(basis))
        assert sat.divisors == (1,) * len(basis)


def test_gcd_of_minors_identity():
    assert gcd_of_minors(IntMatrix.identity(3), 2) == 1
    assert gcd_of_minors(IntMatrix.identity(3), 0) == 1


def test_gcd_of_minors_bad_order():
    with pytest.raises(ValueError):
        gcd_of_minors(IntMatrix.identity(2), 3)


def test_matrix_basics():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert a.determinant() == -2
    assert not a.is_unimodular()
    assert IntMatrix.from_rows([[2, 1], [1, 1]]).is_unimodular()
    assert (a @ IntMatrix.identity(2)).entries == a.entries
    assert a.matvec((1, 1)) == (3, 7)
    assert a.transpose().to_rows() == [[1, 3], [2, 4]]
    assert a.column(1) == (2, 4)


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2]]).determinant()

