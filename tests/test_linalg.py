import random
from fractions import Fraction

import pytest

from quadbalance import GF, InputError, LinearForm, ProductOfLinearForms, QQ
from quadbalance.linalg import bareiss_rank, modular_rank, rank_of_forms, rank_of_rows

from oracles import gf_rank, sympy_rank


def form(*coeffs):
    return LinearForm(tuple(coeffs))


def test_rank_examples():
    assert rank_of_forms([form(1, 0, 0), form(0, 1, 0)]) == 2
    assert rank_of_forms([form(1, 1, 0), form(1, 1, 0)]) == 1
    assert rank_of_forms([form(0, 1, 1), form(0, 0, 1), form(1, 0, 0)]) == 3


def test_rank_of_rows_against_sympy():
    rng = random.Random(13)
    for _ in range(250):
        rows = [
            [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]
            for _ in range(rng.randint(1, 5))
        ]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        assert rank_of_rows(rows, QQ) == sympy_rank(rows), rows


def test_modular_rank_against_oracle():
    rng = random.Random(14)
    for p in (2, 3, 7, 32003):
        field = GF(p)
        for _ in range(60):
            rows = [
                [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
                for _ in range(rng.randint(1, 5))
            ]
            width = max(len(r) for r in rows)
            rows = [r + [0] * (width - len(r)) for r in rows]
            assert rank_of_rows(rows, field) == gf_rank(rows, p)


def test_rank_handles_fractions():
    # a rational row is a scalar multiple of an integer one, so forms take
    # only integers and the cleared rows keep the rank
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
    cleared = [[3, 2], [9, 6]]
    assert rank_of_rows(cleared, QQ) == sympy_rank(rows)
    with pytest.raises(InputError, match="integers"):
        LinearForm(tuple(rows[0]))


def test_rank_differs_by_field():
    # dependent mod 2, independent over the rationals
    rows = [[1, 1], [1, -1]]
    assert rank_of_rows(rows, QQ) == 2
    assert rank_of_rows(rows, GF(2)) == 1


def test_empty_and_zero():
    assert bareiss_rank([]) == 0
    assert rank_of_rows([[0, 0, 0]], QQ) == 0
    assert modular_rank([[0, 4], [0, 2]], 2) == 0


def test_linear_form_validation():
    f = form(0, 2, 0)
    assert f.support() == (1,)
    assert not f.is_zero()
    assert LinearForm.variable(2, 4).coefficients == (0, 0, 1, 0)
    with pytest.raises(InputError):
        ProductOfLinearForms((form(0, 0),))
    with pytest.raises(InputError):
        ProductOfLinearForms((form(1, 0), form(1, 0, 0)))
    prod = ProductOfLinearForms((form(1, 0), form(1, 1)))
    assert prod.degree == 2
