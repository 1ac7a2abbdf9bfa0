import random
from fractions import Fraction

import pytest

from quadbalance import GF, InputError, LinearForm, ProductOfLinearForms, QQ
from quadbalance.linalg import (
    ModularEchelon,
    bareiss_rank,
    modular_rank,
    rank_of_rows,
)

from oracles import gf_rank, sympy_rank


def form(*coeffs):
    return LinearForm(tuple(coeffs))


def test_rank_examples():
    assert rank_of_rows([{0: 1}, {1: 1}]) == 2
    assert rank_of_rows([{0: 1, 1: 1}, {0: 1, 1: 1}]) == 1
    assert rank_of_rows([{1: 1, 2: 1}, {2: 1}, {0: 1}]) == 3


def test_rank_of_rows_against_sympy():
    rng = random.Random(13)
    for _ in range(250):
        rows = [
            [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]
            for _ in range(rng.randint(1, 5))
        ]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        assert rank_of_rows([dict(enumerate(r)) for r in rows], QQ) == sympy_rank(rows), rows


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
            assert rank_of_rows([dict(enumerate(r)) for r in rows], field) == gf_rank(rows, p)


def test_rank_handles_fractions():
    # a rational row is a scalar multiple of an integer one, so forms take
    # only integers and the cleared rows keep the rank
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
    cleared = [{0: 3, 1: 2}, {0: 9, 1: 6}]
    assert rank_of_rows(cleared, QQ) == sympy_rank(rows)
    with pytest.raises(InputError, match="integers"):
        LinearForm(tuple(rows[0]))


def test_rank_differs_by_field():
    # dependent mod 2, independent over the rationals
    rows = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    assert rank_of_rows(rows, QQ) == 2
    assert rank_of_rows(rows, GF(2)) == 1


def test_empty_and_zero():
    assert bareiss_rank([]) == 0
    assert rank_of_rows([{0: 0, 1: 0, 2: 0}], QQ) == 0
    assert modular_rank([{0: 0, 1: 4}, {0: 0, 1: 2}], 2) == 0
    assert modular_rank([], 2) == 0
    assert modular_rank([{}, {}], 3) == 0
    # an entry divisible by p is a zero entry
    assert modular_rank([{0: 3}], 3) == 0
    assert modular_rank([{0: 3}, {1: -6, 2: 4}], 3) == 1


def test_sparse_rows_with_gaps():
    # only the columns that occur matter, wherever they sit
    rows = [{0: 1, 7: 2}, {7: 1, 100: 3}, {0: 1, 100: -6}]
    dense = [[r.get(c, 0) for c in (0, 7, 100)] for r in rows]
    assert bareiss_rank(rows) == sympy_rank(dense) == 2
    for p in (2, 3, 5, 32003):
        assert modular_rank(rows, p) == gf_rank(dense, p)
    assert bareiss_rank([{0: 2}, {5: 3}, {9: -1, 12: 4}]) == 3
    assert bareiss_rank([{0: 2}, {}, {5: 3}]) == 2


def test_modular_echelon_against_oracle():
    # the basis behaves like the rank of the rows still on the stack
    rng = random.Random(15)
    width = 8
    for p in (2, 3, 32003):
        for _ in range(40):
            basis = ModularEchelon(p)
            live = []
            for _ in range(30):
                if live and rng.random() < 0.3:
                    basis.pop()
                    live.pop()
                    continue
                columns = rng.sample(range(width), rng.randint(0, 4))
                row = {c: rng.randint(-p - 2, p + 2) for c in columns}
                dense = [row.get(c, 0) for c in range(width)]
                grows = gf_rank(live + [dense], p) > gf_rank(live, p)
                assert basis.push(row) == grows
                if grows:
                    live.append(dense)
                assert len(basis.rows) == len(live)


def test_linear_form_validation():
    f = form(0, 2, 0)
    assert not f.is_zero()
    assert LinearForm.variable(2, 4).coefficients == (0, 0, 1, 0)
    with pytest.raises(InputError):
        ProductOfLinearForms((form(0, 0),))
    with pytest.raises(InputError):
        ProductOfLinearForms((form(1, 0), form(1, 0, 0)))
    prod = ProductOfLinearForms((form(1, 0), form(1, 1)))
    assert prod.degree == 2
