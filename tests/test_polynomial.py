import random
from fractions import Fraction

import pytest

from parkres.polynomial import ONE, X, IntPolynomial


def test_canonical_form():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial(()).coeffs == ()
    assert IntPolynomial((0,)) == IntPolynomial()
    assert not IntPolynomial()
    assert IntPolynomial().degree == -1
    assert X.degree == 1


def test_arithmetic():
    p = (X + 1) * (X - 1)
    assert p == X**2 - 1
    assert p.coefficient(2) == 1 and p.coefficient(1) == 0 and p.coefficient(0) == -1
    assert p.coefficient(7) == 0
    assert 2 * X + X == IntPolynomial((0, 3))
    assert X - X == IntPolynomial()
    assert (X + 2) ** 3 == X**3 + 6 * X**2 + 12 * X + 8
    assert X**0 == ONE
    assert 1 - X == IntPolynomial((1, -1))


def test_equality_with_ints():
    assert IntPolynomial((5,)) == 5
    assert ONE == 1
    assert X != 1


def test_evaluation():
    p = X**2 + 2 * X
    assert p(3) == 15
    assert p(Fraction(1, 2)) == Fraction(5, 4)
    assert p(0) == 0
    with pytest.raises(TypeError):
        p(0.5)


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        X ** (-1)


def test_immutability_and_int_coeffs():
    with pytest.raises(AttributeError):
        X.coeffs = (1,)
    with pytest.raises(TypeError):
        IntPolynomial((1.5,))


def test_str():
    assert str(X**2 + 2 * X) == "x^2 + 2x"
    assert str(IntPolynomial((-1, 0, 1))) == "x^2 - 1"
    assert str(IntPolynomial()) == "0"
    assert str(-X) == "-x"


def test_subtraction_matches_adding_the_negation():
    rng = random.Random(7)
    for _ in range(300):
        a = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 7))])
        b = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 7))])
        assert a - b == a + (-1) * b
        assert (a - b).coeffs == (a + (-1) * b).coeffs
    # equal leading terms cancel, and the trailing zeros they leave go too
    p = IntPolynomial((1, 2, 3, 4))
    q = IntPolynomial((5, 2, 3, 4))
    assert (p - q).coeffs == (-4,)
    assert (p - p).coeffs == ()
    assert (X - (X**3 + X)).coeffs == (0, 0, 0, -1)
    assert (p - 1).coeffs == (0, 2, 3, 4)


def test_public_constructor_checks_every_coefficient():
    for bad in ((1, 2.0), (Fraction(1, 2),), (1, 0, "3"), (1, None)):
        with pytest.raises(TypeError):
            IntPolynomial(bad)
    # a whole float is refused too, even where it would be trimmed away
    with pytest.raises(TypeError):
        IntPolynomial((1, 0.0))


def test_arithmetic_results_are_trimmed():
    assert (X + 1) - X == ONE
    assert ((X + 1) - X).degree == 0
    assert ((X**2 + X) - X**2).degree == 1
    assert (X * X - X**2).coeffs == ()
    assert ((X + 1) + (-X)).coeffs == (1,)
    assert (0 * (X + 1)).coeffs == ()
    assert (-(X - X)).degree == -1
    assert ((X + 1) * (X - 1) + 1).coeffs == (0, 0, 1)
