import random
from math import gcd

import pytest

from frobgraph.cyclo import Cyclotomic, cyc_sum, cyclotomic_polynomial
from frobgraph.errors import ConductorOverflow, NotCoprime, NotRational

Z = Cyclotomic.zeta


def test_primitive_root_sums():
    assert Z(3) + Z(3, 2) == Cyclotomic.from_int(-1)
    assert Z(4) * Z(4) == Cyclotomic.from_int(-1)


def test_golden_product():
    # (z5 + z5^4)(z5^2 + z5^3) expands to z^3 + z^4 + z^6 + z^7 = z + z^2 + z^3 + z^4 = -1
    a = Z(5) + Z(5, 4)
    b = Z(5, 2) + Z(5, 3)
    assert a * b == -1


def test_galois_conjugation():
    assert Cyclotomic.from_int(5).galois_conjugate(3) == 5
    assert Z(3).galois_conjugate(2) == Z(3, 2)
    a = Z(5) + Z(5, 4)
    assert a.galois_conjugate(2) == Z(5, 2) + Z(5, 3)
    with pytest.raises(NotCoprime):
        Z(6).galois_conjugate(2)


def test_complex_conjugation_is_inverse_on_roots():
    v = Z(7, 3)
    assert v.conjugate() == Z(7, 4)
    assert (v * v.conjugate()) == 1


def test_to_rational_integer():
    assert Cyclotomic.from_int(7).to_rational_integer() == 7
    assert (Z(3) + Z(3, 2)).to_rational_integer() == -1
    with pytest.raises(NotRational):
        Z(3).to_rational_integer()


def test_ring_axioms_random():
    rng = random.Random(11)
    e = 12
    vals = [
        Cyclotomic(e, tuple(rng.randint(-3, 3) for _ in range(e)))
        for _ in range(8)
    ]
    for _ in range(40):
        a, b, c = rng.choice(vals), rng.choice(vals), rng.choice(vals)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_canonical_form_idempotent():
    rng = random.Random(5)
    for e in (4, 6, 9, 12):
        raw = [rng.randint(-5, 5) for _ in range(e)]
        once = Cyclotomic(e, raw)
        twice = Cyclotomic(e, once.coeffs)
        assert once.coeffs == twice.coeffs
        assert not any(once.coeffs[len(cyclotomic_polynomial(e)) - 1 :])


def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


@pytest.mark.parametrize("ns", [range(1, 301), (546, 780, 1710, 3036)], ids=["upto300", "large"])
def test_cyclotomic_polynomials_factor_x_to_the_n_minus_one(ns):
    # oracle: x^n - 1 is the product of Phi_d over d | n, and deg Phi_n = phi(n)
    for n in ns:
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = _polymul(product, cyclotomic_polynomial(d))
        assert product == [-1] + [0] * (n - 1) + [1], n
        totient = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert len(cyclotomic_polynomial(n)) - 1 == totient, n


def test_cross_conductor_equality_and_hash():
    minus_one_at_3 = Z(3) + Z(3, 2)
    assert minus_one_at_3 == Cyclotomic.from_int(-1)
    assert hash(minus_one_at_3) == hash(Cyclotomic.from_int(-1))
    # zeta_6 = 1 + zeta_3 lives in the conductor-3 field
    z6 = Z(6)
    assert z6 == 1 + Z(3)
    assert z6.minimal().conductor == 3
    golden = Z(5) + Z(5, 4)
    lifted = golden.lift(10)
    assert lifted == golden and hash(lifted) == hash(golden)


def test_minimal_conductor_of_lifted_values():
    rng = random.Random(42)
    for e in (5, 8, 12):
        for _ in range(10):
            v = Cyclotomic(e, tuple(rng.randint(-2, 2) for _ in range(e)))
            lifted = v.lift(3 * e)
            m = lifted.minimal()
            assert m == v
            assert m.conductor <= e
            assert m.minimal() == m


def test_conductor_overflow():
    with pytest.raises(ConductorOverflow):
        Z(101) * Z(103)


def test_rendering():
    assert str(Cyclotomic.from_int(-3)) == "-3"
    assert str(Z(3) + Z(3, 2)) == "-1"
    assert str(Z(5, 2)) == "z(5)^2"
    s = str(2 + Z(5) + 3 * Z(5, 3))
    assert s == "2 + z(5)^1 + 3*z(5)^3"


def test_cyc_sum():
    assert cyc_sum([Z(3), Z(3, 2), 1]) == 0
    assert cyc_sum([]) == 0


def test_scale_and_int_mixing():
    assert 2 * Z(4) + Z(4) == 3 * Z(4)
    assert (5 - Z(4)) + Z(4) == 5


def test_tiny_conductors():
    assert Z(1, 0) == 1
    assert Z(2, 1) == -1
    assert Z(2).conjugate() == -1
    assert Cyclotomic.from_int(4).galois_conjugate(1) == 4
    v = Z(2) * Z(3)  # -zeta_3: a primitive 6th root, but it lives in Q(zeta_3)
    assert v == -Z(3) and v.minimal().conductor == 3
