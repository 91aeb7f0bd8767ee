import cmath
import random
from math import gcd, lcm

import pytest

from helpers import group

from frobgraph import cyclo
from frobgraph.chartab import character_table
from frobgraph.config import DEFAULT_CONDUCTOR_CAP
from frobgraph.cyclo import Cyclotomic, cyc_dot, cyc_gram, cyc_sum, cyclotomic_polynomial
from frobgraph.errors import ConductorOverflow, NotCoprime, NotRational
from frobgraph.frobenius import frobenius_matrix
from frobgraph.perm import parse_cycles

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
    with pytest.raises(ConductorOverflow):
        Z(101) + Z(103)
    with pytest.raises(ConductorOverflow):
        cyc_sum([Z(101), Z(103)])
    with pytest.raises(ConductorOverflow):
        cyc_dot([(Z(101), Z(103), 1)])


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


def _complex(v):
    """Value at zeta_e = exp(2 pi i / e), e the conductor; ints are conductor 1."""
    if isinstance(v, int):
        return v
    return sum(c * cmath.exp(2j * cmath.pi * k / v.conductor) for k, c in enumerate(v.coeffs))


def test_sums_and_dot_products_match_complex_evaluation():
    # oracle: complex arithmetic, and the pairwise + and * results
    conductors = list(range(1, 16)) + [20, 24, 60]
    rng = random.Random(7)
    for _ in range(60):
        ns = rng.sample(conductors, 3)
        if lcm(*ns) > DEFAULT_CONDUCTOR_CAP:
            continue
        vals = [Cyclotomic(n, [rng.randint(-3, 3) for _ in range(n)]) for n in ns]
        terms = [(rng.choice(vals), rng.choice(vals), rng.randint(-5, 5)) for _ in range(7)]
        vals.append(rng.randint(-4, 4))
        dot = cyc_dot(terms)
        want = sum(w * _complex(a) * _complex(b) for a, b, w in terms)
        assert abs(_complex(dot) - want) < 1e-6
        total = cyc_sum(vals)
        assert abs(_complex(total) - sum(map(_complex, vals))) < 1e-6
        pairwise = 0
        for a, b, w in terms:
            pairwise = pairwise + a * b * w
        assert dot == pairwise
        pairwise = vals[0]
        for v in vals[1:]:
            pairwise = pairwise + v
        assert total == pairwise


def test_sums_reduce_once(monkeypatch):
    # D8's table and S4's are rational, so every column of F(S4, D8) is an
    # integer dot product and nothing is reduced.  C3's classes 1, a, a^2
    # give F(A4, C3) one rational column and two at conductor 3: one
    # reduction per entry whose restricted column has a nonzero value
    # there (the degree-3 character of A4 vanishes on both).
    S4 = group("S4")
    H = S4.subgroup([parse_cycles("(1,2,3,4)", degree=4), parse_cycles("(1,3)", degree=4)])
    A4 = group("A4")
    C3 = A4.subgroup([parse_cycles("(1,2,3)", degree=4)])
    for G, K in ((S4, H), (A4, C3)):
        character_table(G).conj_values()
        character_table(K.as_group()).conj_values()
    terms = [(Z(12, i), Z(8, 3 * i), i) for i in range(50)]
    calls = []
    reduce = cyclo._reduce
    monkeypatch.setattr(cyclo, "_reduce", lambda e, raw: calls.append(e) or reduce(e, raw))
    frobenius_matrix(S4, H)
    assert calls == []
    M = frobenius_matrix(A4, C3)
    assert calls == [3] * 9
    assert M.entries == ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1))
    calls.clear()
    cyc_dot(terms)
    assert calls == [24]


def _random_value(rng, conductors):
    """A random value: irrational, rational at some conductor, or zero."""
    n = rng.choice(conductors)
    kind = rng.random()
    if kind < 0.15:
        return Cyclotomic(n, [0] * n)
    if kind < 0.35:
        return Cyclotomic(n, [rng.randint(-4, 4)] + [0] * (n - 1))
    return Cyclotomic(n, [rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n)])


def test_gram_equals_cyc_dot_pair_by_pair():
    # one random batch per seed: mixed conductors, rational, zero and negative
    # values, negative and zero weights; some columns rational in every row
    conductors = [1, 2, 3, 4, 5, 7, 8, 12, 15, 20, 24]
    for seed in range(12):
        rng = random.Random(seed)
        ncols = rng.randint(0, 9)
        rational_cols = {j for j in range(ncols) if rng.random() < 0.3}

        def row():
            out = []
            for j in range(ncols):
                v = _random_value(rng, conductors)
                if j in rational_cols and any(v.coeffs[1:]):
                    v = Cyclotomic(v.conductor, [v.coeffs[0]] + [0] * (v.conductor - 1))
                out.append(v)
            return out

        rows_a = [row() for _ in range(rng.randint(1, 4))]
        rows_b = [row() for _ in range(rng.randint(1, 4))]
        weights = [rng.randint(-6, 6) for _ in range(ncols)]
        pairs = [(r, s) for r in range(len(rows_a)) for s in range(len(rows_b))]
        rng.shuffle(pairs)
        got = list(cyc_gram(rows_a, rows_b, weights, pairs))
        assert len(got) == len(pairs)
        for (r, s), value in zip(pairs, got):
            want = cyc_dot(zip(rows_a[r], rows_b[s], weights))
            assert (value.conductor, value.coeffs) == (want.conductor, want.coeffs)
            terms = zip(rows_a[r], rows_b[s], weights)
            assert abs(_complex(value) - sum(w * _complex(a) * _complex(b) for a, b, w in terms)) < 1e-6


def test_gram_overflows_where_cyc_dot_does():
    # conductors of rational and zero entries count: lcm(101, 103) = 10403 > 5 040
    zero_101 = Cyclotomic(101, [0] * 101)
    rows_a = [[Z(101), Cyclotomic.from_int(2)], [zero_101, Cyclotomic.from_int(3)]]
    rows_b = [[Cyclotomic.from_int(1), Z(103)], [Cyclotomic.from_int(1), Cyclotomic.from_int(5)]]
    weights = [1, 2]
    assert list(cyc_gram(rows_a, rows_b, weights, [(1, 1)])) == [30]
    for r, s in ((0, 0), (1, 0)):
        with pytest.raises(ConductorOverflow):
            cyc_dot(zip(rows_a[r], rows_b[s], weights))
        with pytest.raises(ConductorOverflow):
            list(cyc_gram(rows_a, rows_b, weights, [(1, 1), (r, s)]))


def _reduce_dense(e, raw):
    """The reference: fold every exponent mod e, then reduce mod Phi_e
    over every coefficient of Phi_e."""
    vec = [0] * e
    for j, c in enumerate(raw):
        if c:
            vec[j % e] += c
    phi = cyclotomic_polynomial(e)
    deg = len(phi) - 1
    for i in range(e - 1, deg - 1, -1):
        c = vec[i]
        if c:
            vec[i] = 0
            base = i - deg
            for j in range(deg):
                pc = phi[j]
                if pc:
                    vec[base + j] -= c * pc
    return tuple(vec)


@pytest.mark.parametrize("e", [1, 2, 12, 24, 420, 546, 780, 1710, 3036])
def test_reduce_matches_the_dense_loop(e):
    rng = random.Random(e)
    for length in (e, 2 * e):
        for density in (0.05, 1.0):
            raw = [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(length)]
            assert cyclo._reduce(e, raw) == _reduce_dense(e, raw)


def test_lift_fast_path_equals_lifting_through_reduce():
    rng = random.Random(3)
    for e, e2 in ((1, 3036), (2, 12), (3, 12), (4, 12), (12, 3036), (23, 3036), (11, 132)):
        vals = [Cyclotomic.from_int(rng.randint(-5, 5)), Z(e), Z(e, e - 1)]
        vals.append(Cyclotomic(e, [rng.randint(-3, 3) for _ in range(e)]))
        for v in vals:
            raw = [0] * e2
            for j, c in enumerate(v.coeffs):
                raw[j * (e2 // e)] = c
            assert v.lift(e2).coeffs == cyclo._reduce(e2, raw)
            assert v.lift(e2) == v


def test_dot_with_rational_and_irrational_parts_at_3036():
    # parts (23, 23) and (11, 1) sum to rationals: z^(2k) over k = 1..22 is -1,
    # and so is z_11^k over k = 1..10; parts (12, 12) and (11, 12) do not
    rng = random.Random(23)
    one = Cyclotomic.from_int(1)
    terms = [(Z(23, k), Z(23, k), 1) for k in range(1, 23)]
    terms += [(Z(11, k), one, 2) for k in range(1, 11)]
    v11, v12 = (Cyclotomic(n, [rng.randint(-3, 3) for _ in range(n)]) for n in (11, 12))
    terms += [(v12, Z(12, 5), 3), (v12, v12, -1), (v11, v12, 2)]
    rng.shuffle(terms)
    dot = cyc_dot(terms)
    assert dot.conductor == 3036
    want = sum(w * _complex(a) * _complex(b) for a, b, w in terms)
    assert abs(_complex(dot) - want) < 1e-6
    pairwise = 0
    for a, b, w in terms:
        pairwise = pairwise + a * b * w
    assert dot == pairwise
    rational = cyc_dot(t for t in terms if t[0].conductor in (11, 23) and t[1].conductor != 12)
    assert rational == -3


def test_nonzero_pairs_are_cached_and_match_the_coefficients():
    rng = random.Random(17)
    for e in (1, 2, 7, 12, 60):
        v = Cyclotomic(e, [rng.choice((0, 0, 1, -2)) for _ in range(e)])
        for w in (v, v * v, v.lift(2 * e), cyc_sum([v, 1])):
            want = tuple((j, c) for j, c in enumerate(w.coeffs) if c)
            assert w.nonzero == want
            assert w.nonzero is w.nonzero
