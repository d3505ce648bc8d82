"""Differential test of the field's straight-line ring kernel.

The oracle is the generic ring arithmetic the kernel replaced, kept here
verbatim apart from taking the field as an argument: a double-loop
convolution, a reduction loop over the minimal polynomial's terms, one
content gcd per result, a cross gcd per sum, and comparisons by the sign
of the normalised difference.  Every ring operation must return the same
(num, den) as the oracle, and every comparison the same answer; the
decision test also asserts that both spend the same exact refinements.
"""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import trianglecf.field as field_module
import trianglecf.quadratic as quadratic_module
from trianglecf import dioph, dynamics, group, planar, verify
from trianglecf.errors import PrecisionExhausted
from trianglecf.field import FieldElement, NumberField, _chebyshev_v, _embedding_indices

NS = (4, 5, 7, 8, 12, 13, 16, 20, 60, 61, 100, 101)


# -- the oracle -----------------------------------------------------------------

def loop_reduce(field, poly):
    d = field.degree
    red_terms = [(j, c) for j, c in enumerate(field.min_poly[:-1]) if c]
    for i in range(len(poly) - 1, d - 1, -1):
        c = poly[i]
        if c:
            base = i - d
            for j, m in red_terms:
                poly[base + j] -= c * m
    del poly[d:]
    poly += [0] * (d - len(poly))
    return poly


def loop_mul(field, a, b):
    conv = [0] * (2 * field.degree - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    return loop_reduce(field, conv)


_ORACLE_ROWS = {}


def loop_conjugations(field):
    if field.n not in _ORACLE_ROWS:
        vs = _chebyshev_v(field.n)
        mats = []
        for k in _embedding_indices(field.n)[1:]:
            image = loop_reduce(field, list(vs[k]))
            cols = [[1] + [0] * (field.degree - 1)]
            for _ in range(field.degree - 1):
                cols.append(loop_mul(field, cols[-1], image))
            mats.append(tuple(zip(*cols)))
        _ORACLE_ROWS[field.n] = mats
    return _ORACLE_ROWS[field.n]


def oracle_element(field, num, den):
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = tuple(c // g for c in num)
        den //= g
    return field_module._new(field, tuple(num), den)


def oracle_add(x, o, sign):
    g = math.gcd(x.den, o.den)
    sa, sb = o.den // g, x.den // g * sign
    return oracle_element(x.field, tuple(a * sa + b * sb for a, b in zip(x.num, o.num)),
                          x.den * sa)


def oracle_mul(x, o):
    return oracle_element(x.field, loop_mul(x.field, x.num, o.num), x.den * o.den)


def oracle_inverse(x):
    if x.is_zero():
        raise ZeroDivisionError("inverse of zero field element")
    field = x.field
    if x.is_rational():
        return oracle_element(field, (x.den,) + (0,) * (field.degree - 1), x.num[0])
    a = x.num
    prod = None
    for rows in loop_conjugations(field):
        conj = [sum(r * c for r, c in zip(row, a)) for row in rows]
        prod = conj if prod is None else loop_mul(field, prod, conj)
    norm = loop_mul(field, a, prod)
    assert not any(norm[1:])
    return oracle_element(field, tuple(c * x.den for c in prod), norm[0])


def oracle_sign_of_difference(x, other):
    o = x._coerce(other)
    return None if o is None else oracle_add(x, o, -1).sign()


def _coerced(method):
    def wrapped(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else method(self, o)
    return wrapped


ORACLE_METHODS = {
    "__add__": _coerced(lambda x, o: oracle_add(x, o, 1)),
    "__radd__": _coerced(lambda x, o: oracle_add(x, o, 1)),
    "__sub__": _coerced(lambda x, o: oracle_add(x, o, -1)),
    "__mul__": _coerced(oracle_mul),
    "__rmul__": _coerced(oracle_mul),
    "inverse": oracle_inverse,
    "_sign_of_difference": oracle_sign_of_difference,
}


# -- operands -------------------------------------------------------------------

_FIELDS = {}


def field_for(n):
    if n not in _FIELDS:
        _FIELDS[n] = NumberField(n)
    return _FIELDS[n]


@st.composite
def elements(draw, field, max_bits=1500):
    """Zero, rationals and vectors of either sign, up to max_bits bits."""
    d = field.degree
    bits = draw(st.sampled_from([b for b in (0, 3, 64, 300, 1500) if b <= max_bits]))
    shape = draw(st.sampled_from(["zero", "rational", "sparse", "full"]))
    ints = st.integers(-(1 << bits), 1 << bits) if bits else st.integers(-1, 1)
    num = [0] * d
    if shape == "rational":
        num[0] = draw(ints)
    elif shape == "sparse":
        num[draw(st.integers(0, d - 1))] = draw(ints)
        num[0] = draw(ints)
    elif shape == "full":
        num = [draw(ints) for _ in range(d)]
    den = draw(st.sampled_from([1, 1, 2, 3, 6, 1 << 40, 3 ** 100 * 7]))
    return field.element([Fraction(c, den) for c in num])


def near(field, x, draw):
    """An element within about 2^-50 of x, or x itself: x plus a tiny
    rational, a multiple of lambda minus a close dyadic, or nothing."""
    kind = draw(st.sampled_from(["same", "rational", "lambda"]))
    sign = draw(st.sampled_from([1, -1]))
    if kind == "same":
        return field.element(x.coeffs)
    if kind == "rational":
        return x + Fraction(sign, 1 << draw(st.integers(50, 1600)))
    approx = Fraction(2.0 * math.cos(math.pi / field.n))
    return x + (field.lam - approx) * sign


def check_normal(e):
    assert type(e) is FieldElement
    assert e.den > 0
    assert math.gcd(e.den, *e.num) == 1
    assert len(e.num) == e.field.degree


# -- tests ----------------------------------------------------------------------

@pytest.mark.parametrize("n", NS)
def test_kernel_is_the_loop_product(n):
    F = field_for(n)
    d = F.degree
    vecs = [(0,) * d, (1,) + (0,) * (d - 1), tuple(i - d // 2 for i in range(d)),
            tuple((-1) ** i * (3 ** 900 + i) for i in range(d)),
            tuple((7 ** i) << (1400 if i % 3 else 0) for i in range(d))]
    for a in vecs:
        for b in vecs:
            out = F._mul(a, b)
            assert type(out) is tuple
            assert out == tuple(loop_mul(F, list(a), list(b)))


def test_field_pickles_after_its_first_product():
    F = NumberField(13)
    x = (F.lam + 1) * F.tau
    y = pickle.loads(pickle.dumps(x))
    assert (y.num, y.den) == (x.num, x.den)
    assert ((y * y).num, (y * y).den) == ((x * x).num, (x * x).den)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ring_operations_match_the_oracle(data):
    n = data.draw(st.sampled_from(NS), label="n")
    F = field_for(n)
    x = data.draw(elements(F), label="x")
    y = data.draw(elements(F), label="y")
    for got, want in ((x * y, oracle_mul(x, y)), (x + y, oracle_add(x, y, 1)),
                      (x - y, oracle_add(x, y, -1)), (y - x, oracle_add(y, x, -1))):
        check_normal(got)
        assert (got.num, got.den) == (want.num, want.den)
    # int and Fraction operands on either side
    q = data.draw(st.sampled_from([0, 1, -3, Fraction(-5, 12), Fraction(1, 3 ** 50)]))
    for got, want in ((x * q, oracle_mul(x, F.from_fraction(q))),
                      (q + x, oracle_add(x, F.from_fraction(q), 1)),
                      (x - q, oracle_add(x, F.from_fraction(q), -1))):
        check_normal(got)
        assert (got.num, got.den) == (want.num, want.den)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_inverse_matches_the_oracle(data):
    n = data.draw(st.sampled_from(NS), label="n")
    F = field_for(n)
    # the norm has about d times the bits of the vector: keep d = 40 small
    x = data.draw(elements(F, max_bits=1500 if F.degree <= 16 else 64), label="x")
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    got, want = x.inverse(), oracle_inverse(x)
    check_normal(got)
    assert (got.num, got.den) == (want.num, want.den)


def _outcome(fn):
    try:
        return fn()
    except PrecisionExhausted:
        return PrecisionExhausted


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_order_matches_the_oracle(data):
    n = data.draw(st.sampled_from(NS), label="n")
    F = field_for(n)
    x = data.draw(elements(F), label="x")
    y = near(F, x, data.draw) if data.draw(st.booleans(), label="near") else \
        data.draw(elements(F), label="y")
    want = _outcome(lambda: oracle_add(x, y, -1).sign())
    for op, holds in (("__lt__", lambda s: s < 0), ("__le__", lambda s: s <= 0),
                      ("__gt__", lambda s: s > 0), ("__ge__", lambda s: s >= 0)):
        got = _outcome(lambda: getattr(x, op)(y))
        assert got == (want if want is PrecisionExhausted else holds(want)), op
    q = Fraction(-7, 3)
    assert (x < q) == (oracle_add(x, F.from_fraction(q), -1).sign() < 0)


# -- same exact decisions -------------------------------------------------------

def _clear_caches():
    for mod in (field_module, dynamics, group, planar, dioph, verify, quadratic_module):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _run_recorded(case, monkeypatch, oracle):
    """Run case() from cold caches and record (start bits, last p tried)
    for each _refine run, with the oracle ring operations patched in when
    oracle is true.  Returns the record and the lambda brackets the field
    keeps afterwards, one per precision asked for."""
    runs = []
    refine = field_module._refine

    def recorded(decide, start_bits, message):
        entry = [start_bits, None]
        runs.append(entry)

        def tracked(p):
            entry[1] = p
            return decide(p)

        return refine(tracked, start_bits, message)

    with monkeypatch.context() as m:
        m.setattr(field_module, "_refine", recorded)
        m.setattr(quadratic_module, "_refine", recorded)
        m.setattr(dynamics, "_refine", recorded)
        if oracle:
            m.setattr(NumberField, "_mul", lambda self, a, b: tuple(loop_mul(self, a, b)))
            m.setattr(NumberField, "_conjugations", loop_conjugations)
            for name, method in ORACLE_METHODS.items():
                m.setattr(FieldElement, name, method)
        _clear_caches()
        try:
            field = case()
        finally:
            _clear_caches()
    return runs, {p: (e.lo_num, e.hi_num, e.den)
                  for p, e in field._lambda_bracket._kept.items()}


def _expand_n13():
    F = NumberField(13)
    x = F.element([Fraction(-(3 ** 150), 2 ** 240), Fraction(5 ** 100, 2 ** 256)])
    dioph.expand(F, x, 300)
    return F


def _verify_n8():
    assert verify.verify_one(8)["ok"]
    return field_module.build_field(8)


@pytest.mark.parametrize("case", [_expand_n13, _verify_n8], ids=["expand-n13", "verify-n8"])
def test_kernel_makes_the_same_exact_decisions(case, monkeypatch):
    oracle_runs, oracle_brackets = _run_recorded(case, monkeypatch, oracle=True)
    kernel_runs, kernel_brackets = _run_recorded(case, monkeypatch, oracle=False)
    assert kernel_runs == oracle_runs
    assert kernel_brackets == oracle_brackets
    if case is _expand_n13:
        # the case reaches the exact lane, or it would test nothing
        assert oracle_runs


@pytest.mark.parametrize("n", (8, 16, 60))
def test_identity_suite_inverts_each_value_once(n, monkeypatch):
    # verify_one made 152 (n=8), 280 (n=16) and 984 (n=60) norm products
    # for 63, 111 and 375 distinct values, most of them in Mobius.apply,
    # which divides by c x + d; the field's table of inverses makes one
    # per value.  Reading alpha off the eps orbit and the heights off the
    # -tau orbit, whose points g_step has inverted, leaves 49, 81 and 257
    products, values = 0, set()
    conjugates = field_module._conjugate_vectors
    inverse = FieldElement.inverse

    def counted(field, a):
        nonlocal products
        products += 1
        return conjugates(field, a)

    def recorded(self):
        if not self.is_rational():
            values.add((self.num, self.den))
        return inverse(self)

    with monkeypatch.context() as m:
        m.setattr(field_module, "_conjugate_vectors", counted)
        m.setattr(FieldElement, "inverse", recorded)
        _clear_caches()
        try:
            assert verify.verify_one(n)["ok"]
        finally:
            _clear_caches()
    assert 0 < products <= len(values)
    assert products <= {8: 49, 16: 81, 60: 257}[n]

