"""A small exact polynomial algebra for building benchmark inputs.

Inputs and their known answers are constructed here, independently of
``rcvf``, so that a change to the library cannot change what a workload
feeds it.  A polynomial is a dict mapping ``(eps_exponent, monomial)`` to a
nonzero ``Fraction`` coefficient, where ``eps_exponent`` is a ``Fraction``
and ``monomial`` a tuple of non-negative integer exponents, one per
variable ``x1..xn``.
"""

from __future__ import annotations

from fractions import Fraction


def poly(n: int, terms=()) -> dict:
    """A polynomial in n variables from ``(eps_exp, monomial, coeff)`` triples."""
    out: dict = {}
    for e, mono, c in terms:
        if len(mono) != n:
            raise ValueError("monomial arity mismatch")
        _acc(out, (Fraction(e), tuple(mono)), Fraction(c))
    return out


def const(n: int, c, e=0) -> dict:
    return poly(n, [(e, (0,) * n, c)])


def var(n: int, i: int) -> dict:
    mono = [0] * n
    mono[i] = 1
    return poly(n, [(0, tuple(mono), 1)])


def _acc(out: dict, key, c: Fraction) -> None:
    v = out.get(key, 0) + c
    if v:
        out[key] = v
    else:
        out.pop(key, None)


def add(*ps: dict) -> dict:
    out: dict = {}
    for p in ps:
        for k, c in p.items():
            _acc(out, k, c)
    return out


def scale(p: dict, c, e=0) -> dict:
    """c * eps^e * p."""
    c, e = Fraction(c), Fraction(e)
    if c == 0:
        return {}
    return {(pe + e, mono): pc * c for (pe, mono), pc in p.items()}


def sub(a: dict, b: dict) -> dict:
    return add(a, scale(b, -1))


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (ea, ma), ca in a.items():
        for (eb, mb), cb in b.items():
            _acc(out, (ea + eb, tuple(x + y for x, y in zip(ma, mb))), ca * cb)
    return out


def square(p: dict) -> dict:
    return mul(p, p)


def substitute(p: dict, images: list) -> dict:
    """p(images[0], ..., images[n-1]) for polynomial images."""
    n = len(images)
    out: dict = {}
    for (e, mono), c in p.items():
        term = const(n, c, e)
        for img, k in zip(images, mono):
            for _ in range(k):
                term = mul(term, img)
        out = add(out, term)
    return out


def gauss(p: dict) -> Fraction:
    """Gauss valuation: the least eps exponent among the terms (p nonzero)."""
    return min(e for e, _ in p)


def _rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _factors(e: Fraction, mono: tuple, names) -> list:
    out = []
    if e:
        out.append("eps" if e == 1 else f"eps^{e.numerator}" if e.denominator == 1
                   else f"eps^({e.numerator}/{e.denominator})")
    for name, k in zip(names, mono):
        if k:
            out.append(name if k == 1 else f"{name}^{k}")
    return out


def render(p: dict, n: int | None = None) -> str:
    """Text in the rcvf expression grammar, over variables x1..xn."""
    if not p:
        return "0"
    n = n if n is not None else len(next(iter(p))[1])
    names = [f"x{i + 1}" for i in range(n)]
    parts = []
    for (e, mono), c in sorted(p.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        factors = _factors(e, mono, names)
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, _rational(mag))
        text = "*".join(factors)
        if not parts:
            parts.append(text if c > 0 else f"-{text}")
        else:
            parts.append(f" + {text}" if c > 0 else f" - {text}")
    return "".join(parts)
