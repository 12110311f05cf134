"""Streamed sample points are the eagerly drawn ones, element for element.

The references below are the general-constructor sampler: ``random_element``
building ``FieldElement(terms)`` from exponents drawn as ``Fraction``s, and
``sample_points`` building every structured point and the whole list before
returning it.  The streamed sampler must draw from the rng exactly as they do
and give the same points, in the same order, with the same term types.
"""

import random
from fractions import Fraction
from itertools import islice

import pytest

from rcvf.parser import parse_expression
from rcvf.sampling import SampleConfig, _rng, random_element
from rcvf.series import FieldElement
from rcvf.sets import AffineModuleMap, SetDescriptor

F = Fraction
EPS = FieldElement.eps_power(1)


def reference_rational(rng, bound, nonzero=False):
    while True:
        q = F(rng.randint(-bound, bound), rng.randint(1, bound))
        if q != 0 or not nonzero:
            return q


def reference_exponent(rng, low, high):
    den = rng.choice((1, 1, 2))
    lo, hi = int(low * den), int(high * den)
    return F(rng.randint(lo, max(lo, hi)), den)


def reference_element(rng, min_valuation=F(0)):
    kind = rng.randrange(8)
    if kind == 0:
        body = FieldElement.from_rational(reference_rational(rng, 12))
    elif kind in (1, 2, 3):
        terms = [(F(0), reference_rational(rng, 12, nonzero=True))]
        for _ in range(rng.randrange(3)):
            terms.append((reference_exponent(rng, F(1, 2), F(4)), reference_rational(rng, 12, nonzero=True)))
        body = FieldElement(terms)
    elif kind == 4:
        lead = reference_exponent(rng, F(1, 2), F(4))
        terms = [(lead, reference_rational(rng, 12, nonzero=True))]
        for _ in range(rng.randrange(2)):
            terms.append((lead + reference_exponent(rng, F(1, 2), F(2)), reference_rational(rng, 12, nonzero=True)))
        body = FieldElement(terms)
    else:
        terms = []
        for _ in range(rng.randrange(1, 4)):
            terms.append((reference_exponent(rng, F(0), F(4)), reference_rational(rng, 12, nonzero=True)))
        body = FieldElement(terms)
    if min_valuation == 0:
        return body
    return body * FieldElement.eps_power(min_valuation)


def reference_sample_points(sd, config, count=None):
    want = config.samples if count is None else count
    structured = list(sd.structured_points())
    out = [pt for pt in structured[:min(len(structured), int(want * F(1, 4)))] if sd._admissible(pt)]
    index = 0
    while len(out) < want and index < 20 * want + 100:
        rng = _rng(config.seed, index)
        index += 1
        pt = sd._from_ball([reference_element(rng) for _ in range(sd.n)])
        if sd._admissible(pt):
            out.append(pt)
    return out[:want]


def assert_same_element(x, y):
    assert (x.terms, x.precision) == (y.terms, y.precision)
    for (e, c), (f, d) in zip(x.terms, y.terms):
        assert type(e) is type(f) is Fraction and type(c) is type(d) is Fraction


def assert_same_points(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_element(x, y)


AFFINE = SetDescriptor.affine_module(AffineModuleMap(
    (FieldElement.from_rational(F(1, 2)) + EPS, FieldElement.from_rational(-3)),
    (FieldElement.eps_power(1, 2), FieldElement.eps_power(F(1, 2), -1))))
# Rejects some corners, grid points and random draws; its sign tests refuse none.
STRICT = SetDescriptor.unit_polydisc(2, strict_constraints=[parse_expression("x1 - x2^2 + 1/4")])
# Rejects the images whose second coordinate is at most -3, about half of them.
STRICT_AFFINE = SetDescriptor.affine_module(AFFINE.module_map, strict_constraints=[parse_expression("x2 + 3")])
SETS = {"ball:1": SetDescriptor.unit_polydisc(1), "ball:2": SetDescriptor.unit_polydisc(2),
        "ball:3": SetDescriptor.unit_polydisc(3), "affine": AFFINE, "strict": STRICT,
        "strict_affine": STRICT_AFFINE}


@pytest.mark.parametrize("name", sorted(SETS))
@pytest.mark.parametrize("seed", [1, 7, 9001])
def test_stream_matches_the_eager_sampler(name, seed):
    sd = SETS[name]
    config = SampleConfig(seed=seed, samples=30)
    for count in (None, 0, 1, 5, 17, 120):
        want = reference_sample_points(sd, config, count)
        assert_same_points(list(sd.stream_points(config, count)), want)
        assert_same_points(sd.sample_points(config, count), want)
        # A consumer that stops early sees the same prefix.
        assert_same_points(list(islice(sd.stream_points(config, count), 7)), want[:7])


def test_strict_set_rejects_some_draws():
    config = SampleConfig(seed=1, samples=120)
    assert len(STRICT.sample_points(config)) == 120
    structured = list(islice(STRICT.structured_points(), 30))
    assert sum(map(STRICT._admissible, structured)) < 30


def test_each_candidate_is_mapped_once(monkeypatch):
    calls = []
    apply = AffineModuleMap.apply
    monkeypatch.setattr(AffineModuleMap, "apply", lambda mm, y: calls.append(1) or apply(mm, y))

    def count_maps(points):
        calls.clear()
        n = sum(1 for _ in points)
        return n, len(calls)

    def refuse(_):
        raise AssertionError("a form built for a mapped point")

    monkeypatch.setattr("rcvf.sets.point_form", refuse)
    config = SampleConfig(seed=1, samples=60)
    # Without strict constraints only yielded points are mapped, and mapped points need no form.
    assert count_maps(AFFINE.stream_points(config)) == (60, 60)
    assert count_maps(AFFINE.stream_forms(config)) == (60, 60)
    # With them, every candidate is mapped once, for the test, and its image reused.
    n, candidates = count_maps(STRICT_AFFINE.stream_points(config))
    assert n == 60 and candidates > 60
    assert count_maps(STRICT_AFFINE.stream_forms(config)) == (60, candidates)
    monkeypatch.undo()
    monkeypatch.setattr(AffineModuleMap, "apply", lambda mm, y: calls.append(1) or apply(mm, y))
    assert count_maps(AFFINE.stream_forms(config, on_polydisc=True)) == (60, 0)
    assert count_maps(STRICT_AFFINE.stream_forms(config, on_polydisc=True)) == (60, candidates)


def test_random_element_form_only_at_valuation_zero():
    x, form = random_element(random.Random(3), F(0), form=True)
    assert form is None or form[0] >= 0
    with pytest.raises(ValueError):
        random_element(random.Random(3), F(1, 2), form=True)


@pytest.mark.parametrize("min_valuation", [F(0), F(2), F(1, 2), F(-2)])
def test_random_element_draws_as_the_general_constructor(min_valuation):
    kinds = set()
    for seed in range(2000):
        rng, ref = random.Random(seed), random.Random(seed)
        x = random_element(rng, min_valuation)
        assert_same_element(x, reference_element(ref, min_valuation))
        assert rng.getstate() == ref.getstate()
        kinds.add((len(x.terms), x.terms[0][0] if x.terms else None))
    # Exact zeros, constants, units and positive valuations all occur.
    assert (0, None) in kinds and len(kinds) > 20
