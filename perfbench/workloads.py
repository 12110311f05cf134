"""The three benchmark workloads: seeded inputs, the timed call, known answers.

Each workload is a closed loop of operations drawn from a fixed list that
set-up builds from the seed (and cycles through, should a run outlast it).
The list is made of blocks; every block holds the same number of operations
of each category in a seeded order, so the mix of any run that ends on a
block boundary is the same for every seed.

An operation is decided when it ends in a definite verdict: a certificate or
a negativity witness for ``cert find``, any Gauss verdict for ``integral``,
and any answer but a refusal (``PrecisionExhausted``) for ``verify`` and
``scalar``.

An operation's ``execute`` is the only part that is timed.  ``check``
compares its output with the answer known from how the input was built and
runs outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import polyalg as pa

# Sample budget passed to every randomized CLI call of the certify workload.
CERTIFY_SAMPLES = 120


@dataclass
class Op:
    category: str
    args: tuple = ()
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    text: str            # canonical output: CLI stdout or format_element text
    code: int = 0        # CLI exit code; 0 for library calls
    error: str = ""      # exception raised by the call, if any
    value: object = None  # library result kept for the exact checks


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(repr((seed,) + salt))


def _q(rng: random.Random, bound: int, nonzero: bool = True) -> Fraction:
    while True:
        q = Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
        if q or not nonzero:
            return q


def _int(rng: random.Random, bound: int) -> int:
    """A nonzero integer in [-bound, bound]."""
    return rng.choice((-1, 1)) * rng.randint(1, bound)


def _blocks(seed: int, slots: list, count: int, make) -> list:
    """count blocks; each holds one op per slot, in a seeded order."""
    ops = []
    for b in range(count):
        rng = _rng(seed, "block", b)
        block = [make(rng, slot) for slot in slots]
        rng.shuffle(block)
        ops.extend(block)
    return ops


def run_cli(cli, argv) -> Outcome:
    """One in-process CLI call; an escaping exception is a failed operation."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run(list(argv))
    except Exception as exc:
        return Outcome(buf.getvalue(), 2, error=f"{type(exc).__name__}: {exc}")
    return Outcome(buf.getvalue(), code)


# -- certify: the search path (cert find and integral through rcvf.cli.run) ------

AFFINE_SET = {"kind": "affine", "centers": ["1", "0"], "scales": ["eps", "1"]}
# Points among the first structured sample points of the unit polydisc in two
# variables (corners and rational points); at CERTIFY_SAMPLES samples the
# falsifier always tries them, so a polynomial negative only at one of them
# is still falsified deterministically.
STRUCTURED = [(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0), (Fraction(1, 2), Fraction(1, 2)),
              (1, Fraction(1, 2)), (Fraction(-1, 2), 1), (2, 2)]

# The seed draws coefficients within fixed shapes, so that a run's cost
# depends little on it.  Integral slots also fix the sign of the Gauss gap,
# because a negative gap lets the pointwise oracle stop at its first sample.
# Per block of 17: six cheap operations (five falsified at once and one
# integrality check with a negative gap), four more integrality checks and
# seven searches.  Sorted by cost, the median is the ninth, one of the two
# int_ball checks, and p90 falls among the three SOS searches; quantiles
# inside one kind vary less across seeds.
CERTIFY_SLOTS = (["int_ball"] * 2 + ["int_ball_neg", "int_ball1", "int_affine"]
                 + ["nonneg_sos"] * 3 + ["nonneg_unit", "nonneg_unit2", "nonneg_affine"]
                 + ["neg_residue"] * 2 + ["neg_eps"] * 2 + ["neg_affine", "motzkin"])
# (monomial, valuation of its coefficient) of the integral polynomials.
MONOMIALS = {1: [((3,), Fraction(1, 2)), ((1,), 1), ((0,), 0)],
             2: [((2, 1), Fraction(1, 2)), ((1, 1), 1), ((0, 2), 0), ((1, 0), Fraction(1, 2)), ((0, 0), 0)]}


def _x(i, n=2):
    return pa.var(n, i)


def _integral_poly(rng, n):
    """Random coefficients on MONOMIALS[n]; Gauss valuation 0."""
    return pa.poly(n, [(e, mono, _q(rng, 4)) for mono, e in MONOMIALS[n]])


def _unit_sos(rng, n):
    """1 + a*x1^2 (+ b*x2^2): its residue never vanishes on the polydisc."""
    w = pa.const(n, 1)
    for i in range(n):
        w = pa.add(w, pa.scale(pa.square(_x(i, n)), rng.randint(1, 3)))
    return w


def _certify_op(rng, slot) -> Op:
    s = CERTIFY_SAMPLES
    if slot.startswith("int_"):
        n = 1 if slot == "int_ball1" else 2
        while True:
            a, b = (0, rng.choice((Fraction(1, 2), 1))) if slot == "int_ball_neg" \
                else (rng.choice((1, 2)), rng.choice((0, 1)))
            num = pa.scale(_integral_poly(rng, n), 1, a)
            den = pa.scale(_unit_sos(rng, n), rng.randint(1, 4), b)
            if slot == "int_affine":
                pull = [pa.add(pa.const(2, 1), pa.scale(_x(0), 1, 1)), _x(1)]
                gap = pa.gauss(pa.substitute(num, pull)) - pa.gauss(pa.substitute(den, pull))
            else:
                gap = pa.gauss(num) - pa.gauss(den)
            if (gap < 0) == (slot == "int_ball_neg"):
                break
        where = "affine" if slot == "int_affine" else f"ball:{n}"
        h = f"({pa.render(num, n)})/({pa.render(den, n)})"
        return Op(slot, ("integral", "--h", h, "--set", where, "--seed", "0", "--samples", str(s)),
                  {"gap": gap})
    if slot == "motzkin":
        s1, s2 = rng.randint(1, 2), rng.randint(1, 2)
        p = pa.poly(2, [(0, (4, 2), s1**4 * s2**2), (0, (2, 4), s1**2 * s2**4),
                        (0, (2, 2), -3 * s1**2 * s2**2), (0, (0, 0), 1)])
        p = pa.add(p, pa.scale(pa.add(pa.square(_x(0)), pa.square(_x(1))), rng.randint(1, 3), 1))
        return Op(slot, ("cert", "find", "--p", pa.render(p, 2), "--set", "ball:2", "--seed", "0",
                         "--samples", str(s)), {"nonneg": True})
    if slot == "nonneg_sos":
        # Integer coefficients keep the LDL pivots small; rational ones can make
        # the four-squares step factor 30-digit integers (tens of seconds).
        lin = [pa.add(pa.scale(_x(0), _int(rng, 2)), pa.scale(_x(1), _int(rng, 2)), pa.const(2, _int(rng, 2)))
               for _ in range(2)]
        p = pa.add(pa.square(lin[0]),
                   pa.square(pa.add(pa.scale(pa.mul(_x(0), _x(1)), _int(rng, 2)), pa.const(2, _int(rng, 2)))),
                   pa.square(pa.add(pa.square(_x(0)), pa.scale(_x(1), _int(rng, 2)))),
                   pa.scale(pa.square(lin[1]), 1, 1),
                   # A positive-definite diagonal keeps the Gram matrix interior.
                   pa.scale(pa.poly(2, [(0, m, 1) for m in ((0, 0), (2, 0), (0, 2), (4, 0), (2, 2))]),
                            rng.randint(1, 2)))
        return Op(slot, ("cert", "find", "--p", pa.render(p, 2), "--set", "ball:2", "--seed", "0",
                         "--samples", str(s)), {"nonneg": True})
    if slot in ("nonneg_unit", "nonneg_unit2", "nonneg_affine"):
        # c^2 - eps*q with c = 1 + a*x^2.  For a = 2 (nonneg_unit2) the SOS
        # search misses 4*x^2 + 4*x^4 when building the witness, so generation
        # ends at a candidate: a known gap, kept visible in decided_share.
        n = 2
        c = pa.add(pa.const(n, 1), pa.scale(pa.square(_x(1 if slot == "nonneg_affine" else 0)),
                                            2 if slot == "nonneg_unit2" else 1))
        q = _integral_poly(rng, n)
        p = pa.sub(pa.square(c), pa.scale(q, 1, 1))
        where = "affine" if slot == "nonneg_affine" else "ball:2"
        return Op(slot, ("cert", "find", "--p", pa.render(p, 2), "--set", where, "--seed", "0",
                         "--samples", str(s)), {"nonneg": True})
    # Negative at a known point of the set: b itself on the polydisc, or
    # (1, b2) on the affine set, where the value is -eps^k.
    b = rng.choice(STRUCTURED)
    if slot == "neg_residue":
        b = (_q(rng, 2, nonzero=False), _q(rng, 2, nonzero=False))
    shift = [pa.sub(_x(i), pa.const(2, b[i])) for i in range(2)]
    if slot == "neg_affine":
        p = pa.sub(pa.scale(pa.square(shift[1]), rng.randint(1, 3)), pa.const(2, 1, rng.randint(1, 2)))
        where = "affine"
    else:
        depth = pa.const(2, Fraction(rng.randint(1, 4), 2)) if slot == "neg_residue" \
            else pa.const(2, 1, rng.randint(1, 3))
        p = pa.sub(pa.add(pa.square(shift[0]), pa.scale(pa.square(shift[1]), rng.randint(1, 3))), depth)
        where = "ball:2"
    return Op(slot, ("cert", "find", "--p", pa.render(p, 2), "--set", where, "--seed", "0",
                     "--samples", str(s)), {"nonneg": False})


# -- verify: the checking path (cert verify on files written at set-up) ----------

# (family, mutated field): every block verifies one valid certificate of the
# family per slot and one copy of it with that field changed, which cert
# verify must reject (exit 1).  Twelve of the 18 operations are of the
# cheaper sos family, so the median latency falls among its valid
# certificates, and p90 among the unit-family certificates that run the
# whole check (the valid ones and the witness.den.m mutant), the slowest kind.
VERIFY_SLOTS = [("sos", "p"), ("sos", "r"), ("sos", "m"), ("sos", "h.num"), ("sos", "p"), ("sos", "r"),
                ("unit", "p"), ("unit", "m"), ("unit", "witness.den.m")]


def _shaped_poly(rng, shape, n=2):
    """Random nonzero rational coefficients on fixed (eps exponent, monomial) terms."""
    return pa.poly(n, [(e, mono, _q(rng, 5)) for e, mono in shape])


# Fixed term shapes, so that the size of every product is the same for every seed.
R_SHAPES = [[(0, (0, 0)), (1, (1, 0)), (0, (0, 1)), (2, (2, 0)), (0, (1, 1)), (1, (0, 2)), (0, (2, 1))],
            [(1, (0, 0)), (0, (1, 0)), (2, (0, 1)), (0, (1, 1)), (0, (0, 3)), (1, (3, 0)), (0, (1, 2))],
            [(0, (0, 0)), (0, (2, 0)), (1, (0, 2)), (2, (1, 1)), (0, (2, 1)), (1, (1, 2)), (0, (3, 0))]]
T_SHAPES = [[(0, (1, 0)), (0, (0, 2))], [(0, (0, 1)), (0, (1, 1))]]
Q_SHAPE = [(0, (2, 0)), (0, (0, 1)), (0, (0, 0))]


def _ring_tree(q, n):
    """A ring expression over the coordinate generators that denotes q."""
    args = []
    for (e, mono), c in sorted(q.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        factors = [{"op": "const", "value": pa.render(pa.const(n, c, e), n)}]
        for i, k in enumerate(mono):
            factors += [{"op": "gen", "index": i}] * k
        args.append({"op": "prod", "args": factors})
    return {"op": "sum", "args": args}


def _sos_certificate(rng, n=2) -> dict:
    """p = sum r_i^2 exactly, with m = 0 and the trivial witness."""
    r = [_shaped_poly(rng, shape) for shape in R_SHAPES]
    p = pa.add(*(pa.square(t) for t in r))
    zero = {"op": "const", "value": "0"}
    return {"p": pa.render(p, n), "set": {"kind": "ball", "n": n}, "r": [pa.render(t, n) for t in r],
            "m": "0", "h": {"num": "0", "den": "1"},
            "witness": {"num": zero, "den": {"m": "0", "a": zero}, "monic": None}}


def _unit_certificate(rng, n=2) -> dict:
    """p = c^2 - m*q with c = 1 + sum t_j^2, r = [c], h = q/p.

    With S = c^2 - 1 = sum (t_j^2 + t_j^2) + (sum t_j^2)^2, the witness is
    h = [q * inv(1+S)] / (1 - m * [q * inv(1+S)]): the denominator denotes
    p/(1+S), a perturbed unit since m is infinitesimal.
    """
    t = [_shaped_poly(rng, shape) for shape in T_SHAPES]
    tsq = pa.add(*(pa.square(x) for x in t))
    c = pa.add(pa.const(n, 1), tsq)
    k = 1
    q = _shaped_poly(rng, Q_SHAPE)
    p = pa.sub(pa.square(c), pa.scale(q, 1, k))
    s_summands = [{"num": pa.render(x, n), "den": "1"} for x in t + t + [tsq]]
    leaf = {"op": "prod", "args": [_ring_tree(q, n), {"op": "iord", "summands": s_summands}]}
    return {"p": pa.render(p, n), "set": {"kind": "ball", "n": n}, "r": [pa.render(c, n)],
            "m": pa.render(pa.const(n, 1, k), n), "h": {"num": pa.render(q, n), "den": pa.render(p, n)},
            "witness": {"num": leaf, "den": {"m": pa.render(pa.const(n, -1, k), n), "a": leaf},
                        "monic": None}}


def _mutate(cert: dict, field_name: str, n=2) -> dict:
    """A copy of cert with one field changed so that it no longer verifies."""
    out = json.loads(json.dumps(cert))
    bump = " + " + pa.render(pa.poly(n, [(0, (1,) + (0,) * (n - 1), 1)]), n)
    if field_name == "p":
        out["p"] = out["p"] + bump
    elif field_name == "r":
        out["r"][0] = out["r"][0] + bump
    elif field_name == "h.num":
        out["h"]["num"] = out["h"]["num"] + bump
    elif field_name == "m":
        out["m"] = "1" if out["m"] == "0" else "-1*" + out["m"]
    elif field_name == "witness.den.m":
        out["witness"]["den"]["m"] = out["m"]
    return out


def _verify_certificates(seed: int, blocks: int) -> list:
    """(category, certificate JSON, must_verify) per op, block-stratified."""
    def make(rng, slot):
        family, field_name = slot
        cert = _sos_certificate(rng) if family == "sos" else _unit_certificate(rng)
        return [(family, cert, True), (f"{family}_mutant", _mutate(cert, field_name), False)]
    return [item for pair in _blocks(seed, VERIFY_SLOTS, blocks, make) for item in pair]


# -- scalar: library use of the series field ---------------------------------------

H = Fraction(1, 2)
# (query, exponent pattern).  The seed draws coefficients, not shapes: the
# cost of the invert and sqrt series loops depends on the exponents, so fixed
# patterns keep a run's cost independent of the seed.  invert takes
# 1 + sum s_i^2 (the SOS units of acceptance criterion 2), one exponent tuple
# per s_i; sqrt takes c^2*eps^(2e) times 1 + terms at the given relative
# exponents.
SCALAR_SLOTS = [("invert", ((-1, 1), (0, 2))), ("invert", ((0, 1), (2,))), ("invert", ((-2, 0, 3),)),
                ("invert", ((-H, H), (1,))), ("invert", ((0, 3 * H), (H, 2))),
                ("sqrt", (1, 3)), ("sqrt", (2, 3)), ("sqrt", (H, 3 * H)),
                ("compare", None), ("compare_refuse", None), ("valuation", None),
                ("valuation_refuse", None), ("residue", None)]


def _series(rng, exponents) -> dict:
    """Exact series terms at the given exponents with random coefficients."""
    return pa.poly(0, [(e, (), _q(rng, 9)) for e in exponents])


def _scalar_inputs(rng, slot) -> tuple:
    """(operands as series dicts, precision of the first operand, expected answer)."""
    kind, pattern = slot
    if kind == "invert":
        return (pa.add(pa.const(0, 1), *(pa.square(_series(rng, es)) for es in pattern)),), None, None
    if kind == "sqrt":
        e0 = rng.randint(-2, 3)
        lead = pa.const(0, Fraction(rng.randint(1, 9), rng.randint(1, 5)) ** 2, 2 * e0)
        return (pa.add(lead, _series(rng, [2 * e0 + g for g in pattern])),), None, None
    if kind == "residue":
        a = _series(rng, (0, 1, 3, 5))
        b = _series(rng, (0, H, 2))
        return (a, b), None, a[(0, ())] * b[(0, ())]
    prec = Fraction(rng.randint(8, 16))
    base = _series(rng, sorted(rng.sample([Fraction(k, 2) for k in range(-4, 2 * int(prec))], 5)))
    # a = base + O(eps^prec) and b = base + d*eps^j: visible below prec, refused beyond.
    d = _q(rng, 9)
    j = prec + rng.randint(0, 4) if kind.endswith("refuse") else Fraction(rng.randint(-2, int(prec) - 1))
    a = base
    b = pa.add(base, pa.const(0, d, j))
    if kind.endswith("refuse"):
        return (a, b), prec, "refused"
    if kind == "compare":
        return (a, b), prec, "LT" if d > 0 else "GT"
    return (a, b), prec, str(j)


# -- the workloads -------------------------------------------------------------------


class Certify:
    """cert find and integral on ball:1, ball:2 and an affine-module set file."""

    blocks = 24
    block = len(CERTIFY_SLOTS)

    def __init__(self, seed: int, workdir: str):
        from rcvf import cli
        self.cli = cli
        path = os.path.join(workdir, "affine.json")
        with open(path, "w") as fh:
            json.dump(AFFINE_SET, fh)
        spec = f"affine:{path}"
        self.ops = _blocks(seed, CERTIFY_SLOTS, self.blocks, _certify_op)
        for op in self.ops:
            op.args = tuple(spec if a == "affine" else a for a in op.args)

    def execute(self, op: Op) -> Outcome:
        return run_cli(self.cli, op.args)

    def check(self, op: Op, out: Outcome):
        """(wrong-answer message or None, decided)."""
        from rcvf import jsonio
        from rcvf.certificates import verify_nonneg_certificate
        from rcvf.parser import parse_expression
        from rcvf.series import LT, FieldElement, compare_order
        from rcvf.sets import SetDescriptor, align_to_set

        res = _cli_payload(out)
        if isinstance(res, str):
            return res, False
        where = op.args[op.args.index("--set") + 1]
        sd = (jsonio.set_from_json(AFFINE_SET) if where.startswith("affine:")
              else SetDescriptor.unit_polydisc(int(where.split(":")[1])))

        def on_set_point(texts):
            pt = [parse_expression(t) for t in texts]
            if len(pt) != sd.n or not all(isinstance(x, FieldElement) for x in pt) or not sd.contains(pt):
                return None
            return pt

        if op.category.startswith("int_"):
            gap = op.expect["gap"]
            gauss, pw = res["gauss"], res["pointwise"]
            if gauss["gap"] != str(gap) or gauss["integral"] != (gap >= 0):
                return f"gauss verdict {gauss} != constructed gap {gap}", True
            cex = pw["verdict"] == "counterexample_found"
            if cex:
                h = align_to_set(parse_expression(op.args[2]), sd)
                pt = on_set_point(pw["point"])
                if pt is None:
                    return "pointwise counterexample is not a point of the set", True
                v = h.num.evaluate(pt).valuation() - h.den.evaluate(pt).valuation()
                if not v < 0 or str(v) != pw["value_valuation"]:
                    return f"pointwise counterexample has valuation {v}", True
            if out.code != (1 if gap < 0 or cex else 0):
                return f"exit code {out.code}", True
            return None, True
        kind = res["outcome"]
        p = align_to_set(parse_expression(op.args[3]), sd)
        if kind == "certificate":
            if not op.expect["nonneg"]:
                return "certificate for a polynomial negative at a known point", True
            cp, csd, cert = jsonio.certificate_from_json(res["certificate"])
            if not (csd == sd and align_to_set(cp, sd) == p):
                return "certificate is for another polynomial or set", True
            result = verify_nonneg_certificate(cp, cert, csd)
            if not result.ok:
                return f"certificate fails verification: {result.reason}", True
            return (None, True) if out.code == 0 else (f"exit code {out.code}", True)
        if kind == "negativity_witness":
            if op.expect["nonneg"]:
                return "negativity witness for a non-negative polynomial", True
            pt = on_set_point(res["witness"]["point"])
            if pt is None or compare_order(p.evaluate(pt), FieldElement.zero()) != LT:
                return "witness point is off the set or p(b) >= 0", True
            return (None, True) if out.code == 1 else (f"exit code {out.code}", True)
        return (None, False) if out.code == 0 else (f"exit code {out.code}", False)


class Verify:
    """cert verify on certificate files built by construction at set-up."""

    blocks = 24
    block = 2 * len(VERIFY_SLOTS)

    def __init__(self, seed: int, workdir: str):
        from rcvf import cli
        self.cli = cli
        self.ops = []
        for i, (category, cert, valid) in enumerate(_verify_certificates(seed, self.blocks)):
            path = os.path.join(workdir, f"cert{i:04d}.json")
            with open(path, "w") as fh:
                json.dump(cert, fh, sort_keys=True)
            self.ops.append(Op(category, ("cert", "verify", path), {"valid": valid}))

    def execute(self, op: Op) -> Outcome:
        return run_cli(self.cli, op.args)

    def check(self, op: Op, out: Outcome):
        res = _cli_payload(out)
        if isinstance(res, str):
            return res, False
        valid = op.expect["valid"]
        if res.get("verified") is not valid or out.code != (0 if valid else 1):
            return f"verified={res.get('verified')} exit {out.code}; expected valid={valid}", True
        return None, True


class Scalar:
    """invert, sqrt, compare_order, valuation and residue from rcvf.series."""

    blocks = 160
    block = len(SCALAR_SLOTS)

    def __init__(self, seed: int, workdir: str):
        from rcvf import series
        from rcvf.errors import PrecisionExhausted
        self.series = series
        self.refusal = PrecisionExhausted

        def make(rng, slot):
            operands, prec, expect = _scalar_inputs(rng, slot)
            elems = [series.FieldElement([(e, c) for (e, _), c in x.items()], prec if i == 0 else None)
                     for i, x in enumerate(operands)]
            return Op(slot[0], tuple(elems), {"answer": expect})

        self.ops = _blocks(seed, SCALAR_SLOTS, self.blocks, make)

    def execute(self, op: Op) -> Outcome:
        s = self.series
        try:
            if op.category.startswith("invert"):
                r = s.invert(op.args[0])
            elif op.category.startswith("sqrt"):
                r = s.sqrt(op.args[0])
            elif op.category.startswith("compare"):
                return Outcome(s.compare_order(*op.args))
            elif op.category.startswith("valuation"):
                return Outcome(str(s.valuation(op.args[0] - op.args[1])))
            else:
                return Outcome(str(s.residue(op.args[0] * op.args[1])))
        except self.refusal:
            return Outcome("refused")
        except Exception as exc:  # a failed operation is counted, not fatal
            return Outcome("", error=f"{type(exc).__name__}: {exc}")
        tail = "" if r.precision is None else f" + O(eps^{r.precision})"
        return Outcome(s.format_element(r) + tail, value=r)

    def check(self, op: Op, out: Outcome):
        if out.error:
            return out.error, False
        s = self.series
        expect = op.expect["answer"]
        if out.value is None:
            if out.text != ("refused" if expect == "refused" else str(expect)):
                return f"answer {out.text!r}, expected {expect!r}", out.text != "refused"
            return None, out.text != "refused"
        # (1+r)*inv == 1 or sqrt(y)^2 == y in every term below the working
        # order, multiplied out here with plain Fractions rather than by rcvf.
        y, r = op.args[0], out.value
        invert = op.category == "invert"
        if not r.terms or (not invert and r.terms[0][1] <= 0):
            return "result is zero or negative", True
        left = y.terms if invert else r.terms
        floor = s.default_truncation() + (0 if invert else y.terms[0][0])
        if r.precision is not None and r.precision + left[0][0] < floor:
            return f"result precision {r.precision} is below the working order", True
        back = {}
        for e1, c1 in left:
            for e2, c2 in r.terms:
                if e1 + e2 < floor:
                    back[e1 + e2] = back.get(e1 + e2, 0) + c1 * c2
        target = {0: 1} if invert else {e: c for e, c in y.terms if e < floor}
        if {e: c for e, c in back.items() if c} != target:
            return "result does not multiply back", True
        return None, True


def _cli_payload(out: Outcome):
    """The CLI's JSON answer, or a failure message for errors and exit 2."""
    if out.error:
        return out.error
    if out.code == 2:
        return f"exit 2: {out.text.strip()}"
    try:
        return json.loads(out.text)
    except ValueError:
        return f"output is not JSON: {out.text[:80]!r}"


WORKLOADS = {"certify": Certify, "verify": Verify, "scalar": Scalar}
