"""Seeded job documents for the three benchmark workloads, and their checks.

Every job is a JSON document for `optdeg.cli.run_job`, generated here from
the workload seed with the benchmark's own integer polynomial arithmetic, so
the program under test never takes part in making its inputs.  Each job
carries the check its report must pass: an expected value proved by the
construction, a verdict, or agreement with its twin job over the other field.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

PRIME = 2147483647
FIELDS = ("rational", f"prime:{PRIME}")
WORKLOADS = ("projective-gf", "evolute-qq", "affine-sweep")


# -- integer polynomials: dicts from exponent tuples to int coefficients -----

def _add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _substitute(f, images, nvars):
    """f(images[0], ..., images[k-1]) with every image a polynomial in nvars."""
    out = {}
    for exp, c in f.items():
        term = {(0,) * nvars: c}
        for image, k in zip(images, exp):
            for _ in range(k):
                term = _mul(term, image)
        out = _add(out, term)
    return out


def _affine_forms(matrix, shift):
    """Images x_i -> sum_j matrix[i][j] x_j + shift[i] as polynomials."""
    n = len(matrix)
    forms = []
    for i in range(n):
        form = {}
        for j in range(n):
            if matrix[i][j]:
                e = [0] * n
                e[j] = 1
                form[tuple(e)] = matrix[i][j]
        if shift[i]:
            form[(0,) * n] = shift[i]
        forms.append(form)
    return forms


def _det(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for r in range(n):
        pivot = next((i for i in range(r, n) if a[i][r]), None)
        if pivot is None:
            return 0
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            det = -det
        det *= a[r][r]
        for i in range(r + 1, n):
            factor = a[i][r] / a[r][r]
            for j in range(r, n):
                a[i][j] -= factor * a[r][j]
    return det


def _invertible(rng, n, lo, hi):
    while True:
        m = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        if _det(m):
            return m


def format_poly(f, names):
    """Text in the optdeg grammar, terms in descending exponent order."""
    parts = []
    for exp, c in sorted(f.items(), reverse=True):
        factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, exp) if k]
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        parts.append(("-" if c < 0 else "+") + body)
    text = "".join(parts) or "+0"
    return text[1:] if text[0] == "+" else text


def _parse_monomials(text, names):
    """Sum of signed integer-coefficient monomials, e.g. 'x1*x3-x2^2'."""
    out = {}
    for chunk in text.replace("-", "+-").split("+"):
        if not chunk:
            continue
        c, exp = 1, [0] * len(names)
        if chunk.startswith("-"):
            c, chunk = -1, chunk[1:]
        for factor in chunk.split("*"):
            if factor.isdigit():
                c *= int(factor)
            else:
                name, _, k = factor.partition("^")
                exp[names.index(name)] += int(k or 1)
        out = _add(out, {tuple(exp): c})
    return out


# -- univariate checks at infinity, over QQ and over GF(q) --------------------

def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _is_coprime(f, g, modulus=None):
    """gcd(f, g) is constant; coefficient lists, lowest degree first, over QQ
    or over GF(modulus)."""
    if modulus is None:
        reduce, inv = Fraction, lambda c: 1 / c  # noqa: E731
    else:
        reduce, inv = (lambda c: c % modulus), (lambda c: pow(c, -1, modulus))  # noqa: E731
    f = _trim([reduce(c) for c in f])
    g = _trim([reduce(c) for c in g])
    while g:
        lead_inv = inv(g[-1])
        while len(f) >= len(g):
            q = f[-1] * lead_inv
            shift = len(f) - len(g)
            for i, c in enumerate(g):
                f[shift + i] = reduce(f[shift + i] - q * c)
            _trim(f)
        f, g = g, f
    return len(f) == 1


def generic_at_infinity(f, p):
    """True when the top form of the plane curve f has d simple roots, none on
    an axis and none on x1^p + x2^p = 0, over QQ and over GF(q).

    Then g = 0 and the critical equation of the p-norm objective meet nowhere
    at infinity, so for a smooth curve Bezout's theorem gives exactly
    d(d+p-2) affine critical points counted with multiplicity, for every
    data point at which the two curves share no component.
    """
    d = max(sum(e) for e in f)
    top = [f.get((k, d - k), 0) for k in range(d + 1)]  # in t = x1/x2
    if top[0] == 0 or top[d] == 0:
        return False
    deriv = [k * top[k] for k in range(1, d + 1)]
    iso = [1] + [0] * (p - 1) + [1]  # t^p + 1
    return all(_is_coprime(top, deriv, m) and _is_coprime(top, iso, m)
               for m in (None, PRIME))


# -- the workloads ---------------------------------------------------------

class Job:
    """One job document, the kind of check its report must pass, and the
    expected value for that check."""

    __slots__ = ("name", "command", "doc", "check", "expected", "twin")

    def __init__(self, name, command, doc, check, expected=None, twin=None):
        self.name = name
        self.command = command
        self.doc = json.dumps(doc, sort_keys=True)
        self.check = check
        self.expected = expected
        self.twin = twin

    def field(self):
        return json.loads(self.doc).get("ring", {}).get("field", "rational")

    def over(self, field):
        """The same job, under the same name, over another coefficient field."""
        doc = json.loads(self.doc)
        doc["ring"]["field"] = field
        return Job(self.name, self.command, doc, self.check, self.expected)


def _job_doc(names, field, gens, rng, **options):
    return {"schema_version": 1,
            "ring": {"variables": list(names), "field": field},
            "variety": {"generators": gens},
            "seed": rng.randrange(1 << 30), "trials": 2,
            "options": options}


# -- transversality to the isotropic hypersurface ------------------------------

def _squarefree_of_degree(f, degree):
    """The integer polynomial f (lowest degree first) has exactly `degree`
    and no repeated root, over QQ and over GF(q)."""
    f = _trim(list(f))
    if len(f) != degree + 1 or f[-1] % PRIME == 0:
        return False
    deriv = [k * f[k] for k in range(1, len(f))]
    return all(_is_coprime(f, deriv, m) for m in (None, PRIME))


def _interpolate(values):
    """Integer coefficients, lowest degree first, of the polynomial of degree
    below len(values) that takes values[t] at t = 0, 1, ..."""
    coeffs = [Fraction(0)] * len(values)
    for i, y in enumerate(values):
        basis, denom = [Fraction(1)], 1
        for j in range(len(values)):
            if j != i:  # basis *= (t - j)
                basis = [(basis[k - 1] if k else 0)
                         - j * (basis[k] if k < len(basis) else 0)
                         for k in range(len(basis) + 1)]
                denom *= i - j
        for k, b in enumerate(basis):
            coeffs[k] += y * b / denom
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def _coefficients(f, var, point):
    """Coefficients in variable `var`, lowest first, of f with every other
    variable i set to point[i]."""
    out = [0] * (max(e[var] for e in f) + 1)
    for e, c in f.items():
        for i, k in enumerate(e):
            if i != var:
                c *= point[i] ** k
        out[e[var]] += c
    return out


def _resultant(f, g):
    """Sylvester resultant of two univariate coefficient lists."""
    m, n = len(f) - 1, len(g) - 1
    rows = ([[0] * i + f[::-1] + [0] * (n - 1 - i) for i in range(n)]
            + [[0] * i + g[::-1] + [0] * (m - 1 - i) for i in range(m)])
    return int(_det(rows))


def _isotropic(n, p):
    return {tuple(p if i == j else 0 for j in range(n)): 1 for i in range(n)}


def _adjugate(m):
    n = len(m)
    return [[int((-1) ** (i + j) * _det([row[:i] + row[i + 1:]
                                         for k, row in enumerate(m) if k != j]))
             for j in range(n)] for i in range(n)]


def plane_curve_meets_isotropic(matrix, gens, p):
    """The plane curve g meets x1^p + x2^p + x3^p = 0 in d*p distinct points:
    its resultant in x1 with the isotropic curve, in t = x2/x3, has d*p
    simple roots.  (Stricter than transversality: it also rejects two points
    on one line through (1:0:0), and points on x3 = 0.)"""
    g, = gens
    d = max(sum(e) for e in g)
    if g.get((d, 0, 0), 0) % PRIME == 0:
        return False
    q = _isotropic(3, p)
    res = [_resultant(_coefficients(g, 0, (None, t, 1)),
                      _coefficients(q, 0, (None, t, 1)))
           for t in range(d * p + 1)]
    return _squarefree_of_degree(_interpolate(res), d * p)


def twisted_cubic_meets_isotropic(matrix, gens, p):
    """The twisted cubic M^-1 (s^3, s^2, s, 1) meets the isotropic quadric
    at 3p distinct parameters s, none at infinity."""
    adj = _adjugate(matrix)  # a multiple of M^-1, which moves no root
    nu = [{(3 - k,): 1} for k in range(4)]
    point = [{} for _ in range(4)]
    for i in range(4):
        for j in range(4):
            point[i] = _add(point[i], _mul({(0,): adj[i][j]}, nu[j]))
    q = _substitute(_isotropic(4, p), point, 1)
    return _squarefree_of_degree(_coefficients(q, 0, (None,)), 3 * p)


def quadric_meets_isotropic_quadric(matrix, gens, p):
    """The quadric surface x^T A x meets the isotropic quadric x^T x (p = 2)
    in a smooth curve: the pencil det(2A + t I) has four simple roots."""
    g, = gens
    n = len(matrix)
    two_a = [[g.get(tuple(2 if k == i else 0 for k in range(n)), 0) * 2
              if i == j else
              g.get(tuple(1 if k in (i, j) else 0 for k in range(n)), 0)
              for j in range(n)] for i in range(n)]
    values = [int(_det([[two_a[i][j] + (t if i == j else 0) for j in range(n)]
                        for i in range(n)])) for t in range(n + 1)]
    return _squarefree_of_degree(_interpolate(values), n)


# projective varieties (as affine cones in n variables), their p, closed-form
# options, the count every route must agree on, and the check that seeded
# coordinates put the variety transversal to the isotropic hypersurface
# x1^p + ... + xn^p = 0, which the closed forms assume.  Without the check,
# a conic tangent to it at (0:1:-1) had 11 critical points against the
# formula's 12 (correctly, as the symbolic route reported).
_PROJECTIVE = (
    ("conic", 3, ("x1^2+x2^2+2*x3^2",), 2, {}, 4,
     plane_curve_meets_isotropic),
    ("conic", 3, ("x1^2+x2^2+2*x3^2",), 3, {}, 12,
     plane_curve_meets_isotropic),
    ("segre-quadric", 4, ("x1*x4-x2*x3",), 2,
     {"segre_veronese": [[2, 1], [2, 1]]}, 6,
     quadric_meets_isotropic_quadric),
    ("twisted-cubic", 4, ("x1*x3-x2^2", "x1*x4-x2*x3", "x2*x4-x3^2"), 2,
     {"curve": {"d": 3, "g": 0}}, 7, twisted_cubic_meets_isotropic),
    ("rational-normal-conic", 3, ("x1*x3-x2^2",), 3,
     {"curve": {"d": 2, "g": 0}}, 12, plane_curve_meets_isotropic),
    ("fermat-cubic", 3, ("x1^3+x2^3+x3^3",), 2, {"curve": {"d": 3, "g": 1}}, 9,
     plane_curve_meets_isotropic),
)


def projective_gf(seed):
    rng = random.Random(f"projective-gf|{seed}")
    jobs = []
    for name, n, texts, p, extra, expected, transversal in _PROJECTIVE:
        names = tuple(f"x{i + 1}" for i in range(n))
        while True:
            matrix = _invertible(rng, n, -5, 5)
            forms = _affine_forms(matrix, [0] * n)
            gens = [_substitute(_parse_monomials(t, names), forms, n)
                    for t in texts]
            if transversal(matrix, gens, p):
                break
        doc = _job_doc(names, FIELDS[1], [format_poly(g, names) for g in gens],
                       rng, p=p, **extra)
        jobs.append(Job(f"{name}-p{p}", "crossvalidate", doc, "agree", expected))
    return jobs


def evolute_qq(seed):
    """Axis-aligned ellipses x1^2 + a*x2^2 - b at p = 3.  The evolute of a
    smooth conic has reduced degree 6(p-1).  a is drawn from a fixed stratum
    per job (a = 2 runs two to three times longer over QQ than a in 3..5, so
    free draws would make the run length depend on the seed)."""
    rng = random.Random(f"evolute-qq|{seed}")
    strata = [3, 4, 5]
    rng.shuffle(strata)
    jobs = []
    for a in strata:
        b = rng.randint(1, 5)
        doc = _job_doc(("x1", "x2"), FIELDS[0], [f"x1^2+{a}*x2^2-{b}"], rng, p=3)
        del doc["trials"]
        jobs.append(Job(f"ellipse-a{a}-b{b}", "evolute", doc, "evolute", 12))
    return jobs


def _random_affine_image(rng, f):
    m = _invertible(rng, 2, -2, 2)
    shift = [rng.randint(-2, 2) for _ in range(2)]
    return _substitute(f, _affine_forms(m, shift), 2)


def _smooth_curve(rng, d, ps):
    """Affine image of x1^d + c*x2^d - c0 (smooth: the gradient vanishes
    only at the origin, which is off the curve) that is generic at infinity
    for every p in ps."""
    while True:
        f = {(d, 0): 1, (0, d): rng.randint(1, 4), (0, 0): -rng.randint(1, 6)}
        g = _random_affine_image(rng, f)
        if all(generic_at_infinity(g, p) for p in ps):
            return g


# singular curves: the kind, the size of its parameter, and the affine change
# of coordinates it is put in.  Only signs and the order of the variables are
# drawn.  With freely drawn parameters and coordinates, the QQ job of one kind
# of curve at one p took from 0.3x to 1.5x its median time across ten seeds,
# and these jobs set the tail.
#
# The shift puts the singular point at (1/2, 0), off the integer lattice.
# optdeg draws QQ data points from the integers in [-1000, 1000]^2, and the
# count drops by one on some lines through a singular point: for a cusp the
# line along its normal, here direction (1, 1); for a node with rational
# tangents the lines along its normals, here (0, 1) and, at p = 2, (2, 3).
# Through an integer singular point each such line holds about 2000 of those
# points, so about one draw in 2000 made the trials disagree and the job
# report no count.  Through (1/2, 0) these lines hold none.
SINGULAR_MATRIX = ((1, 2), (1, 1))
SINGULAR_SHIFT = (Fraction(-1, 2), Fraction(-1, 2))
_SINGULAR = (("nodal", 1), ("nodal", 2), ("cuspidal", 1), ("cuspidal", 2),
             ("limacon", 1), ("limacon", 2))


def _singular_curve(rng, kind, size):
    a = rng.choice([-1, 1]) * size
    if kind == "nodal":        # x2^2 = x1^2 (x1 + a)
        f = {(0, 2): 1, (3, 0): -1, (2, 0): -a}
    elif kind == "cuspidal":   # x2^2 = a x1^3
        f = {(0, 2): 1, (3, 0): -a}
    else:                      # limacon (x1^2 + x2^2 + a x1)^2 = b (x1^2 + x2^2)
        b = size + 1
        circle = {(2, 0): 1, (0, 2): 1, (1, 0): a}
        f = _add(_mul(circle, circle), {(2, 0): -b, (0, 2): -b})
    g = _substitute(f, _affine_forms(SINGULAR_MATRIX, SINGULAR_SHIFT), 2)
    g = {e: c * 2 ** max(sum(e) for e in f) for e, c in g.items()}
    content = math.gcd(*(int(c) for c in g.values()))
    # a signed permutation of the variables: the same problem up to the
    # symmetries of the p-norm objective
    order = rng.sample(range(2), 2)
    signs = [rng.choice([-1, 1]) for _ in range(2)]
    return {tuple(e[i] for i in order): int(c) // content
            * signs[0] ** e[order[0]] * signs[1] ** e[order[1]]
            for e, c in g.items()}


def _tower_doc(rng):
    a, b, c = rng.randint(2, 9), rng.randint(1, 9), rng.randint(2, 9)
    return {"schema_version": 1,
            "tower": {"base": ["x1", "x2", "s"],
                      "levels": [{"power": 2, "alpha": "s*x1"},
                                 {"power": 2, "alpha": f"{c}*s*x2"}],
                      "parametrization": ["x1", "x2", "x1+D1", "x2+D2"]},
            "variety": {"generators": [f"x1^2+{a}*x2^2-{b}"]}}


CURVES_PER_DEGREE = 4


def affine_sweep(seed):
    """Many small jobs in 2-variable rings, each curve swept over p = 2..5 and
    over both fields, so every QQ job has a GF(q) twin."""
    rng = random.Random(f"affine-sweep|{seed}")
    names = ("x1", "x2")
    ps = (2, 3, 4, 5)
    jobs = []
    smooth = []
    for d in (2, 3, 4):
        for k in range(CURVES_PER_DEGREE):
            text = format_poly(_smooth_curve(rng, d, ps), names)
            smooth.append((d, text))
            for p in ps:
                for field in FIELDS:
                    doc = _job_doc(names, field, [text], rng, p=p)
                    jobs.append(Job(f"smooth-d{d}-{k}-p{p}", "crossvalidate",
                                    doc, "agree", d * (d + p - 2)))
    for kind, size in _SINGULAR:
        text = format_poly(_singular_curve(rng, kind, size), names)
        for p in ps:
            pair = []
            for field in FIELDS:
                doc = _job_doc(names, field, [text], rng, p=p)
                pair.append(Job(f"{kind}-{size}-p{p}", "crossvalidate", doc,
                                "twin"))
                jobs.append(pair[-1])
            pair[1].twin = pair[0]
    for d, text in smooth[::CURVES_PER_DEGREE]:
        for p in (2, 3):
            u = [f"{rng.randint(-999, 999)}/{rng.randint(1, 999)}"
                 for _ in names]
            for field in FIELDS:
                doc = {"schema_version": 1,
                       "ring": {"variables": list(names), "field": field},
                       "variety": {"generators": [text]},
                       "objective": {"pnorm": p}, "options": {"u": u}}
                jobs.append(Job(f"pinned-d{d}-p{p}", "degree", doc, "pinned",
                                d * (d + p - 2)))
    jobs.append(Job("tower", "tower-check", _tower_doc(rng), "tower"))
    return jobs


def make_jobs(workload, seed):
    if workload == "projective-gf":
        return projective_gf(seed)
    if workload == "evolute-qq":
        return evolute_qq(seed)
    if workload == "affine-sweep":
        return affine_sweep(seed)
    raise ValueError(f"unknown workload {workload!r}")


def check_report(job, report, results):
    """None when the report passes the job's check, else the reason.

    `results` maps the jobs already run in this pass to their results, for
    the QQ/GF(q) agreement check of twin jobs."""
    res = report["result"]
    if job.check == "agree":
        values = res["values"]
        routes = {k: v for k, v in values.items() if k != "ci_bound"}
        if res["verdict"] != "AGREE":
            return f"verdict {res['verdict']}: {values}"
        if len(routes) < 2:
            return f"nothing to cross-check: {values}"
        if set(routes.values()) != {job.expected}:
            return f"expected {job.expected}, got {values}"
        return None
    if job.check == "twin":
        values = res["values"]
        if res["verdict"] != "AGREE":
            return f"verdict {res['verdict']}: {values}"
        if not isinstance(values.get("symbolic_affine"), int):
            return f"no symbolic count: {values}"
        if job.twin is not None:
            other = results.get(job.twin)
            if other is None:
                return "twin job has no result"
            if other["values"]["symbolic_affine"] != values["symbolic_affine"]:
                return (f"QQ count {other['values']['symbolic_affine']} != "
                        f"GF count {values['symbolic_affine']}")
        return None
    if job.check == "pinned":
        if res["degree"] != job.expected:
            return f"expected {job.expected}, got {res['degree']}"
        return None
    if job.check == "evolute":
        if res["reduced_degree"] != job.expected:
            return f"expected reduced degree {job.expected}, got {res['reduced_degree']}"
        return None
    if job.check == "tower":
        if not (res["dimension_ok"] and res["dimension"] == 2
                and res["jacobian_rank"] == 3):
            return f"tower check failed: {res}"
        return None
    raise ValueError(f"unknown check {job.check!r}")
