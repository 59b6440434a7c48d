import json
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from optdeg import (OrderSpec, PrimeField, RationalField, RingContext,
                    parse_polynomial, parse_rational_function)
from optdeg.cli import EXIT_OK, main
from optdeg.critical import VarietySpec
from optdeg.errors import (BudgetExceeded, RestrictionIllDefined,
                           RingMismatch, ZeroAlpha)
from optdeg.groebner import (DEFAULT_BUDGET, Ideal, _Budget, eliminate,
                             saturate, vanishes_on_variety)
from optdeg.rings import RationalFunction
from optdeg.towers import (ParametrizationSpec, TowerLevel, TowerSpec,
                           _graph_base, tower_dimension_check,
                           tower_jacobian_rank, tower_ring)

from conftest import variety
from ideal_reads import normal_form
from incidence import (build_tower_system, incidence_dimension,
                       tower_incidence_ideals)


def RF(text, ring):
    return parse_rational_function(text, ring)


@pytest.fixture
def ellipse_tower():
    """Implicit tower for 3-norm optimization on the ellipse: base (x1, x2, s)
    with D1^2 = s*x1, D2^2 = 4*s*x2 and coordinates (x1, x2, x1+D1, x2+D2)."""
    ring = tower_ring(("x1", "x2", "s"), 2)
    tower = TowerSpec(ring, ("x1", "x2", "s"),
                      (TowerLevel(2, RF("s*x1", ring)),
                       TowerLevel(2, RF("4*s*x2", ring))))
    param = ParametrizationSpec(tuple(RF(t, ring) for t in
                                      ("x1", "x2", "x1+D1", "x2+D2")))
    return tower, param


@pytest.fixture
def ellipse_restriction():
    ring = RingContext(("x1", "x2", "s"))
    return variety(ring, "x1^2+4*x2^2-1")


def test_build_tower_system_ellipse(ellipse_tower):
    """The oracle's incidence system, relation by relation."""
    tower, param = ellipse_tower
    system = build_tower_system(tower, param)
    big = system.ring
    assert system.root_relations[0] == parse_polynomial("D1^2-s*x1", big)
    assert system.root_relations[1] == parse_polynomial("D2^2-4*s*x2", big)
    assert system.coordinate_relations[0] == parse_polynomial("Y1-x1", big)
    assert system.coordinate_relations[2] == parse_polynomial("Y3-x1-D1", big)
    assert system.denominator_relation == parse_polynomial("Z-1", big)


def test_root_relations_clear_denominators():
    ring = tower_ring(("t",), 1)
    tower = TowerSpec(ring, ("t",), (TowerLevel(3, RF("1/t", ring)),))
    assert tower.root_relations() == [parse_polynomial("D1^3*t-1", ring)]


def test_cardioid_style_level():
    ring = tower_ring(("x1", "x2", "s"), 1)
    alpha = RF("9-4*2*3+4*2*s*(2*x1^3+2*x1*x2^2+3*x1^2+x2^2)", ring)
    tower = TowerSpec(ring, ("x1", "x2", "s"), (TowerLevel(2, alpha),))
    expected = parse_polynomial(
        "D1^2-(9-24+8*s*(2*x1^3+2*x1*x2^2+3*x1^2+x2^2))", ring)
    assert tower.root_relations() == [expected]


def test_zero_alpha_rejected():
    ring = tower_ring(("t",), 1)
    with pytest.raises(ZeroAlpha):
        TowerLevel(2, RF("t-t", ring))


def test_level_cannot_use_later_roots():
    ring = tower_ring(("t",), 2)
    with pytest.raises(ValueError):
        TowerSpec(ring, ("t",), (TowerLevel(2, RF("D2", ring)),
                                 TowerLevel(2, RF("t", ring))))


def test_incidence_dimension_restricted(ellipse_tower, ellipse_restriction):
    tower, param = ellipse_tower
    report = tower_dimension_check(tower, param, ellipse_restriction)
    assert report.dimension == 2
    assert report.expected == 2
    assert report.passed


def test_incidence_dimension_unrestricted_toy():
    ring = tower_ring(("t",), 1)
    tower = TowerSpec(ring, ("t",), (TowerLevel(2, RF("t", ring)),))
    param = ParametrizationSpec(tuple(RF(t, ring) for t in ("t", "D1", "D1+t")))
    report = tower_dimension_check(tower, param)
    assert report.dimension == 1 == report.expected
    assert report.passed


def test_incidence_over_unit_restriction_fails(ellipse_tower):
    tower, param = ellipse_tower
    ring = RingContext(("x1", "x2", "s"))
    empty = variety(ring, "1")
    report = tower_dimension_check(tower, param, empty)
    assert not report.passed
    assert report.note


def test_restriction_ill_defined():
    ring = tower_ring(("x1", "x2"), 1)
    tower = TowerSpec(ring, ("x1", "x2"), (TowerLevel(2, RF("x2/x1", ring)),))
    param = ParametrizationSpec(tuple(RF(t, ring) for t in ("x1", "x2", "D1")))
    base_ring = RingContext(("x1", "x2"))
    axis = variety(base_ring, "x1")
    with pytest.raises(RestrictionIllDefined):
        tower_dimension_check(tower, param, axis)


def test_projection_consistency(ellipse_tower, ellipse_restriction):
    """In the oracle's incidence system, eliminating Z then the roots gives
    the block elimination of both."""
    tower, param = ellipse_tower
    system = build_tower_system(tower, param)
    incidence, z_free = tower_incidence_ideals(system, ellipse_restriction)
    stepwise = eliminate(z_free, ("D1", "D2"))
    joint = eliminate(incidence, ("Z", "D1", "D2"))
    assert stepwise.equals(joint)


def test_benchmark_tower_reduction_steps_pinned():
    """The tower job of the benchmark's affine sweep (seed 2); its restriction
    check is a radical-membership test, whose steps are pinned with the
    rest (43 and 38 without signature criteria)."""
    ring = tower_ring(("x1", "x2", "s"), 2)
    tower = TowerSpec(ring, ("x1", "x2", "s"),
                      (TowerLevel(2, RF("s*x1", ring)),
                       TowerLevel(2, RF("8*s*x2", ring))))
    param = ParametrizationSpec(tuple(RF(t, ring) for t in
                                      ("x1", "x2", "x1+D1", "x2+D2")))
    X = variety(RingContext(("x1", "x2", "s")), "x1^2+4*x2^2-6")
    budget = _Budget(DEFAULT_BUDGET)
    report = tower_dimension_check(tower, param, X, budget)
    assert (report.dimension, report.expected, report.passed) == (2, 2, True)
    assert DEFAULT_BUDGET - budget.remaining == 6
    budget = _Budget(DEFAULT_BUDGET)
    assert tower_jacobian_rank(tower, param, X, budget) == 3
    assert DEFAULT_BUDGET - budget.remaining == 8


def test_jacobian_rank_ellipse(ellipse_tower, ellipse_restriction):
    tower, param = ellipse_tower
    assert tower_jacobian_rank(tower, param, ellipse_restriction) == 3


def test_jacobian_rank_identity_padded():
    ring = tower_ring(("t1", "t2"), 1)
    tower = TowerSpec(ring, ("t1", "t2"), (TowerLevel(2, RF("t1", ring)),))
    param = ParametrizationSpec(tuple(RF(t, ring) for t in ("t1", "t2", "t1")))
    assert tower_jacobian_rank(tower, param) == 2


def test_jacobian_rank_constant_map():
    ring = tower_ring(("t1", "t2"), 1)
    tower = TowerSpec(ring, ("t1", "t2"), (TowerLevel(2, RF("t1", ring)),))
    param = ParametrizationSpec(tuple(RF(t, ring) for t in ("1", "2", "3")))
    assert tower_jacobian_rank(tower, param) == 0


def test_branch_metadata_never_affects_ideals(ellipse_tower, ellipse_restriction):
    tower, param = ellipse_tower
    with_branch = TowerSpec(tower.ring, tower.base, tower.levels,
                            branch=("1,1,1", "1", "2"))
    other_branch = TowerSpec(tower.ring, tower.base, tower.levels,
                             branch=("1,1,1", "-1", "-2"))
    a = _graph_base(with_branch, param, ellipse_restriction, None)
    b = _graph_base(other_branch, param, ellipse_restriction, None)
    assert a.equals(b)


def test_jacobian_rank_empty_base():
    """With no base variable there is nothing to differentiate by."""
    ring = tower_ring((), 1)
    tower = TowerSpec(ring, (), (TowerLevel(2, RF("3", ring)),))
    param = ParametrizationSpec((RF("D1", ring),))
    assert tower_jacobian_rank(tower, param) == 0


def test_jacobian_rank_refuses_a_restriction_off_the_base(ellipse_tower):
    """X must live in exactly the base variables, as for the dimension."""
    tower, param = ellipse_tower
    X = variety(RingContext(("x1", "x2")), "x1^2+4*x2^2-1")
    with pytest.raises(RingMismatch):
        tower_jacobian_rank(tower, param, X)
    with pytest.raises(RingMismatch):
        tower_dimension_check(tower, param, X)


def test_jacobian_rank_refuses_too_few_coordinates():
    """No more coordinates than base variables parametrize nothing larger
    than the base, for the rank as for the dimension."""
    ring = tower_ring(("t1", "t2"), 1)
    tower = TowerSpec(ring, ("t1", "t2"), (TowerLevel(2, RF("t1", ring)),))
    param = ParametrizationSpec((RF("t1", ring), RF("t2+D1", ring)))
    with pytest.raises(ValueError):
        tower_jacobian_rank(tower, param)
    with pytest.raises(ValueError):
        tower_dimension_check(tower, param)


# D1^2 = 2*t3^2/(t2 - 3*t1), D2^2 = -3*t2 - 3*t3 - 3, restricted to
# t2*t3 + 2*t2 + 2: minors of the rational total derivatives, never
# cancelled, take this rank past 2,000,000 steps; minors of the eliminated
# polynomial rows take it in a few thousand.
HARD_TOWER = {
    "base": ["t1", "t2", "t3"],
    "levels": [{"power": 2, "alpha": "2*t3^2/(t2-3*t1)"},
               {"power": 2, "alpha": "-3*t2-3*t3-3"}],
    "parametrization": ["-t1*D1-t1+D2", "3*t3*D1+D2", "D1/(2-2*D2)", "6",
                        "t3*D2+5"],
}
HARD_RESTRICTION = "t2*t3+2*t2+2"


@pytest.mark.parametrize("field", [PrimeField(), RationalField()],
                         ids=["GF", "QQ"])
def test_jacobian_rank_of_the_hard_tower(field):
    ring = tower_ring(HARD_TOWER["base"], 2, field)
    tower = TowerSpec(ring, tuple(HARD_TOWER["base"]),
                      tuple(TowerLevel(lv["power"], RF(lv["alpha"], ring))
                            for lv in HARD_TOWER["levels"]))
    param = ParametrizationSpec(tuple(RF(y, ring)
                                      for y in HARD_TOWER["parametrization"]))
    X = variety(RingContext(tower.base, field), HARD_RESTRICTION)
    assert tower_jacobian_rank(tower, param, X, _Budget(20_000)) == 3


@pytest.mark.parametrize("field", ["prime:2147483647", "rational"])
def test_tower_check_of_the_hard_tower(tmp_path, capsys, field):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "schema_version": 1, "budget": 20_000, "ring": {"field": field},
        "tower": HARD_TOWER, "variety": {"generators": [HARD_RESTRICTION]}}))
    assert main(["tower-check", "--job", str(path)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)["result"]
    assert (out["dimension"], out["dimension_ok"]) == (2, True)
    assert out["jacobian_rank"] == 3


# --- the rank against implicit differentiation in sympy ------------------------

def _sympy(poly, syms):
    """A polynomial as a sympy expression; over GF(q) each residue is read
    as its representative of least absolute value, so small drawn
    coefficients stay small."""
    q = getattr(poly.ring.field, "q", None)

    def lift(c):
        c = Fraction(c)
        return c - q if q is not None and c > q // 2 else c
    return sympy.Add(*(sympy.Rational(lift(c)) * sympy.Mul(
        *(s ** k for s, k in zip(syms, e))) for e, c in poly.sorted_terms()))


def _from_sympy(expr, ring, syms):
    poly = sympy.Poly(expr, *syms, domain="QQ")
    return ring.poly_from_terms({e: Fraction(int(c.p), int(c.q))
                                 for e, c in poly.terms()})


def _locus(tower, X):
    ring = tower.ring
    gens = [ring.var(f"D{i + 1}") ** level.power * level.alpha.den
            - level.alpha.num for i, level in enumerate(tower.levels)]
    if X is not None:
        gens += [g.transfer(ring) for g in X.generators]
    return Ideal(ring, gens)


def _oracle_rank(tower, param, X):
    """The largest k with a k-minor of dy/dt whose numerator does not vanish
    on the root locus.  dD_i/dt is taken by implicit differentiation of
    R_i = D_i^(d_i) * b_i - a_i, with the earlier dD_k/dt substituted, and
    the minors by sympy's determinant of the rational entries, cancelled."""
    ring = tower.ring
    syms = sympy.symbols(ring.variables)
    by_name = dict(zip(ring.variables, syms))
    base = [by_name[t] for t in tower.base]
    roots = [by_name[d] for d in tower.delta_names]
    droots = []
    for D, level in zip(roots, tower.levels):
        R = (D ** level.power * _sympy(level.alpha.den, syms)
             - _sympy(level.alpha.num, syms))
        droots.append([sympy.cancel(-(R.diff(t) + sum(
            R.diff(E) * dE[j] for E, dE in zip(roots, droots))) / R.diff(D))
            for j, t in enumerate(base)])
    jac = []
    for y in param.coordinates:
        f = _sympy(y.num, syms) / _sympy(y.den, syms)
        jac.append([f.diff(t) + sum(f.diff(E) * dE[j]
                                    for E, dE in zip(roots, droots))
                    for j, t in enumerate(base)])
    jac = sympy.Matrix(jac)
    locus = _locus(tower, X)
    for k in range(min(jac.rows, jac.cols), 0, -1):
        for rows in combinations(range(jac.rows), k):
            for cols in combinations(range(jac.cols), k):
                num, _ = sympy.fraction(sympy.cancel(
                    jac.extract(list(rows), list(cols)).det()))
                if not vanishes_on_variety(_from_sympy(num, ring, syms),
                                           locus):
                    return k
    return 0


def _drawn_poly(draw, ring, names, nonzero=False, size=3):
    """At most `size` terms in the named variables, each exponent at most 2,
    coefficients in [-3, 3]."""
    at = [ring.index(v) for v in names]
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(at)),
                                 st.integers(-3, 3), min_size=int(nonzero),
                                 max_size=size))
    out = {}
    for e, c in terms.items():
        full = [0] * ring.nvars
        for i, k in zip(at, e):
            full[i] = k
        out[tuple(full)] = c
    poly = ring.poly_from_terms(out)
    if nonzero and poly.is_zero():
        reject()
    return poly


@st.composite
def _towers(draw):
    """Towers of 1-2 base variables and 0-2 levels of power 2 or 3, with
    polynomial alpha or alpha over one base variable t.  Coordinates are
    drawn over 1 or over t from one subset of the tower's variables, or,
    for half the towers with a level, they are quadrics in max(n - 1, 1)
    drawn polynomials through the last root, reduced by the root
    relations; both ways, ranks below full occur.  Half are restricted to
    a drawn curve or point set.  A numerator over t is not divisible by t,
    and no restriction lies in a coordinate hyperplane, so most towers have
    no component of the root locus in some {delta_i = 0} or {e_j = 0},
    where the Jacobian is not defined; the others are rejected."""
    field = draw(st.sampled_from([PrimeField(), RationalField()]))
    n = draw(st.integers(1, 2))
    m = draw(st.integers(0, 2))
    base = tuple(f"t{j + 1}" for j in range(n))
    ring = tower_ring(base, m, field)
    over = st.sampled_from((None,) + base)

    def rational(names, nonzero=False):
        num = _drawn_poly(draw, ring, names, nonzero)
        den = draw(over)
        if den is None or num.substitute({den: 0}).is_zero():
            return RationalFunction(num)
        return RationalFunction(num, ring.var(den))
    levels = tuple(TowerLevel(draw(st.integers(2, 3)),
                              rational(base + ring.variables[n:n + i], True))
                   for i in range(m))
    tower = TowerSpec(ring, base, levels)
    used = draw(st.lists(st.sampled_from(ring.variables), min_size=1,
                         unique=True))
    r = draw(st.integers(n + 1, n + 2))
    if m == 0 or draw(st.booleans()):
        param = ParametrizationSpec(tuple(rational(used) for _ in range(r)))
    else:
        # polynomials in fewer inner polynomials than base variables (for
        # n = 2), each reduced by the root relations with the roots first,
        # so that D_i^(d_i) * b_i becomes a_i and the rank falls short
        # through the roots and not only through the terms
        roots = _locus(tower, None).groebner(
            OrderSpec("block", tower.delta_names))
        top = ring.var(tower.delta_names[-1])
        inner = [top + _drawn_poly(draw, ring, ring.variables)
                 for _ in range(max(n - 1, 1))]
        coeff = st.integers(-2, 2)
        param = ParametrizationSpec(tuple(
            RationalFunction(normal_form(sum(
                (w * (ring.const(draw(coeff)) + w.scale(draw(coeff)))
                 for w in inner), ring.const(draw(coeff))), roots))
            for _ in range(r)))
    X = None
    if draw(st.booleans()):
        small = RingContext(base, field)
        g = (_drawn_poly(draw, small, base, nonzero=True)
             + small.const(draw(st.sampled_from((-2, -1, 1, 2)))))
        if g.is_constant() or any(g.substitute({t: 0}).is_zero()
                                  for t in base):
            reject()
        X = VarietySpec(small, (g,))
    locus = _locus(tower, X)
    if not locus.groebner().is_unit():
        # D_i * b_i vanishes where delta_i does; no component of the locus
        # lies in the zero set of `bad` when the locus saturated by it
        # has the same zero set
        bad = ring.one()
        for D, level in zip(tower.delta_names, levels):
            bad = bad * ring.var(D) * level.alpha.den
        for y in param.coordinates:
            bad = bad * y.den
        kept = saturate(locus, Ideal(ring, [bad]))
        if not all(vanishes_on_variety(h, locus) for h in kept.generators):
            reject()
    return tower, param, X


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_towers())
def test_jacobian_rank_matches_implicit_differentiation(drawn):
    tower, param, X = drawn
    assert tower_jacobian_rank(tower, param, X) == _oracle_rank(tower, param, X)


# --- the dimension against the incidence system's Z elimination ---------------

# the oracle's own budget: a draw whose Z elimination runs past it is
# rejected, never one the dimension check finds hard
ORACLE_BUDGET = 50_000


@st.composite
def _incidence_towers(draw):
    """Towers of 1-2 base variables and 0-2 levels of power 2 or 3 over QQ
    or GF(2^31-1).  Alphas and coordinates are quotients of drawn
    polynomials, an alpha's in the base and the earlier roots (its
    numerator 1 when drawn zero) and a coordinate's in every variable; a
    denominator has at most two terms, and is 1 when drawn zero.  Two
    thirds are restricted to a hypersurface in the base: a drawn one, which
    may be empty, or the zero set of the first alpha's numerator or
    denominator, on which the restriction is ill-defined unless it is
    empty."""
    field = draw(st.sampled_from([PrimeField(), RationalField()]))
    n = draw(st.integers(1, 2))
    m = draw(st.integers(0, 2))
    base = tuple(f"t{j + 1}" for j in range(n))
    ring = tower_ring(base, m, field)

    def rational(names, nonzero=False):
        num = _drawn_poly(draw, ring, names)
        den = _drawn_poly(draw, ring, names, size=2)
        if nonzero and num.is_zero():
            num = ring.one()
        return RationalFunction(num, ring.one() if den.is_zero() else den)
    levels = tuple(TowerLevel(draw(st.integers(2, 3)),
                              rational(base + ring.variables[n:n + i], True))
                   for i in range(m))
    tower = TowerSpec(ring, base, levels)
    param = ParametrizationSpec(tuple(
        rational(ring.variables) for _ in range(draw(st.integers(n + 1,
                                                                 n + 2)))))
    restriction = draw(st.sampled_from(("none", "drawn", "alpha")))
    if restriction == "none":
        return tower, param, None
    small = RingContext(base, field)
    if restriction == "alpha" and m:
        alpha = levels[0].alpha
        g = draw(st.sampled_from((alpha.num, alpha.den))).transfer(small)
    else:
        g = _drawn_poly(draw, small, base)
    return tower, param, VarietySpec(small, (small.one() if g.is_zero()
                                             else g,))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_incidence_towers())
def test_dimension_check_matches_the_incidence_elimination(drawn):
    tower, param, X = drawn
    try:
        expected = incidence_dimension(tower, param, X,
                                       _Budget(ORACLE_BUDGET))
    except BudgetExceeded:
        reject()
    except RestrictionIllDefined:
        with pytest.raises(RestrictionIllDefined):
            tower_dimension_check(tower, param, X)
        return
    assert tower_dimension_check(tower, param, X).dimension == expected
