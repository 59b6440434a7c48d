"""Acceptance suite: one test per criterion, exact-integer expectations.

Each test prints a single PASS line (visible with pytest -s); failures raise
with the offending values.  Runtime limits are asserted against the stated
per-criterion targets.
"""

import random
import time
from fractions import Fraction

from optdeg import (Ideal, PrimeField, RingContext, degree_zero_dim, dimension,
                    eliminate, groebner_basis, parse_polynomial,
                    parse_rational_function, saturate)
from optdeg.conormal import bidegree_class, polar_classes, s_conormal_ideal
from optdeg.critical import (PNorm, RationalGradient, VarietySpec,
                             algebraic_degree, critical_ideal_affine, data_ring,
                             evolute_curve, projective_pnorm_degree,
                             singular_locus_ideal)
from optdeg.formulas import (ChernDegrees, SegreVeroneseSpec, ToricVolumes,
                             chern_formula, hypersurface_formula,
                             polar_formula, segre_veronese_formula,
                             toric_formula, veronese_formula)
from optdeg.towers import (ParametrizationSpec, TowerLevel, TowerSpec,
                           tower_dimension_check, tower_jacobian_rank,
                           tower_ring)

from closed_forms import hypersurface_chern_degrees, polar_from_chern
from ideal_reads import affine_degree, normal_form
from linear_change import random_linear_change

GF = PrimeField()


class Timer:
    def __init__(self, limit_s):
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def report(k, ok, detail, timer):
    line = (f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail} "
            f"[{timer.elapsed:.1f}s / limit {timer.limit:.0f}s]")
    print(line, flush=True)
    assert ok, line
    assert timer.elapsed < timer.limit, f"criterion {k} exceeded time limit: {line}"


def _ellipse(field=None):
    ring = RingContext(("x1", "x2"), field=field)
    return VarietySpec(ring, (parse_polynomial("x1^2+4*x2^2-1", ring),))


def test_criterion_1_ellipse_p4():
    with Timer(5) as t:
        rep = algebraic_degree(_ellipse(), PNorm(4), trials=3, seed=1)
    ok = rep.agreement and rep.degree == 8 and all(c == 8 for _, c in rep.trials)
    report(1, ok, f"ellipse p=4 degree {rep.degree} on 3 random samples", t)


def test_criterion_2_ellipse_p3_pinned():
    with Timer(5) as t:
        ideal = critical_ideal_affine(_ellipse(), PNorm(3),
                                      u=(Fraction(-6, 10), Fraction(6, 10)))
        count = degree_zero_dim(ideal)
    report(2, count == 6, f"ellipse p=3 at u=(-6/10, 6/10) gives {count}", t)


def _random_smooth_plane_curve(ring, d, rng):
    while True:
        terms = {}
        for i in range(d + 1):
            for j in range(d + 1 - i):
                c = rng.randint(-6, 6)
                if c:
                    terms[(i, j)] = ring.field.from_int(c)
        g = ring.poly_from_terms(terms)
        if g.is_zero() or g.total_degree() != d:
            continue
        v = VarietySpec(ring, (g,))
        if dimension(v.ideal()) != 1:
            continue
        if singular_locus_ideal(v).groebner().is_unit():
            return v


def test_criterion_3_plane_curve_law():
    rng = random.Random("criterion3")
    ring = RingContext(("x1", "x2"))
    results = []
    with Timer(60) as t:
        for d in (2, 3):
            curve = _random_smooth_plane_curve(ring, d, rng)
            for p in (2, 3, 4, 5):
                rep = algebraic_degree(curve, PNorm(p), trials=2, seed=30 + p)
                results.append((d, p, rep.degree, d * (d + p - 2)))
    ok = all(got == want for _, _, got, want in results)
    report(3, ok, f"affine smooth curves degree law on {len(results)} cases", t)


def test_criterion_4_evolute_degrees():
    ellipse = _ellipse()
    with Timer(600) as t:
        degrees = {p: evolute_curve(ellipse, p, seed=4).reduced_degree
                   for p in (2, 3, 4)}
    ok = degrees == {2: 6, 3: 12, 4: 18}
    report(4, ok, f"ellipse evolute reduced degrees {degrees}", t)


def _general_conic():
    ring = RingContext(("x1", "x2", "x3"), field=GF)
    base = parse_polynomial("x1^2+x2^2+2*x3^2", ring)
    _, subs = random_linear_change(ring, ring.variables, seed=7)
    return VarietySpec(ring, (base.substitute(subs),))


def test_criterion_5_conic_polar_pipeline():
    conic = _general_conic()
    with Timer(120) as t:
        pc = tuple(polar_classes(conic))
        values = {}
        for p in (2, 3, 4):
            via_polar = polar_formula(p, pc, conic.n)
            direct = projective_pnorm_degree(conic, p, trials=2, seed=3).degree
            values[p] = (via_polar, direct)
    ok = pc == (2, 2) and values == {2: (4, 4), 3: (12, 12), 4: (24, 24)}
    report(5, ok, f"conic polar classes {pc}, pipeline vs direct {values}", t)


def test_criterion_6_s_conormal_class_law():
    conic = _general_conic()
    with Timer(120) as t:
        N2 = s_conormal_ideal(conic, 2)
        cls = bidegree_class(N2, ("x1", "x2", "x3"), ("y1", "y2", "y3"))
        table = cls.as_dict()
    got = (table.get((2, 1)), table.get((1, 2)))
    ok = got == (4, 8)  # ((p-1) delta_0, (p-1)^2 delta_1) at p = 3
    report(6, ok, f"2-conormal class coefficients {got}", t)


def test_criterion_7_rational_normal_curves():
    specs = {
        2: ("x1*x3-x2^2",),
        3: ("x1*x3-x2^2", "x1*x4-x2*x3", "x2*x4-x3^2"),
    }
    results = []
    with Timer(300) as t:
        for d, texts in specs.items():
            ring = RingContext(tuple(f"x{i+1}" for i in range(d + 1)), field=GF)
            gens = [parse_polynomial(s, ring) for s in texts]
            _, subs = random_linear_change(ring, ring.variables, seed=11 + d)
            curve = VarietySpec(ring, tuple(g.substitute(subs) for g in gens))
            for p in (2, 3):
                got = projective_pnorm_degree(curve, p, trials=2, seed=5).degree
                results.append((d, p, got, (p - 1) * ((p + 1) * d - 2)))
    ok = all(got == want for _, _, got, want in results)
    seven = [got for d, p, got, _ in results if d == 3 and p == 2]
    ok = ok and seven == [7]
    report(7, ok, f"rational normal curves {results}", t)


def test_criterion_8_segre_quadric():
    ring = RingContext(("x1", "x2", "x3", "x4"), field=GF)
    base = parse_polynomial("x1*x4-x2*x3", ring)
    _, subs = random_linear_change(ring, ring.variables, seed=17)
    segre = VarietySpec(ring, (base.substitute(subs),))
    with Timer(300) as t:
        direct = projective_pnorm_degree(segre, 2, trials=2, seed=6).degree
    hyp = hypersurface_formula(2, 4, 2)          # d = p limit case
    closed = segre_veronese_formula(2, SegreVeroneseSpec(((2, 1), (2, 1))))
    ok = direct == hyp == closed == 6
    report(8, ok, f"Segre P1xP1 p=2: direct {direct}, hypersurface {hyp}, "
                  f"closed form {closed}", t)


def test_criterion_9_formulary_grids():
    with Timer(1) as t:
        for d in range(1, 7):
            for n in range(2, 7):
                cd = hypersurface_chern_degrees(d, n)
                delta = polar_from_chern(cd, n)
                for p in range(1, 7):
                    direct = hypersurface_formula(d, n, p)
                    assert chern_formula(p, cd) == direct
                    assert polar_formula(p, delta, n) == direct
        for n in range(2, 6):
            for omega in range(1, 5):
                for p in range(2, 5):
                    assert segre_veronese_formula(
                        p, SegreVeroneseSpec(((n, omega),))) == \
                        veronese_formula(p, n, omega)
        for d in range(1, 6):
            for p in range(1, 6):
                assert toric_formula(p, ToricVolumes(1, (2, d))) == \
                    chern_formula(p, ChernDegrees(1, (d, 2))) if d else True
                assert toric_formula(p, ToricVolumes(1, (2, d))) == \
                    (p - 1) * ((p + 1) * d - 2)
        for p in range(1, 6):
            assert toric_formula(p, ToricVolumes(2, (4, 4, 2))) == \
                segre_veronese_formula(p, SegreVeroneseSpec(((2, 1), (2, 1))))
    report(9, True, "formulary coherence grids", t)


def test_criterion_10_correspondence_dimensions():
    with Timer(600) as t:
        ellipse = _ellipse()
        dims = {}
        for p in (3, 4):
            dims[f"ellipse p={p}"] = dimension(
                critical_ideal_affine(ellipse, PNorm(p)))

        ring = RingContext(("x1", "x2"))
        cardioid = VarietySpec(
            ring, (parse_polynomial("(x1^2+x2^2+x1)^2-(x1^2+x2^2)", ring),))
        big, unames = data_ring(ring)
        rng = random.Random("criterion10")
        partials = []
        for xn, un in zip(ring.variables, unames):
            a, b, c = (rng.randint(1, 9) for _ in range(3))
            partials.append(parse_rational_function(
                f"{a}*({un}-{xn})^2+{b}*({un}-{xn})+{c}", big))
        dims["cardioid"] = dimension(
            critical_ideal_affine(cardioid, RationalGradient(tuple(partials))))

        ring4 = RingContext(("x1", "x2", "x3", "x4"), field=GF)
        threefold = VarietySpec(
            ring4, (parse_polynomial("x1^3+x2^3+x3^2*x4-1", ring4),))
        corr = critical_ideal_affine(threefold, PNorm(3))
        dims["cubic threefold p=3"] = dimension(corr)
        threefold_degree = affine_degree(corr)
    expected = {"ellipse p=3": 2, "ellipse p=4": 2, "cardioid": 2,
                "cubic threefold p=3": 4}
    ok = dims == expected and threefold_degree == 84
    report(10, ok, f"correspondence dims {dims}, threefold degree "
                   f"{threefold_degree} (extended)", t)


def test_criterion_11_radical_tower():
    with Timer(60) as t:
        ring = tower_ring(("x1", "x2", "s"), 2)
        tower = TowerSpec(ring, ("x1", "x2", "s"),
                          (TowerLevel(2, parse_rational_function("s*x1", ring)),
                           TowerLevel(2, parse_rational_function("4*s*x2", ring))))
        param = ParametrizationSpec(tuple(
            parse_rational_function(s, ring)
            for s in ("x1", "x2", "x1+D1", "x2+D2")))
        base_ring = RingContext(("x1", "x2", "s"))
        restriction = VarietySpec(
            base_ring, (parse_polynomial("x1^2+4*x2^2-1", base_ring),))
        check = tower_dimension_check(tower, param, restriction)
        rank = tower_jacobian_rank(tower, param, restriction)

        toy_ring = tower_ring(("t",), 1)
        toy = TowerSpec(toy_ring, ("t",),
                        (TowerLevel(2, parse_rational_function("t", toy_ring)),))
        toy_param = ParametrizationSpec(tuple(
            parse_rational_function(s, toy_ring) for s in ("t", "D1", "D1+t")))
        toy_check = tower_dimension_check(toy, toy_param)
    ok = (check.passed and check.dimension == 2 and rank == 3
          and toy_check.passed and toy_check.dimension == 1)
    report(11, ok, f"tower dim {check.dimension}, rank {rank}, toy dim "
                   f"{toy_check.dimension}", t)


def test_criterion_12_property_suites():
    rng = random.Random("criterion12")
    with Timer(300) as t:
        # Groebner canonicity under generator permutation
        ring = RingContext(("x", "y", "z"))
        texts = ["x^2*y-z", "y^2*z-x", "z^2*x-y"]
        base = groebner_basis(Ideal(ring, [parse_polynomial(s, ring)
                                           for s in texts])).basis
        for _ in range(3):
            shuffled = texts[:]
            rng.shuffle(shuffled)
            gb = groebner_basis(Ideal(ring, [parse_polynomial(s, ring)
                                             for s in shuffled])).basis
            assert gb == base

        # saturation idempotence and containment
        rxy = RingContext(("x", "y"))
        ideal = Ideal(rxy, [parse_polynomial("x^3*y-x*y", rxy)])
        j = Ideal(rxy, [parse_polynomial("x", rxy)])
        once = saturate(ideal, j)
        assert once.equals(saturate(once, j))
        gb_once = once.groebner()
        for g in ideal.generators:
            assert normal_form(g, gb_once).is_zero()

        # elimination soundness
        r3 = RingContext(("x", "y", "z"))
        big_ideal = Ideal(r3, [parse_polynomial("x^2+y^2+z^2-1", r3),
                               parse_polynomial("x*y-z", r3)])
        out = eliminate(big_ideal, ["z"])
        gb = big_ideal.groebner()
        zi = r3.index("z")
        for g in out.generators:
            lifted = g.transfer(r3)
            assert normal_form(lifted, gb).is_zero()
            assert all(e[zi] == 0 for e, _ in lifted.sorted_terms())

        # degree order invariance (grevlex vs a block order)
        from optdeg import OrderSpec
        ring_l = RingContext(("x", "y"), order=OrderSpec("block", ("x",)))
        zero_dim = ("x^2+y^2-4", "x*y-1")
        assert degree_zero_dim(Ideal(rxy, [parse_polynomial(s, rxy)
                                           for s in zero_dim])) == \
            degree_zero_dim(Ideal(ring_l, [parse_polynomial(s, ring_l)
                                           for s in zero_dim]))

        # Q vs F_q agreement on criteria 1-3 instances
        for field in (None, GF):
            e = _ellipse(field)
            assert algebraic_degree(e, PNorm(4), trials=2, seed=1).degree == 8
            u = (Fraction(-6, 10), Fraction(6, 10))
            assert degree_zero_dim(
                critical_ideal_affine(e, PNorm(3), u=u)) == 6
        for field in (None, GF):
            ring2 = RingContext(("x1", "x2"), field=field)
            curve = VarietySpec(ring2,
                                (parse_polynomial("x1^2+x1*x2+2*x2^2+x1-3", ring2),))
            rep = algebraic_degree(curve, PNorm(3), trials=2, seed=12)
            assert rep.degree == 2 * (2 + 3 - 2)

        # constant fiber cardinality over >= 5 samples
        rep5 = algebraic_degree(_ellipse(), PNorm(3), trials=5, seed=13)
        assert rep5.agreement and rep5.degree == 6
    report(12, True, "property suites (canonicity, saturation, elimination, "
                     "order invariance, field agreement, fiber cardinality)", t)
