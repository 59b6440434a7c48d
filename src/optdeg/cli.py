"""Batch front end: read a job document, dispatch to the domain modules, and
emit a machine-readable report.

One job per invocation; all randomness flows from the job's single seed, so
reports are byte-identical across runs (timings are reported only on
request, to keep the default output deterministic).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import formulas
from .conormal import (bidegree_class, joint_correspondence_ideal,
                       polar_classes, pnorm_degree_via_polar, s_conormal_ideal)
from .critical import (PNorm, RationalGradient, VarietySpec, _check_partial,
                       _singular_beyond_vertex, affine_counter,
                       algebraic_degree, data_ring, evolute_curve,
                       projective_pnorm_degree, singular_locus_ideal)
from .errors import (BudgetExceeded, OptdegError, PositiveDimensionalFiber,
                     SchemaError, SizeOutOfRange, ZeroDenominator)
from .fields import field_from_spec
from .groebner import DEFAULT_BUDGET, GREVLEX, as_budget, dimension
from .parsing import format_polynomial, parse_polynomial, parse_rational_function
from .rings import RingContext
from .towers import (ParametrizationSpec, TowerLevel, TowerSpec,
                     tower_dimension_check, tower_jacobian_rank, tower_ring)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4


def _is_int(value):
    """True for a JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(doc, key, kind, where):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be an object")
    if key not in doc:
        raise SchemaError(f"missing {key!r} in {where}")
    value = doc[key]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise SchemaError(f"{where}.{key} has the wrong type")
    return value


def _ints(options, key):
    """options[key], a list of JSON integers, as a tuple."""
    values = _require(options, key, list, "options")
    if not all(map(_is_int, values)):
        raise SchemaError(f"options.{key} must be a list of integers")
    return tuple(values)


def _int_pairs(options, key):
    """options[key], a list of two-integer lists, as a tuple of pairs."""
    pairs = _require(options, key, list, "options")
    if not all(isinstance(q, list) and len(q) == 2 and all(map(_is_int, q))
               for q in pairs):
        raise SchemaError(f"options.{key} must be a list of two-integer lists")
    return tuple(map(tuple, pairs))


def _load_field(ring_doc):
    spec = ring_doc.get("field", "rational")
    if not isinstance(spec, str):
        raise SchemaError("ring.field must be a string")
    try:
        return field_from_spec(spec)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _load_ring(doc):
    ring_doc = _require(doc, "ring", dict, "job")
    variables = _require(ring_doc, "variables", list, "ring")
    if not variables or not all(isinstance(v, str) for v in variables):
        raise SchemaError("ring.variables must be a non-empty list of names")
    return RingContext(tuple(variables), _load_field(ring_doc))


def _parse(parse, text, ring, where):
    """parse(text, ring), with a grammar error reported as a schema error; a
    zero denominator and a monomial past the packed field widths stay
    domain errors, the latter named by `where` as a grammar error is."""
    if not isinstance(text, str):
        raise SchemaError(f"{where} must be a string in the polynomial grammar")
    try:
        return parse(text, ring)
    except ZeroDenominator:
        raise
    except SizeOutOfRange as exc:
        raise SizeOutOfRange(f"{where}: {exc}") from None
    except OptdegError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _load_variety(doc, ring):
    var_doc = _require(doc, "variety", dict, "job")
    gen_texts = _require(var_doc, "generators", list, "variety")
    for key in var_doc:
        if key != "generators":
            raise SchemaError(f"unknown key {key!r} in variety")
    gens = [_parse(parse_polynomial, t, ring, f"variety.generators[{i}]")
            for i, t in enumerate(gen_texts)]
    try:
        return VarietySpec(ring, tuple(gens))
    except (ValueError, OptdegError) as exc:
        raise SchemaError(str(exc)) from None


def _load_objective(doc, ring):
    obj_doc = _require(doc, "objective", dict, "job")
    if "pnorm" in obj_doc:
        p = obj_doc["pnorm"]
        if not _is_int(p) or p < 1:
            raise SchemaError("objective.pnorm must be an integer >= 1")
        return PNorm(p)
    if "rational_gradient" in obj_doc:
        entries = obj_doc["rational_gradient"]
        if not isinstance(entries, list) or len(entries) != ring.nvars:
            raise SchemaError("objective.rational_gradient needs one entry "
                              "per ring variable")
        big, unames = data_ring(ring)
        partials = []
        for i, entry in enumerate(entries):
            where = f"objective.rational_gradient[{i}]"
            if isinstance(entry, dict):
                num = _require(entry, "num", str, where)
                den = entry.get("den", "1")
                text = f"({num})/({den})"
            elif isinstance(entry, str):
                text = entry
            else:
                raise SchemaError(f"{where} must be a string or num/den object")
            partial = _parse(parse_rational_function, text, big, where)
            try:
                _check_partial(i, partial, big, unames)
            except ValueError as exc:
                raise SchemaError(f"{where}: {exc}") from None
            partials.append(partial)
        return RationalGradient(tuple(partials))
    raise SchemaError("objective must contain 'pnorm' or 'rational_gradient'")


def _load_point(values, ring, where):
    if not isinstance(values, list) or len(values) != ring.nvars:
        raise SchemaError(f"{where} must list one coordinate per variable")
    out = []
    for v in values:
        if _is_int(v):
            out.append(v)
        elif isinstance(v, str):
            value = _parse(parse_polynomial, v, ring, where)
            if not value.is_constant():
                raise SchemaError(
                    f"{where} coordinate {v!r} is not a constant")
            out.append(value.constant_value())
        else:
            raise SchemaError(f"{where} coordinates must be integers or "
                              "rational strings")
    return tuple(out)


def _option_p(options, least=1):
    """options.p; the projective constructions and the evolute need
    p >= 2."""
    p = options.get("p")
    if not _is_int(p) or p < least:
        raise SchemaError(f"options.p must be an integer >= {least}")
    return p


class _Timings:
    def __init__(self):
        self.stages = []

    def stage(self, name, t0):
        self.stages.append((name, round(time.perf_counter() - t0, 6)))


def _report_degree(rep):
    return {
        "degree": rep.degree,
        "agreement": rep.agreement,
        "field": rep.field,
        "seed": rep.seed,
        "trials": [{"u": [str(c) for c in u], "count": count}
                   for u, count in rep.trials],
        "warnings": rep.warnings,
    }


def _cmd_degree(job, variety, budget, timings):
    objective = _load_objective(job, variety.ring)
    options = job.get("options", {})
    t0 = time.perf_counter()
    if "u" in options:
        u = _load_point(options["u"], variety.ring, "options.u")
        u_text = [str(c) for c in u]
        count = affine_counter(variety, objective, budget)(u)
        if count is None:
            raise PositiveDimensionalFiber(
                f"the critical locus at the pinned data point u = {u_text} "
                "is positive-dimensional")
        timings.stage("pinned-count", t0)
        return {"degree": count, "u": u_text, "pinned": True}
    rep = algebraic_degree(variety, objective, trials=job["trials"],
                           seed=job["seed"], budget=budget)
    timings.stage("degree-trials", t0)
    return _report_degree(rep)


def _cmd_projective_degree(job, variety, budget, timings):
    p = _option_p(job.get("options", {}), 2)
    t0 = time.perf_counter()
    rep = projective_pnorm_degree(variety, p, trials=job["trials"],
                                  seed=job["seed"], budget=budget)
    timings.stage("projective-degree", t0)
    return _report_degree(rep)


def _cmd_polar(job, variety, budget, timings):
    options = job.get("options", {})
    ps = options.get("pnorms", [])
    if not isinstance(ps, list) or not all(_is_int(p) and p >= 1 for p in ps):
        raise SchemaError("options.pnorms must list integers >= 1")
    t0 = time.perf_counter()
    pc = polar_classes(variety, budget=budget)
    timings.stage("polar-classes", t0)
    result = {"polar_classes": list(pc.values)}
    if ps:
        result["pnorm_degrees"] = {
            str(p): formulas.polar_formula(p, pc.values, variety.n)
            for p in ps}
    return result


def _cmd_conormal(job, variety, budget, timings):
    options = job.get("options", {})
    s = options.get("s", 1)
    if not _is_int(s) or s < 1:
        raise SchemaError("options.s must be an integer >= 1")
    t0 = time.perf_counter()
    ideal = s_conormal_ideal(variety, s, budget)
    timings.stage("conormal-ideal", t0)
    xnames = variety.ring.variables
    ynames = ideal.ring.variables[variety.n:]
    t0 = time.perf_counter()
    cls = bidegree_class(ideal, xnames, ynames, budget=budget)
    timings.stage("bidegree", t0)
    return {
        "s": s,
        "generators": [format_polynomial(g) for g in ideal.generators],
        "bidegree": [{"x_power": a, "y_power": b, "coefficient": c}
                     for (a, b), c in cls.coefficients],
    }


def _cmd_joint(job, variety, budget, timings):
    p = _option_p(job.get("options", {}), 2)
    t0 = time.perf_counter()
    ideal = joint_correspondence_ideal(variety, p, budget)
    timings.stage("joint-ideal", t0)
    return {
        "p": p,
        "generators": [format_polynomial(g) for g in ideal.generators],
        "dimension": dimension(ideal, budget),
    }


def _cmd_formula(job, timings):
    options = job.get("options", {})
    kind = _require(options, "kind", str, "options")
    t0 = time.perf_counter()
    try:
        if kind == "polar":
            value = formulas.polar_formula(
                _require(options, "p", int, "options"),
                _ints(options, "delta"),
                _require(options, "n", int, "options"))
        elif kind == "chern":
            degs = _ints(options, "chern_degrees")
            value = formulas.chern_formula(
                _require(options, "p", int, "options"),
                formulas.ChernDegrees(len(degs) - 1, degs))
        elif kind == "hypersurface":
            value = formulas.hypersurface_formula(
                _require(options, "d", int, "options"),
                _require(options, "n", int, "options"),
                _require(options, "p", int, "options"))
        elif kind == "ci-bound":
            value = formulas.ci_bound(
                _ints(options, "degrees"),
                _require(options, "n", int, "options"),
                _require(options, "p", int, "options"))
        elif kind == "toric":
            volumes = _ints(options, "volumes")
            value = formulas.toric_formula(
                _require(options, "p", int, "options"),
                formulas.ToricVolumes(len(volumes) - 1, volumes))
        elif kind == "segre-veronese":
            pairs = _int_pairs(options, "factors")
            value = formulas.segre_veronese_formula(
                _require(options, "p", int, "options"),
                formulas.SegreVeroneseSpec(pairs))
        elif kind == "veronese":
            value = formulas.veronese_formula(
                _require(options, "p", int, "options"),
                _require(options, "n", int, "options"),
                _require(options, "omega", int, "options"))
        elif kind == "euler":
            value = formulas.euler_formula(
                _require(options, "mode", str, "options"),
                _require(options, "m", int, "options"),
                _require(options, "chi", int, "options"),
                None if options.get("p") is None
                else _require(options, "p", int, "options"))
        else:
            raise SchemaError(f"unknown formula kind {kind!r}")
    except (ValueError, TypeError) as exc:
        raise SchemaError(str(exc)) from None
    timings.stage("formula", t0)
    return {"kind": kind, "value": value}


def _cmd_evolute(job, variety, budget, timings):
    p = _option_p(job.get("options", {}), 2)
    if variety.n != 2 or len(variety.generators) != 1:
        raise SchemaError("evolute needs a plane curve: one generator in two "
                          "variables")
    t0 = time.perf_counter()
    ev = evolute_curve(variety, p, seed=job["seed"], budget=budget)
    timings.stage("evolute", t0)
    return {
        "p": p,
        "polynomial": format_polynomial(ev.poly),
        "reduced_degree": ev.reduced_degree,
        "principal": len(ev.generators) == 1,
        "warnings": ev.warnings,
    }


def _load_tower(job, ring_field):
    doc = _require(job, "tower", dict, "job")
    base = _require(doc, "base", list, "tower")
    if not all(isinstance(v, str) for v in base):
        raise SchemaError("tower.base must be a list of names")
    levels_doc = _require(doc, "levels", list, "tower")
    if not base and not levels_doc:
        raise SchemaError("tower.base and tower.levels are both empty, so the "
                          "tower ring has no variables")
    ring = tower_ring(tuple(base), len(levels_doc), ring_field)
    levels = []
    for i, level_doc in enumerate(levels_doc):
        where = f"tower.levels[{i}]"
        power = _require(level_doc, "power", int, where)
        alpha_text = _require(level_doc, "alpha", str, where)
        alpha = _parse(parse_rational_function, alpha_text, ring,
                       f"{where}.alpha")
        try:
            levels.append(TowerLevel(power, alpha))
        except (ValueError, OptdegError) as exc:
            raise SchemaError(f"{where}: {exc}") from None
    branch = None
    if doc.get("branch") is not None:
        branch = tuple(str(v) for v in _require(doc, "branch", list, "tower"))
    try:
        tower = TowerSpec(ring, tuple(base), tuple(levels), branch)
    except (ValueError, OptdegError) as exc:
        raise SchemaError(str(exc)) from None
    coords_doc = _require(doc, "parametrization", list, "tower")
    coords = [_parse(parse_rational_function, text, ring,
                     f"tower.parametrization[{i}]")
              for i, text in enumerate(coords_doc)]
    try:
        param = ParametrizationSpec(tuple(coords))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    if param.r <= len(tower.base):
        raise SchemaError("tower.parametrization needs more coordinates than "
                          "tower.base has variables")
    return tower, param


def _cmd_tower_check(job, budget, timings):
    # the ring may be left out, but is an object when given
    field = _load_field(_require({"ring": {}, **job}, "ring", dict, "job"))
    tower, param = _load_tower(job, field)
    variety = None
    if job.get("variety") is not None:
        base_ring = RingContext(tower.base, field)
        variety = _load_variety(job, base_ring)
    t0 = time.perf_counter()
    check = tower_dimension_check(tower, param, variety, budget)
    timings.stage("tower-dimension", t0)
    t0 = time.perf_counter()
    rank = tower_jacobian_rank(tower, param, variety, budget)
    timings.stage("tower-rank", t0)
    return {
        "dimension": check.dimension,
        "expected_dimension": check.expected,
        "dimension_ok": check.passed,
        "jacobian_rank": rank,
        "note": check.note,
        "warnings": check.warnings,
    }


def _cmd_gb(job, variety, budget, timings):
    t0 = time.perf_counter()
    gb = variety.ideal().groebner(GREVLEX, budget)
    timings.stage("groebner", t0)
    return {
        "basis": [format_polynomial(g) for g in gb.basis],
        "dimension": dimension(variety.ideal(), budget),
    }


def _projective_formulas(options, p):
    """The closed forms that crossvalidate's options ask for on a projective
    variety, checked and evaluated before any count runs."""
    values = {}
    if "curve" in options:
        cd = _require(options, "curve", dict, "options")
        d = _require(cd, "d", int, "options.curve")
        g = _require(cd, "g", int, "options.curve")
        if d < 1 or g < 0:
            raise SchemaError("options.curve needs a degree d >= 1 and a "
                              "genus g >= 0")
        values["curve_formula"] = formulas.chern_formula(
            p, formulas.ChernDegrees(1, (d, 2 - 2 * g)))
    try:
        if "toric_volumes" in options:
            volumes = _ints(options, "toric_volumes")
            values["toric_formula"] = formulas.toric_formula(
                p, formulas.ToricVolumes(len(volumes) - 1, volumes))
        if "segre_veronese" in options:
            pairs = _int_pairs(options, "segre_veronese")
            values["segre_veronese_formula"] = \
                formulas.segre_veronese_formula(
                    p, formulas.SegreVeroneseSpec(pairs))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    return values


def _cmd_crossvalidate(job, variety, budget, timings):
    options = job.get("options", {})
    p = _option_p(options, 2 if variety.is_homogeneous() else 1)
    values = {}
    notes = []
    if variety.is_homogeneous():
        closed_forms = _projective_formulas(options, p)
        t0 = time.perf_counter()
        rep = projective_pnorm_degree(variety, p, trials=job["trials"],
                                      seed=job["seed"], budget=budget)
        timings.stage("projective-degree", t0)
        values["symbolic_projective"] = rep.degree
        t0 = time.perf_counter()
        values["polar_pipeline"] = pnorm_degree_via_polar(
            variety, p, budget=budget)
        timings.stage("polar-pipeline", t0)
        if len(variety.generators) == 1:
            # the closed form holds for a smooth hypersurface, whose cone is
            # singular at the vertex alone
            if _singular_beyond_vertex(variety, budget):
                notes.append("hypersurface is singular; hypersurface formula "
                             "skipped")
            else:
                d = variety.generators[0].total_degree()
                values["hypersurface_formula"] = formulas.hypersurface_formula(
                    d, variety.n, p)
        values.update(closed_forms)
    else:
        t0 = time.perf_counter()
        rep = algebraic_degree(variety, PNorm(p), trials=job["trials"],
                               seed=job["seed"], budget=budget)
        timings.stage("degree-trials", t0)
        values["symbolic_affine"] = rep.degree
        if variety.n == 2 and len(variety.generators) == 1:
            sing = singular_locus_ideal(variety, budget)
            smooth = sing.groebner(GREVLEX, budget).is_unit()
            if smooth:
                d = variety.generators[0].total_degree()
                values["plane_curve_formula"] = d * (d + p - 2)
            else:
                notes.append("curve is singular; plane-curve formula skipped")
        degrees = [g.total_degree() for g in variety.generators]
        if len(degrees) == variety.codimension(budget):
            bound = formulas.ci_bound(degrees, variety.n, p)
            values["ci_bound"] = bound
            notes.append("ci_bound is an upper bound, not an equality check")
    comparable = [v for k, v in values.items() if k != "ci_bound"]
    verdict = "AGREE" if len(set(comparable)) == 1 else "DISAGREE"
    if "ci_bound" in values and values.get("symbolic_affine") is not None:
        if values["symbolic_affine"] > values["ci_bound"]:
            verdict = "DISAGREE"
            notes.append("degree exceeds the complete-intersection bound")
    return {"p": p, "values": values, "verdict": verdict, "notes": notes}


_VARIETY_COMMANDS = {
    "degree": _cmd_degree,
    "projective-degree": _cmd_projective_degree,
    "polar": _cmd_polar,
    "conormal": _cmd_conormal,
    "joint": _cmd_joint,
    "evolute": _cmd_evolute,
    "crossvalidate": _cmd_crossvalidate,
    "gb": _cmd_gb,
}


def run_job(command, job, timings_wanted=False):
    """Execute one job document; returns its report, a dict.  A job that
    fails raises its OptdegError; `main` turns that into an exit code."""
    if not isinstance(job, dict):
        raise SchemaError("job document must be a JSON object")
    version = job.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version}")
    job.setdefault("seed", 0)
    job.setdefault("trials", 2)
    if not _is_int(job["seed"]):
        raise SchemaError("seed must be an integer")
    if not _is_int(job["trials"]) or job["trials"] < 2:
        raise SchemaError("trials must be an integer >= 2")
    budget = job.get("budget", DEFAULT_BUDGET)
    if not _is_int(budget):
        raise SchemaError("budget must be an integer")
    if not isinstance(job.get("options", {}), dict):
        raise SchemaError("options must be an object")
    budget = as_budget(budget)
    timings = _Timings()

    if command == "formula":
        result = _cmd_formula(job, timings)
    elif command == "tower-check":
        result = _cmd_tower_check(job, budget, timings)
    elif command in _VARIETY_COMMANDS:
        variety = _load_variety(job, _load_ring(job))
        result = _VARIETY_COMMANDS[command](job, variety, budget, timings)
    else:
        raise SchemaError(f"unknown command {command!r}")

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": job,
        "result": result,
    }
    if timings_wanted:
        report["timings"] = {name: dt for name, dt in timings.stages}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="optdeg",
        description="Exact computation of algebraic degrees of optimization "
                    "over varieties")
    parser.add_argument("command",
                        choices=["formula", "tower-check", *_VARIETY_COMMANDS])
    parser.add_argument("--job", required=True, help="job JSON document")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--field", default=None,
                        help="rational or prime:<q>; replaces ring.field")
    parser.add_argument("--budget", type=int, default=None,
                        help="reduction-step budget")
    parser.add_argument("--out", default=None, help="write the report here")
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock stage timings in the report")
    args = parser.parse_args(argv)

    try:
        try:
            with open(args.job, "r", encoding="utf-8") as fh:
                job = json.load(fh)
        except OSError as exc:
            raise SchemaError(f"cannot read job file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise SchemaError(f"job file is not valid JSON: {exc}") from None
        if not isinstance(job, dict):
            raise SchemaError("job document must be a JSON object")
        if args.seed is not None:
            job["seed"] = args.seed
        if args.trials is not None:
            job["trials"] = args.trials
        if args.budget is not None:
            job["budget"] = args.budget
        if args.field is not None:
            job.setdefault("ring", {})
            if isinstance(job["ring"], dict):
                job["ring"]["field"] = args.field
        report = run_job(args.command, job, timings_wanted=args.timings)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OptdegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN

    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
