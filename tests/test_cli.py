import json
import time

import pytest

from optdeg import (PNorm, RingContext, VarietySpec, cli, critical,
                    critical_ideal_affine, field_from_spec, groebner,
                    parse_polynomial)
from optdeg.cli import (EXIT_BUDGET, EXIT_DOMAIN, EXIT_OK, EXIT_SCHEMA, main,
                        run_job)
from optdeg.errors import SchemaError
from optdeg.groebner import _count_points


def write_job(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def ellipse_job():
    return {
        "schema_version": 1,
        "ring": {"variables": ["x1", "x2"], "field": "rational"},
        "variety": {"generators": ["x1^2+4*x2^2-1"]},
        "objective": {"pnorm": 4},
        "seed": 1,
        "trials": 3,
    }


def run_cli(tmp_path, command, doc, *extra, capsys=None):
    path = write_job(tmp_path, doc)
    return main([command, "--job", path, *extra])


def test_degree_command(tmp_path, capsys, ellipse_job):
    rc = run_cli(tmp_path, "degree", ellipse_job)
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["result"]["degree"] == 8
    assert out["result"]["agreement"] is True
    assert len(out["result"]["trials"]) == 3


def test_degree_pinned_u(tmp_path, capsys, ellipse_job):
    job = dict(ellipse_job)
    job["objective"] = {"pnorm": 3}
    job["options"] = {"u": ["-6/10", "6/10"]}
    rc = run_cli(tmp_path, "degree", job)
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["result"]["degree"] == 6
    assert out["result"]["pinned"] is True


def _pinned_job(generator, objective, u):
    return {"schema_version": 1,
            "ring": {"variables": ["x1", "x2"], "field": "rational"},
            "variety": {"generators": [generator]},
            "objective": objective, "options": {"u": u}}


def test_degree_pinned_u_without_critical_points(tmp_path, capsys):
    # the likelihood equations u1/x1 = u2/x2 on x1 + x2 = 1 force u1 + u2 = 1
    job = _pinned_job("x1+x2-1", {"rational_gradient": ["u1/x1", "u2/x2"]},
                      [1, -1])
    rc = run_cli(tmp_path, "degree", job)
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["result"] == {"degree": 0, "u": ["1", "-1"], "pinned": True}


@pytest.mark.parametrize("field", ["rational", "prime:2147483647"],
                         ids=["QQ", "GF"])
def test_degree_pinned_u_on_a_singular_curve(monkeypatch, field):
    """A pinned count on the nodal cubic is counted as a trial is: it
    subtracts the length at the node, so no Groebner run has a ring with a
    sat_w variable, and it counts what the saturating oracle counts, whose
    saturation does."""
    generator, u = "x2^2-x1^2*(x1+1)", (7, -3)
    runs = []
    original = groebner.groebner_basis

    def recorded(ideal, *args, **kwargs):
        runs.append("sat_w" in ideal.ring.variables)
        return original(ideal, *args, **kwargs)
    monkeypatch.setattr(groebner, "groebner_basis", recorded)
    monkeypatch.setattr(critical, "groebner_basis", recorded)
    job = _pinned_job(generator, {"pnorm": 2}, list(u))
    job["ring"]["field"] = field
    result = run_job("degree", job)["result"]
    assert runs and not any(runs)
    ring = RingContext(("x1", "x2"), field_from_spec(field))
    X = VarietySpec(ring, (parse_polynomial(generator, ring),))
    want = _count_points(critical_ideal_affine(X, PNorm(2), u=u), None)
    assert any(runs)
    assert result == {"degree": want, "u": ["7", "-3"], "pinned": True}


def test_degree_pinned_u_positive_dimensional_fiber(tmp_path, capsys):
    # every point of the circle is critical for its center
    job = _pinned_job("x1^2+x2^2-1", {"pnorm": 2}, [0, 0])
    rc = run_cli(tmp_path, "degree", job)
    err = capsys.readouterr().err
    assert rc == EXIT_DOMAIN
    assert "positive-dimensional" in err
    assert "u = ['0', '0']" in err


def test_formula_command(tmp_path, capsys):
    job = {"schema_version": 1,
           "options": {"kind": "hypersurface", "d": 2, "n": 3, "p": 3}}
    rc = run_cli(tmp_path, "formula", job)
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["result"]["value"] == 12


def test_schema_error_exit_code(tmp_path, capsys, ellipse_job):
    job = dict(ellipse_job)
    job["variety"] = {"generators": ["x1^2+zz-1"]}
    rc = run_cli(tmp_path, "degree", job)
    assert rc == EXIT_SCHEMA


def test_missing_objective_is_schema_error(tmp_path, capsys, ellipse_job):
    job = dict(ellipse_job)
    del job["objective"]
    rc = run_cli(tmp_path, "degree", job)
    assert rc == EXIT_SCHEMA


# rational gradients whose partial i does not involve u_i alone among the
# data variables used to end in a ValueError traceback
@pytest.mark.parametrize("gradient, message", [
    (["1/x1", "u2"], "partial derivative 1 does not depend on u1"),
    (["u1*u2", "u2"], "partial derivative 1 may only involve u1"),
], ids=["missing-own-variable", "other-variable"])
def test_rational_gradient_entry_is_schema_error(tmp_path, capsys, gradient,
                                                 message):
    job = {
        "schema_version": 1,
        "ring": {"variables": ["x1", "x2"], "field": "rational"},
        "variety": {"generators": ["x1^2+x2^2-1"]},
        "objective": {"rational_gradient": gradient},
        "seed": 0,
    }
    rc = run_cli(tmp_path, "degree", job)
    err = capsys.readouterr().err
    assert rc == EXIT_SCHEMA
    assert err.startswith(
        f"schema error: objective.rational_gradient[0]: {message}")


# a line at p >= 3 has no evolute: the envelope condition fixes x2 = u2 and
# leaves u1 free, and the elimination used to end in a ValueError traceback;
# a circle's normals all meet at its centre, so at p = 2 its envelope is a
# point, and the report used to give the polynomial u1; a line's normals
# are parallel, so at p = 2 its envelope is empty, and the report used to
# give the polynomial 1 of reduced degree 0
@pytest.mark.parametrize("command, generator, p, message", [
    ("projective-degree", "x1^2+4*x2^2-1", 2, "must be homogeneous"),
    ("evolute", "x1-1", 3, "eliminated to the zero ideal"),
    ("evolute", "x1^2+x2^2-4", 2, "not a curve"),
    ("evolute", "x1+2*x2-1", 2, "eliminated to the unit ideal"),
], ids=["not-homogeneous", "evolute-of-a-line", "evolute-of-a-circle",
        "evolute-of-a-line-p2"])
def test_domain_error_exit_code(tmp_path, capsys, command, generator, p,
                                message):
    job = {
        "schema_version": 1,
        "ring": {"variables": ["x1", "x2"], "field": "rational"},
        "variety": {"generators": [generator]},
        "options": {"p": p},
        "seed": 0,
    }
    rc = run_cli(tmp_path, command, job)
    err = capsys.readouterr().err
    assert rc == EXIT_DOMAIN
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("variety", [
    {"generators": ["3"]},
    {"generators": ["x1^2+4*x2^2-1"], "codim": 2},
], ids=["constant", "codim-override"])
def test_evolute_of_a_variety_that_is_not_a_curve(tmp_path, capsys, variety):
    """Both used to report the evolute polynomial 1, of reduced degree 0."""
    job = {"schema_version": 1, "ring": {"variables": ["x1", "x2"]},
           "variety": variety, "options": {"p": 2}}
    assert run_cli(tmp_path, "evolute", job) == EXIT_DOMAIN
    assert "codimension is not 1" in capsys.readouterr().err


@pytest.mark.parametrize("job_part", [
    {"variety": {"generators": ["x1^2+1/2147483647*x2^2-1"]}},
    {"variety": {"generators": ["x1^2+4*x2^2-1"]},
     "options": {"u": ["1/2147483647", "3"]}},
])
def test_denominator_zero_mod_q_is_domain_error(tmp_path, capsys, job_part):
    job = {
        "schema_version": 1,
        "ring": {"variables": ["x1", "x2"], "field": "prime:2147483647"},
        "objective": {"pnorm": 2},
        "seed": 0,
        **job_part,
    }
    rc = run_cli(tmp_path, "degree", job)
    err = capsys.readouterr().err
    assert rc == EXIT_DOMAIN
    assert err.startswith("error:") and "zero in GF(2147483647)" in err


def _pole_job(field):
    """An ellipse with a rational gradient whose partial i has the pole
    u_i = 0; over QQ seed 624 first draws u = (0, -298)."""
    return {"schema_version": 1,
            "ring": {"variables": ["x1", "x2"], "field": field},
            "variety": {"generators": ["x1^2+2*x2^2-3"]},
            "objective": {"rational_gradient": ["(x1-u1)/(u1*x1)",
                                                "(x2-u2)/(u2*x2)"]},
            "seed": 624}


@pytest.mark.parametrize("field", ["rational", "prime:2147483647"],
                         ids=["QQ", "GF"])
def test_drawn_data_point_on_a_pole_is_redrawn(tmp_path, capsys, field):
    """A drawn u on a pole of the gradient is redrawn once, as a draw that
    cannot be counted is; the job used to exit with ZeroDenominator."""
    rc = run_cli(tmp_path, "degree", _pole_job(field))
    result = json.loads(capsys.readouterr().out)["result"]
    assert rc == EXIT_OK
    assert result["degree"] == 6 and result["agreement"] is True
    if field == "rational":
        assert result["trials"][0]["u"] == ["454", "883"]


def test_pinned_data_point_on_a_pole_is_domain_error(tmp_path, capsys):
    job = {**_pole_job("rational"), "options": {"u": [0, -298]}}
    rc = run_cli(tmp_path, "degree", job)
    err = capsys.readouterr().err
    assert rc == EXIT_DOMAIN
    assert "vanishes at the data point" in err


@pytest.mark.parametrize("generator", [
    "x1^40000+x2^2-1",
    "x1^40000-x1^40000+x2^2-1",
    "(x1+x2)^40000+x2^2-1",
], ids=["kept", "cancelled", "power"])
def test_exponent_past_the_packed_widths_is_domain_error(tmp_path, capsys,
                                                        generator):
    """A parsed monomial past the packed field widths raises as it is
    built, before any term cancels it, and a power that cannot fit raises
    before it is expanded; the error names the input."""
    job = {
        "schema_version": 1,
        "ring": {"variables": ["x1", "x2"], "field": "rational"},
        "variety": {"generators": [generator]},
        "objective": {"pnorm": 2},
        "seed": 0,
    }
    t0 = time.perf_counter()
    rc = run_cli(tmp_path, "degree", job)
    assert time.perf_counter() - t0 < 5
    err = capsys.readouterr().err
    assert rc == EXIT_DOMAIN
    assert err.startswith("error: variety.generators[0]: ")
    assert "packed field widths" in err


@pytest.mark.parametrize("command, variables, generator, name", [
    ("crossvalidate", ["x1", "y1", "x3"], "x1^2+y1^2-2*x3^2", "y1"),
    ("degree", ["x1", "u1"], "x1^2+4*u1^2-1", "u1"),
])
def test_auxiliary_name_collision_is_domain_error(tmp_path, capsys, command,
                                                  variables, generator, name):
    job = {
        "schema_version": 1,
        "ring": {"variables": variables, "field": "prime:2147483647"},
        "variety": {"generators": [generator]},
        "objective": {"pnorm": 2},
        "options": {"p": 2},
        "seed": 0,
    }
    rc = run_cli(tmp_path, command, job)
    err = capsys.readouterr().err
    assert rc == EXIT_DOMAIN
    assert err.startswith("error:") and f"{name!r} collides" in err


def test_tower_base_may_name_a_variable_z(tmp_path, capsys):
    """The tower check adjoins no Y1..Yr or Z, so a base variable may carry
    those names and reports what any other name reports."""
    results = []
    for name in ("Z", "t"):
        job = {
            "schema_version": 1,
            "tower": {
                "base": ["x1", name],
                "levels": [{"power": 2, "alpha": f"{name}*x1"}],
                "parametrization": ["x1", name, "x1+D1"],
            },
        }
        assert run_cli(tmp_path, "tower-check", job) == EXIT_OK
        results.append(json.loads(capsys.readouterr().out)["result"])
    assert results[0] == results[1]


@pytest.mark.parametrize("command, job_part, name", [
    ("degree", {"ring": {"variables": ["x1", "x1"]},
                "variety": {"generators": ["x1^2-1"]},
                "objective": {"pnorm": 2}}, "x1"),
    ("tower-check", {"tower": {"base": ["x1", "D1"],
                               "levels": [{"power": 2, "alpha": "x1"}],
                               "parametrization": ["x1", "D1"]}}, "D1"),
    ("tower-check", {"tower": {"base": ["x1", "x1"], "levels": [],
                               "parametrization": ["x1", "x1", "1"]}}, "x1"),
])
def test_repeated_variable_name_is_domain_error(tmp_path, capsys, command,
                                                job_part, name):
    rc = run_cli(tmp_path, command, {"schema_version": 1, **job_part})
    err = capsys.readouterr().err
    assert rc == EXIT_DOMAIN
    assert err.startswith("error:") and f"{name!r} appears twice" in err


def test_tower_check_bad_field_is_schema_error(tmp_path, capsys):
    job = {
        "schema_version": 1,
        "ring": {"field": "prime:91"},
        "tower": {
            "base": ["x1", "s"],
            "levels": [{"power": 2, "alpha": "s*x1"}],
            "parametrization": ["x1", "s", "x1+D1"],
        },
    }
    rc = run_cli(tmp_path, "tower-check", job)
    err = capsys.readouterr().err
    assert rc == EXIT_SCHEMA
    assert err.startswith("schema error:") and "91" in err


def test_a_pseudoprime_modulus_is_schema_error(tmp_path, capsys):
    """399165290221 * 798330580441, a strong pseudoprime to the twelve
    bases 2..37, is refused as a field modulus: taken, it crashed the
    Groebner run on the first lead coefficient with no inverse."""
    q = 318665857834031151167461
    job = {
        "schema_version": 1,
        "ring": {"variables": ["x1", "x2"], "field": f"prime:{q}"},
        "variety": {"generators": ["399165290221*x1^2+x2^2-1"]},
    }
    rc = run_cli(tmp_path, "gb", job)
    err = capsys.readouterr().err
    assert rc == EXIT_SCHEMA
    assert err.startswith("schema error:") and str(q) in err


def test_tower_parametrization_must_be_text(tmp_path, capsys):
    job = {
        "schema_version": 1,
        "tower": {
            "base": ["x1", "s"],
            "levels": [{"power": 2, "alpha": "s*x1"}],
            "parametrization": ["x1", 3, "x1+D1"],
        },
    }
    rc = run_cli(tmp_path, "tower-check", job)
    assert rc == EXIT_SCHEMA
    assert "tower.parametrization[1] must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["projective-degree", "joint",
                                     "crossvalidate"])
def test_projective_commands_need_p_at_least_two(tmp_path, capsys, command):
    job = {
        "schema_version": 1,
        "ring": {"variables": ["x1", "x2", "x3"], "field": "rational"},
        "variety": {"generators": ["x1^2+x2^2-3*x3^2"]},
        "options": {"p": 1},
        "seed": 0,
    }
    rc = run_cli(tmp_path, command, job)
    err = capsys.readouterr().err
    assert rc == EXIT_SCHEMA
    assert "options.p must be an integer >= 2" in err


@pytest.mark.parametrize("field", ["rational", "prime:2147483647"])
def test_evolute_needs_p_at_least_two(tmp_path, capsys, field):
    """At p = 1 the envelope does not depend on u; the evolute of the
    circle used to report "1" with reduced degree 0."""
    job = {
        "schema_version": 1,
        "ring": {"variables": ["x1", "x2"], "field": field},
        "variety": {"generators": ["x1^2+x2^2-1"]},
        "options": {"p": 1},
        "seed": 0,
    }
    rc = run_cli(tmp_path, "evolute", job)
    err = capsys.readouterr().err
    assert rc == EXIT_SCHEMA
    assert "options.p must be an integer >= 2" in err


def _crossvalidate_ellipse():
    return {"schema_version": 1,
            "ring": {"variables": ["x1", "x2"], "field": "rational"},
            "variety": {"generators": ["x1^2+4*x2^2-4"]},
            "options": {"p": 2}, "seed": 1, "trials": 2}


def _set(doc, path, value):
    *outer, key = path
    for k in outer:
        doc = doc[k]
    doc[key] = value


# JSON integers only: a bool is an int in Python, and a float or a string
# used to be truncated, coerced or end in a traceback
@pytest.mark.parametrize("command, path, value, message", [
    ("crossvalidate", ("options", "p"), True, "options.p must be an integer"),
    ("crossvalidate", ("options", "p"), 2.0, "options.p must be an integer"),
    ("crossvalidate", ("variety", "codim"), True,
     "variety.codim must be an integer"),
    ("crossvalidate", ("seed",), True, "seed must be an integer"),
    ("crossvalidate", ("seed",), 1.5, "seed must be an integer"),
    ("crossvalidate", ("trials",), True, "trials must be an integer"),
    ("crossvalidate", ("trials",), 2.0, "trials must be an integer"),
    ("crossvalidate", ("budget",), 2.7, "budget must be an integer"),
    ("crossvalidate", ("budget",), True, "budget must be an integer"),
    ("crossvalidate", ("budget",), "abc", "budget must be an integer"),
    ("degree", ("options", "u"), [True, 1],
     "options.u coordinates must be integers"),
    ("degree", ("objective", "pnorm"), True,
     "objective.pnorm must be an integer"),
], ids=["p-bool", "p-float", "codim-bool", "seed-bool", "seed-float",
        "trials-bool", "trials-float", "budget-float", "budget-bool",
        "budget-string", "u-bool", "pnorm-bool"])
def test_job_integers_reject_bools_floats_and_strings(tmp_path, capsys,
                                                      command, path, value,
                                                      message):
    job = _crossvalidate_ellipse()
    job["objective"] = {"pnorm": 2}
    _set(job, path, value)
    rc = run_cli(tmp_path, command, job)
    assert rc == EXIT_SCHEMA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key", ["d", "n", "p"])
def test_formula_integers_reject_bools(tmp_path, capsys, key):
    options = {"kind": "hypersurface", "d": 2, "n": 3, "p": 3}
    options[key] = True
    rc = run_cli(tmp_path, "formula", {"schema_version": 1,
                                       "options": options})
    assert rc == EXIT_SCHEMA
    assert f"options.{key} has the wrong type" in capsys.readouterr().err


def _formula(kind, **options):
    return "formula", {"schema_version": 1,
                       "options": {"kind": kind, "p": 3, **options}}


def _crossvalidate_line(**options):
    return "crossvalidate", {
        "schema_version": 1,
        "ring": {"variables": ["x1", "x2", "x3"],
                 "field": "prime:2147483647"},
        "variety": {"generators": ["x3"]},
        "options": {"p": 2, **options}}


# every element of a list-valued integer option is a JSON integer; floats
# and bools used to reach the formulas and give non-integer or wrong values
@pytest.mark.parametrize("command, job, message", [
    (*_formula("polar", n=3, delta=[2.5, 2]),
     "options.delta must be a list of integers"),
    (*_formula("polar", n=3, delta=[True, 2]),
     "options.delta must be a list of integers"),
    (*_formula("chern", chern_degrees=[2, 0.5]),
     "options.chern_degrees must be a list of integers"),
    (*_formula("ci-bound", n=3, degrees=[2.5]),
     "options.degrees must be a list of integers"),
    (*_formula("toric", volumes=[1, "2"]),
     "options.volumes must be a list of integers"),
    (*_formula("segre-veronese", factors=[[1, 2, 1]]),
     "options.factors must be a list of two-integer lists"),
    (*_formula("segre-veronese", factors=[[1, 1.5]]),
     "options.factors must be a list of two-integer lists"),
    (*_crossvalidate_line(toric_volumes=[1, 2.5]),
     "options.toric_volumes must be a list of integers"),
    (*_crossvalidate_line(segre_veronese=[2, 1]),
     "options.segre_veronese must be a list of two-integer lists"),
    # empty lists and values the formulas reject used to end in tracebacks
    (*_formula("chern", chern_degrees=[]), "deg c_0 is the degree"),
    (*_formula("toric", volumes=[]), "top-dimensional volume must be"),
    (*_formula("segre-veronese", factors=[]), "needs a factor"),
    (*_crossvalidate_line(toric_volumes=[0]),
     "top-dimensional volume must be positive"),
    (*_crossvalidate_line(segre_veronese=[]), "needs a factor"),
], ids=["delta-float", "delta-bool", "chern-float", "degrees-float",
        "volumes-string", "factors-triple", "factors-float",
        "toric-volumes-float", "segre-veronese-flat", "chern-empty",
        "volumes-empty", "factors-empty", "toric-volumes-zero",
        "segre-veronese-empty"])
def test_list_options_reject_bad_elements(tmp_path, capsys, command, job,
                                          message):
    rc = run_cli(tmp_path, command, job)
    assert rc == EXIT_SCHEMA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("options", [
    {"toric_volumes": [1.5]},
    {"segre_veronese": [[2, 1.5]]},
    {"curve": {"d": 3}},
    {"curve": 5},
], ids=["toric-volumes", "segre-veronese", "curve-without-genus",
        "curve-not-object"])
def test_crossvalidate_checks_closed_form_options_before_counting(
        tmp_path, capsys, monkeypatch, options):
    """A malformed closed-form option exits 2 before any count runs; a
    non-object curve used to end in a TypeError traceback."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("a count ran before the options were checked")

    monkeypatch.setattr(cli, "projective_pnorm_degree", must_not_run)
    monkeypatch.setattr(cli, "pnorm_degree_via_polar", must_not_run)
    _, job = _crossvalidate_line(**options)
    assert run_cli(tmp_path, "crossvalidate", job) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("schema error:")


def _tower_job(**tower):
    return {"schema_version": 1,
            "tower": {"base": ["x1", "s"],
                      "levels": [{"power": 2, "alpha": "s*x1"}],
                      "parametrization": ["x1", "s", "x1+D1"], **tower}}


def _cone_polar(**options):
    return {"schema_version": 1,
            "ring": {"variables": ["x1", "x2", "x3"]},
            "variety": {"generators": ["x1^2+x2^2-3*x3^2"]},
            "options": options}


def _evolute(variables, *generators):
    return {"schema_version": 1, "ring": {"variables": variables},
            "variety": {"generators": list(generators)},
            "options": {"p": 2}}


def _overridden(variables, generator, singular, **job):
    """A GF(2^31 - 1) job whose singular ideal override holds no nonzero
    generator."""
    return {"schema_version": 1,
            "ring": {"variables": variables, "field": "prime:2147483647"},
            "variety": {"generators": [generator],
                        "singular_ideal": singular}, **job}


_CONIC = (["x1", "x2", "x3"], "x1^2+x2^2-2*x3^2")


# job documents of the wrong shape used to end in AttributeError, TypeError
# or ValueError tracebacks, or (euler's p, a tower base name) be accepted
@pytest.mark.parametrize("command, job, extra, message", [
    ("degree", dict(_pinned_job("x1^2+4*x2^2-1", {"pnorm": 2}, [1, 1]),
                    options=[1]), (), "options must be an object"),
    ("formula", {"schema_version": 1, "options": ["hypersurface"]}, (),
     "options must be an object"),
    ("degree", [1, 2], ("--field", "rational"),
     "job document must be a JSON object"),
    ("degree", dict(_pinned_job("x1^2+4*x2^2-1", {"pnorm": 2}, [1, 1]),
                    ring={"variables": ["x1", "x2"], "field": 5}), (),
     "ring.field must be a string"),
    ("tower-check", dict(_tower_job(), ring={"field": 5}), (),
     "ring.field must be a string"),
    ("polar", _cone_polar(pnorms=3), (),
     "options.pnorms must list integers >= 1"),
    ("tower-check", _tower_job(branch=5), (), "tower.branch has the wrong type"),
    ("tower-check", _tower_job(base=["x1", 7]), (),
     "tower.base must be a list of names"),
    (*_formula("euler", mode="projective", m=1, chi=2, p=True), (),
     "options.p has the wrong type"),
    ("evolute", _evolute(["x1", "x2"], "x1^2+4*x2^2-1", "x1-x2"), (),
     "evolute needs a plane curve"),
    ("evolute", _evolute(["x1", "x2", "x3"], "x1^2+4*x2^2-x3"), (),
     "evolute needs a plane curve"),
    ("tower-check", _tower_job(parametrization=["x1", "x1+D1"]), (),
     "needs more coordinates than tower.base has variables"),
    # a zero override used to end in a ValueError traceback
    # (projective-degree, crossvalidate) or give wrong counts (polar [0, 0],
    # the nodal cubic's degree 7 for 5)
    ("projective-degree", _overridden(*_CONIC, [], options={"p": 3}), (),
     "singular ideal override has no nonzero generator"),
    ("crossvalidate", _overridden(*_CONIC, ["0"], options={"p": 3}), (),
     "singular ideal override has no nonzero generator"),
    ("polar", _overridden(*_CONIC, []), (),
     "singular ideal override has no nonzero generator"),
    ("degree", _overridden(["x1", "x2"], "x2^2-x1^2*(x1+1)", ["0"],
                           objective={"pnorm": 2}), (),
     "singular ideal override has no nonzero generator"),
    # these used to end in ValueError and TypeError tracebacks, or ("oops")
    # report a missing 'power'
    ("degree", _pinned_job("x1^2+4*x2^2-1", {"pnorm": 2}, ["x1", "1"]), (),
     "options.u coordinate 'x1' is not a constant"),
    ("tower-check", _tower_job(levels=["power"]), (),
     "tower.levels[0] must be an object"),
    ("tower-check", _tower_job(levels=[["power"]]), (),
     "tower.levels[0] must be an object"),
    ("tower-check", _tower_job(levels=["oops"]), (),
     "tower.levels[0] must be an object"),
    ("tower-check", _tower_job(base=[], levels=[]), (),
     "the tower ring has no variables"),
    # a ring that is not an object used to be ignored, the tower computed
    # over QQ, even with --field naming GF(q)
    ("tower-check", dict(_tower_job(), ring="prime:2147483647"), (),
     "job.ring has the wrong type"),
    ("tower-check", dict(_tower_job(), ring="prime:2147483647"),
     ("--field", "prime:2147483647"), "job.ring has the wrong type"),
    # a curve of degree 0 or negative genus used to be compared as the
    # closed form -2, and the verdict read DISAGREE
    (*_crossvalidate_line(curve={"d": 0, "g": 0}), (),
     "options.curve needs a degree d >= 1 and a genus g >= 0"),
    (*_crossvalidate_line(curve={"d": 2, "g": -3}), (),
     "options.curve needs a degree d >= 1 and a genus g >= 0"),
], ids=["options-list", "formula-options-list", "job-list-field-override",
        "field-int", "tower-field-int", "pnorms-int", "branch-int",
        "base-name-int", "euler-p-bool", "evolute-two-generators",
        "evolute-three-variables", "tower-too-few-coordinates",
        "projective-degree-empty-singular", "crossvalidate-zero-singular",
        "polar-empty-singular", "degree-zero-singular", "pinned-u-variable",
        "tower-level-string", "tower-level-list", "tower-level-oops",
        "tower-empty-ring", "tower-ring-string", "tower-ring-string-field",
        "curve-degree-zero", "curve-negative-genus"])
def test_job_shape_errors_exit_2(tmp_path, capsys, command, job, extra,
                                 message):
    rc = run_cli(tmp_path, command, job, *extra)
    err = capsys.readouterr().err
    assert rc == EXIT_SCHEMA
    assert err.startswith("schema error:") and message in err


def test_budget_exit_code(tmp_path, capsys):
    job = {
        "schema_version": 1,
        "ring": {"variables": ["x1", "x2", "x3"], "field": "rational"},
        "variety": {"generators": ["x1^5+x2^4+x3^3-1", "x1^3+x2^3+x3^2-1"]},
        "objective": {"pnorm": 3},
        "seed": 0,
    }
    rc = run_cli(tmp_path, "degree", job, "--budget", "10")
    assert rc == EXIT_BUDGET


def test_reports_byte_identical(tmp_path, ellipse_job):
    a = run_job("degree", json.loads(json.dumps(ellipse_job)))
    b = run_job("degree", json.loads(json.dumps(ellipse_job)))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_seed_changes_samples_not_degree(ellipse_job):
    a = run_job("degree", dict(ellipse_job, seed=1))
    b = run_job("degree", dict(ellipse_job, seed=2))
    assert a["result"]["degree"] == b["result"]["degree"] == 8
    assert a["result"]["trials"] != b["result"]["trials"]


def test_out_file(tmp_path, ellipse_job):
    path = write_job(tmp_path, ellipse_job)
    out_path = tmp_path / "report.json"
    rc = main(["degree", "--job", path, "--out", str(out_path)])
    assert rc == EXIT_OK
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["result"]["degree"] == 8


def test_field_override(tmp_path, capsys, ellipse_job):
    rc = run_cli(tmp_path, "degree", ellipse_job, "--field", "prime:2147483647")
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["result"]["degree"] == 8
    assert out["result"]["field"] == "prime:2147483647"


def test_timings_opt_in(tmp_path, capsys, ellipse_job):
    rc = run_cli(tmp_path, "degree", ellipse_job, "--timings")
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert "timings" in out
    base = run_job("degree", dict(ellipse_job))
    assert "timings" not in base


def test_gb_command(tmp_path, capsys, ellipse_job):
    rc = run_cli(tmp_path, "gb", ellipse_job)
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["result"]["basis"] == ["x1^2+4*x2^2-1"]
    assert out["result"]["dimension"] == 1


def test_evolute_command(tmp_path, capsys, ellipse_job):
    job = dict(ellipse_job)
    job["options"] = {"p": 2}
    rc = run_cli(tmp_path, "evolute", job)
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["result"]["reduced_degree"] == 6
    assert out["result"]["principal"] is True


def test_crossvalidate_affine_agree(tmp_path, capsys, ellipse_job):
    job = dict(ellipse_job)
    job["objective"] = {"pnorm": 3}
    job["options"] = {"p": 3}
    job["trials"] = 2
    rc = run_cli(tmp_path, "crossvalidate", job)
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    values = out["result"]["values"]
    assert values["symbolic_affine"] == 6
    assert values["plane_curve_formula"] == 6
    assert out["result"]["verdict"] == "AGREE"


def test_crossvalidate_wrong_codim_disagrees(tmp_path, capsys):
    """Deliberately wrong codimension override: negative control."""
    job = {
        "schema_version": 1,
        "ring": {"variables": ["x1", "x2", "x3"], "field": "prime:2147483647"},
        "variety": {"generators": ["3*x1^2+2*x1*x2+5*x2^2+x2*x3+4*x3^2"],
                    "codim": 2},
        "objective": {"pnorm": 3},
        "options": {"p": 3},
        "seed": 5,
        "trials": 2,
    }
    rc = run_cli(tmp_path, "crossvalidate", job)
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["result"]["verdict"] == "DISAGREE"
    assert out["result"]["values"]["hypersurface_formula"] == 12
    assert out["result"]["values"]["symbolic_projective"] != 12


def test_crossvalidate_projective_conic(tmp_path, capsys):
    job = {
        "schema_version": 1,
        "ring": {"variables": ["x1", "x2", "x3"], "field": "prime:2147483647"},
        "variety": {"generators": ["3*x1^2+2*x1*x2+5*x2^2+x2*x3+4*x3^2"]},
        "objective": {"pnorm": 3},
        "options": {"p": 3},
        "seed": 5,
        "trials": 2,
    }
    rc = run_cli(tmp_path, "crossvalidate", job)
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    values = out["result"]["values"]
    assert values["symbolic_projective"] == 12
    assert values["polar_pipeline"] == 12
    assert values["hypersurface_formula"] == 12
    assert out["result"]["verdict"] == "AGREE"


@pytest.mark.parametrize("field", ["prime:2147483647", "rational"])
def test_crossvalidate_singular_cone_skips_hypersurface_formula(
        tmp_path, capsys, field):
    # the nodal cubic has 7 critical points; the smooth-cubic closed form
    # would say 9
    job = {
        "schema_version": 1,
        "ring": {"variables": ["x1", "x2", "x3"], "field": field},
        "variety": {"generators": ["x2^2*x3-x1^2*(x1+x3)"]},
        "options": {"p": 2, "curve": {"d": 3, "g": 0}},
        "seed": 1,
        "trials": 2,
    }
    rc = run_cli(tmp_path, "crossvalidate", job)
    result = json.loads(capsys.readouterr().out)["result"]
    assert rc == EXIT_OK
    assert result["values"] == {"symbolic_projective": 7, "polar_pipeline": 7,
                                "curve_formula": 7}
    assert result["verdict"] == "AGREE"
    assert any("hypersurface formula skipped" in n for n in result["notes"])


def test_polar_command(tmp_path, capsys):
    job = {
        "schema_version": 1,
        "ring": {"variables": ["x1", "x2", "x3"], "field": "prime:2147483647"},
        "variety": {"generators": ["3*x1^2+2*x1*x2+5*x2^2+x2*x3+4*x3^2"]},
        "options": {"pnorms": [2, 3, 4]},
        "seed": 2,
    }
    rc = run_cli(tmp_path, "polar", job)
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["result"]["polar_classes"] == [2, 2]
    assert out["result"]["pnorm_degrees"] == {"2": 4, "3": 12, "4": 24}


def test_tower_check_command(tmp_path, capsys):
    job = {
        "schema_version": 1,
        "ring": {"field": "rational"},
        "tower": {
            "base": ["x1", "x2", "s"],
            "levels": [{"power": 2, "alpha": "s*x1"},
                       {"power": 2, "alpha": "4*s*x2"}],
            "parametrization": ["x1", "x2", "x1+D1", "x2+D2"],
        },
        "variety": {"generators": ["x1^2+4*x2^2-1"]},
    }
    rc = run_cli(tmp_path, "tower-check", job)
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["result"]["dimension"] == 2
    assert out["result"]["dimension_ok"] is True
    assert out["result"]["jacobian_rank"] == 3


def test_run_job_rejects_bad_schema_version():
    with pytest.raises(SchemaError):
        run_job("degree", {"schema_version": 99})
