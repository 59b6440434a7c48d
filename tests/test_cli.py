import json

import pytest

from optdeg.cli import (EXIT_BUDGET, EXIT_DOMAIN, EXIT_OK, EXIT_SCHEMA, main,
                        run_job)
from optdeg.errors import SchemaError


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


def test_domain_error_exit_code(tmp_path, capsys):
    job = {
        "schema_version": 1,
        "ring": {"variables": ["x1", "x2"], "field": "rational"},
        "variety": {"generators": ["x1^2+4*x2^2-1"]},
        "options": {"p": 2},
        "seed": 0,
    }
    rc = run_cli(tmp_path, "projective-degree", job)  # not homogeneous
    assert rc == EXIT_DOMAIN


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


def test_tower_base_name_collision_is_domain_error(tmp_path, capsys):
    job = {
        "schema_version": 1,
        "tower": {
            "base": ["x1", "Z"],
            "levels": [{"power": 2, "alpha": "Z*x1"}],
            "parametrization": ["x1", "Z", "x1+D1"],
        },
    }
    rc = run_cli(tmp_path, "tower-check", job)
    err = capsys.readouterr().err
    assert rc == EXIT_DOMAIN
    assert err.startswith("error:") and "'Z' collides" in err


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
