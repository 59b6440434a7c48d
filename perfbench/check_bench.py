"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/check_bench.py -q
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def runner():
    return run.Runner(*run.load_optdeg())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_job_smoke_run(runner, workload):
    jobs = workloads.make_jobs(workload, 7)[:1]
    raw, calibrated, failed = run.run_passes(runner, jobs, 0, 1)
    metrics, attempted, detail = run.summarize(jobs, raw, calibrated, failed)
    assert (attempted, failed) == (1, 0)
    assert set(metrics) == {"jobs_per_s", "job_p50_s", "job_tail_s",
                            "verified_ratio"}
    assert all(value > 0 for value, _ in metrics.values())
    assert detail["tail_percentile"] == "max"


def test_seed_fixes_the_inputs():
    for workload in workloads.WORKLOADS:
        a = [j.doc for j in workloads.make_jobs(workload, 3)]
        b = [j.doc for j in workloads.make_jobs(workload, 3)]
        c = [j.doc for j in workloads.make_jobs(workload, 4)]
        assert a == b and a != c


def test_wrong_expected_value_is_a_failure(runner):
    job = workloads.make_jobs("affine-sweep", 7)[0]
    job.expected += 1
    raw, calibrated, failed = run.run_passes(runner, [job], 0, 2)
    metrics, attempted, _ = run.summarize([job], raw, calibrated, failed)
    assert (attempted, failed) == (2, 2)
    assert metrics["verified_ratio"][0] == 0
    assert metrics["jobs_per_s"][0] == 0


def test_schema_error_is_a_failure_not_a_crash(runner):
    job = workloads.make_jobs("affine-sweep", 7)[0]
    doc = json.loads(job.doc)
    doc["options"]["p"] = 0
    job.doc = json.dumps(doc)
    _, _, error = runner.run_checked(job, {})
    assert error.startswith("SchemaError")


def test_twin_jobs_must_agree():
    jobs = [j for j in workloads.make_jobs("affine-sweep", 7)
            if j.check == "twin"][:2]
    qq, gf = jobs
    assert gf.twin is qq

    def report(count):
        return {"result": {"verdict": "AGREE",
                           "values": {"symbolic_affine": count}}}
    results = {qq: report(5)["result"]}
    assert workloads.check_report(gf, report(5), results) is None
    assert "QQ count 5" in workloads.check_report(gf, report(6), results)


def test_isotropic_top_form_is_not_an_expected_agree_job():
    # x1^3+x2^3-3*x1*x2+x1-2: its top form is the isotropic form at p = 3,
    # where it has 9 critical points instead of d(d+p-2) = 12
    f = {(3, 0): 1, (0, 3): 1, (1, 1): -3, (1, 0): 1, (0, 0): -2}
    assert not workloads.generic_at_infinity(f, 3)
    assert workloads.generic_at_infinity(f, 2)


def test_variety_tangent_to_the_isotropic_hypersurface_is_rejected():
    # this conic touches x1^3+x2^3+x3^3 = 0 at (0:1:-1): at p = 3 it has 11
    # critical points, not the 12 of the closed forms
    conic = workloads._parse_monomials(
        "-9*x1^2+16*x1*x2+16*x1*x3+6*x2^2-6*x3^2", ("x1", "x2", "x3"))
    assert not workloads.plane_curve_meets_isotropic(None, [conic], 3)
    assert workloads.plane_curve_meets_isotropic(None, [conic], 2)
    # the pencil of x1*x4-x2*x3 and x1^2+...+x4^2 holds a quadric of rank 2
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    segre = workloads._parse_monomials("x1*x4-x2*x3", ("x1", "x2", "x3", "x4"))
    assert not workloads.quadric_meets_isotropic_quadric(identity, [segre], 2)
    # (s^2+1)(s^4+1): six simple roots
    assert workloads.twisted_cubic_meets_isotropic(identity, None, 2)


def _span(name, start, end, parent, attrs=None):
    return tracing.Span(name, start, end, parent, 0, attrs)


def test_self_time_over_a_nested_span_tree():
    spans = [
        _span("cli.run_job", 0.0, 10.0, -1),                       # 0
        _span("critical.algebraic_degree", 1.0, 8.0, 0),           # 1
        _span("groebner.saturate", 2.0, 6.0, 1),                   # 2
        _span("groebner.groebner_basis", 2.5, 3.5, 2,
              {"reductions": 7, "basis_len": 3}),                  # 3
        _span("groebner.saturate", 4.0, 5.0, 2),                   # 4
        _span("parsing.format_polynomial", 8.5, 9.0, 0),           # 5
    ]
    assert tracing.self_times(spans) == [2.5, 3.0, 2.0, 1.0, 1.0, 0.5]
    assert [s.start for s in tracing.outermost(spans, "groebner.saturate")] \
        == [2.0]
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == 2.5
    assert m["critical.self_s"] == 3.0
    assert m["groebner.saturate_calls"] == 2
    assert m["groebner.saturate_s"] == 4.0
    assert m["groebner.gb_runs"] == 1
    assert m["groebner.reductions"] == 7
    assert m["groebner.reductions_per_s"] == 7.0
    assert m["parsing.calls"] == 1 and m["parsing.s"] == 0.5


def test_tracer_restores_every_patched_name(runner):
    import optdeg.critical
    import optdeg.matrices
    original = optdeg.critical.saturate
    minors = optdeg.matrices.PolyMatrix.minors
    tracer = tracing.Tracer()
    job = workloads.make_jobs("affine-sweep", 7)[0]
    with tracer.install():
        assert optdeg.critical.saturate is not original
        tracer.job = 0
        runner.run(job)
    assert optdeg.critical.saturate is original
    assert optdeg.matrices.PolyMatrix.minors is minors
    roots = [s for s in tracer.spans if s.parent < 0]
    assert [s.name for s in roots] == ["cli.run_job"]
    assert tracing.job_reductions(tracer.spans)[0] > 0


def test_calibration_scales_by_the_reference_at_both_ends():
    clock = run.Calibration()
    clock.last = 2 * clock.unloaded
    scaled = clock.scale(1.0)
    # the routine just ran at roughly the reference speed, or slower
    assert 0.3 < scaled < 1.0
    assert clock.last < 2 * clock.unloaded


def test_sampling_inside_a_job_is_left_out_of_its_time():
    class BusyCli:
        @staticmethod
        def run_job(command, doc):
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.6:
                pass
            return {"result": {}}

    clock = run.Calibration("rational")
    job = workloads.make_jobs("evolute-qq", 7)[0]
    t0 = time.perf_counter()
    seconds, _, _, error = run.Runner(BusyCli, Exception).run(job, clock)
    wall = time.perf_counter() - t0
    assert error is None
    assert len(clock.inside) >= 2 and clock.spent > 0
    assert abs(seconds + clock.spent - wall) < 0.01
    clock.scale(seconds)
    assert clock.inside == []
    # the timer is off once the job is done
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tail_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90.0, "p90")
    assert run.tail(samples[:15]) == (15.0, "max")


def _declared(kind):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_traced_pass_reports_every_declared_per_layer_metric(runner):
    # a QQ job and its GF(q) twin, so the cross-field ratio has a pair
    jobs = workloads.make_jobs("affine-sweep", 7)[:2]
    values, attempted, failed, detail = run.run_traced(
        runner, "affine-sweep", jobs)
    assert failed == 0 and detail["qq_gf_pairs"] == 1
    assert {k: run._unit(k) for k in values} == _declared("per_layer")


def test_timed_run_reports_every_declared_end_to_end_metric(runner):
    jobs = workloads.make_jobs("affine-sweep", 7)[:1]
    metrics, _, _ = run.summarize(jobs, *run.run_passes(runner, jobs, 0, 1))
    units = {k: u for k, (_, u) in metrics.items()}
    units.update(setup_s="s", peak_rss_mb="MB")  # added by run.main
    assert units == _declared("end_to_end")


def test_nondeterministic_report_is_a_failure(runner):
    class Drifting(run.Runner):
        calls = 0

        def run(self, job, clock=None):
            dt, report, text, error = super().run(job, clock)
            self.calls += 1
            return dt, report, f"{text}{self.calls}", error

    jobs = workloads.make_jobs("affine-sweep", 7)[:2]
    _, attempted, failed, detail = run.run_traced(
        Drifting(runner.cli, runner.error_type), "affine-sweep", jobs)
    assert (attempted, failed) == (5, 1)
    assert "report bytes differ" in detail["mismatches"][0]
