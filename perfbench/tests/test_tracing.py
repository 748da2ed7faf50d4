import math

import sampler
import tracing
from procs import run_inprocess
from spreadsmith import cli, field_tower, goodsets, parallelisms, proj_geometry, serialization, spreads


def _fresh_lambda(q):
    # a new FieldSpec per run, so no cache keyed on the field carries over
    p, m = field_tower.prime_power(q)
    return field_tower.build_lambda(field_tower.FieldSpec(p, m))


def _traced(tmp_path, seed):
    lam = _fresh_lambda(3)
    sets = sampler.draws(lam, seed, 2)
    record = tmp_path / "gs.jsonl"
    record.write_text(serialization.goodset_record(lam, sets[0]) + "\n")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        def library():
            geo = spreads.Geometry(lam)
            for gs in sets:
                par = parallelisms.build_parallelism(geo, gs)
                assert parallelisms.verify_parallelism(geo, par).ok
                assert parallelisms.characterize(geo, par).good_set == goodsets.flip_canonical(lam, gs)

        def command():
            out = run_inprocess(["parallelism", "build", str(record), "--q", "3",
                                 "--output", str(tmp_path / "par.jsonl")])
            assert out.rc == 0

        tracer.run_job(0, library)
        tracer.run_job(1, command)
    finally:
        tracer.uninstall()
    return tracer


def _counts(tracer):
    return ({name: stat[0] for name, stat in tracer.stats.items()},
            dict(tracer.counters))


def test_two_traced_runs_count_the_same(tmp_path):
    first = _traced(tmp_path, 4)
    second = _traced(tmp_path, 4)
    assert _counts(first) == _counts(second)
    calls, counters = _counts(first)
    assert calls["parallelisms.build_parallelism"] == 3
    assert calls["cli.main"] == 1
    assert counters["serialization.write_parallelism_file.bytes"] > 0


def test_names_taken_by_from_import_are_seen(tmp_path):
    calls, _ = _counts(_traced(tmp_path, 4))
    # spreads, parallelisms and cli each call line_through / build_parallelism
    # through their own module-level names
    assert calls["proj_geometry.line_through"] > 1000
    assert calls["spreads.Geometry.hall_spread"] > 0
    assert calls["serialization.read_parallelism_file"] == 0


def test_uninstall_restores_every_name(tmp_path):
    originals = (proj_geometry.line_through, spreads.line_through,
                 parallelisms.line_through, cli.build_parallelism,
                 spreads.Geometry.hall_spread, field_tower.lambda_for_q)
    _traced(tmp_path, 4)
    assert (proj_geometry.line_through, spreads.line_through,
            parallelisms.line_through, cli.build_parallelism,
            spreads.Geometry.hall_spread, field_tower.lambda_for_q) == originals
    assert spreads.line_through is proj_geometry.line_through
    assert cli.build_parallelism is parallelisms.build_parallelism


def test_self_times_add_up_to_the_job_wall_time(tmp_path):
    tracer = _traced(tmp_path, 4)
    total = sum(tracer.layer_self_s().values()) + tracer.unattributed_s()
    assert math.isclose(total, tracer.job_wall_s(), rel_tol=1e-9)
    assert 0 <= tracer.unattributed_s() < tracer.job_wall_s()


def test_spans_nest_inside_their_parents(tmp_path):
    tracer = _traced(tmp_path, 4)
    spans = tracer.spans
    assert spans and all(s is not None for s in spans)
    for name, start, end, parent, job in spans:
        assert start <= end
        assert job in (0, 1)
        if parent >= 0:
            _, p_start, p_end, _, p_job = spans[parent]
            assert p_start <= start and end <= p_end and p_job == job
        else:
            assert name == tracing.JOB
