"""Tests of the benchmark itself: inputs, answer key and tracing.

    python3 -m pytest perfbench
"""

import cProfile
import os
import pstats
import sys

import pytest

import gen
import key
import run
import tracing
from rclkit import cli, workspace
from rclkit.category import Morphism
from rclkit.workspace import parse

FIXTURES = os.path.join(os.path.dirname(run.HERE), "src", "rclkit", "fixtures")


@pytest.mark.parametrize("workload", key.WORKLOADS)
def test_answer_key_covers_every_drawn_job(workload):
    for seed in range(8):
        p, jobs = key.draw(workload, seed)
        assert jobs
        for job in jobs:
            assert key.expected(job) is not None, key.job_id(job)
        if workload == "tri-gfp":
            assert p in gen.GFP_PRIMES
        else:
            assert p == 0


def test_draw_depends_on_the_seed_only():
    assert key.draw("additive", 3) == key.draw("additive", 3)
    assert key.draw("additive", 3) != key.draw("additive", 4)
    _, jobs = key.draw("additive", 3)
    assert len(jobs) == sum(key.ADDITIVE_JOBS.values())
    assert {j.command for j in key.additive_pool()} == {
        "validate", "check-recollement", "quotient-recollement", "restrict",
        "lift", "left-quotient"}


@pytest.mark.parametrize("name", ["stab1", "stab2", "stab3", "fix_a2", "fix_prod"])
@pytest.mark.parametrize("p", [0, 101])
def test_generated_text_round_trips(name, p):
    gen.check_round_trip(name, gen.workspace_text(name, p))


def _cert(text, command):
    return cli.run_command(command, parse(text), {})


def test_stab1_is_fix_stab3_renamed():
    with open(os.path.join(FIXTURES, "fix_stab3.rcl"), encoding="utf-8") as fh:
        shipped = parse(fh.read())
    made = parse(gen.workspace_text("stab1"))
    (cat,) = shipped.categories.values()
    (copy,) = made.categories.values()
    assert ["C1." + g for g in cat.generators] == list(copy.generators)
    for a in cat.generators:
        for b in cat.generators:
            assert cat.hom_dim(a, b) == copy.hom_dim("C1." + a, "C1." + b)
    for command in ("mutation-check", "triangulate-quotient"):
        want = _cert(workspace.serialize(shipped), command)
        got = _cert(gen.workspace_text("stab1"), command)
        assert got.passed and want.passed
        statuses = sorted(v for k, v in want.fields.items() if k.endswith(".status"))
        assert sorted(v for k, v in got.fields.items() if k.endswith(".status")) == statuses


def _snapshot():
    """Every attribute of every rclkit module and of the wrapped classes."""
    owners = tracing._rclkit_modules() + sorted(
        {owner for table in (tracing.SPANNED, tracing.COUNTED)
         for _, owner, _, _ in table if isinstance(owner, type)}, key=repr)
    return {(repr(o), k): v for o in owners for k, v in vars(o).items()}


def test_wrappers_are_uninstalled_after_a_traced_run():
    before = _snapshot()
    texts = {"fix_a2": gen.workspace_text("fix_a2")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        changed = [k for k, v in _snapshot().items() if before.get(k) is not v]
        assert len(changed) > len(tracing.SPANNED) + len(tracing.COUNTED)
        job = key.Job("fix_a2", "check-recollement", (("semantics", "strict"),))
        run.run_pass([job], texts, run.Checker(key), tracer)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tracer.count("cli.run_command") == 1


def _certificates(jobs, texts, tracer=None):
    checker = run.Checker(key)
    out = []
    for job in jobs:
        if tracer is not None:
            tracer.begin_job(key.job_id(job))
        _, outcome, body = run.run_job(job, texts[job.input])
        checker.check(job, outcome, body)
        out.append(body)
    assert not checker.failures, checker.failures
    return out


def test_certificates_identical_with_tracing_on_and_off():
    p = 101
    jobs = [key.Job("stab1", "triangulate-quotient", ()),
            key.Job("fix_prod", "tri-recollement", (("d", "C2.M2"),))]
    jobs += key.additive_pool()[::4]
    texts = {n: gen.workspace_text(n, p) for n in ("stab1", "fix_prod")}
    texts["fix_a2"] = gen.workspace_text("fix_a2", p)
    plain = _certificates(jobs, texts)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _certificates(jobs, texts, tracer)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert all(plain)


def test_additive_makes_no_triangle_search():
    _, jobs = key.draw("additive", 0)
    texts = {n: gen.workspace_text(n) for n in ("fix_a2", "fix_prod")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _certificates(sorted(set(jobs), key=key.job_id), texts, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(0.0)
    for name, value in metrics.items():
        if name.startswith("triangulated.") and name.endswith("calls"):
            assert value == 0, name
    assert metrics["adjunction.morphism_inverse.calls"] == 0
    assert metrics["recollement.pipeline.self_s"] > 0


# cProfile function name -> traced counter or span name.
PROFILED = {
    "_invertible_candidate": "triangulated.search",
    "morphism_inverse": "adjunction.morphism_inverse",
    "postcompose_mat": "category.postcompose_mat",
    "precompose_mat": "category.precompose_mat",
    "compose": "category.compose",
    "rref": "linalg.rref",
    "solve": "linalg.solve",
    "nullspace": "linalg.nullspace",
    "membership": "triangulated.membership",
    "complete_monic": "triangulated.complete_monic",
}


def test_traced_counts_repeat_and_equal_cprofile_counts():
    """tri-recollement fix_prod --d C1.M2, the job the layer counts are
    quoted for, traced twice and profiled once."""
    text = gen.workspace_text("fix_prod")

    def job():
        return cli.run_command("tri-recollement", workspace.parse(text),
                               {"d": "C1.M2"}).render()

    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            job()
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(0.0)
        counts.append({n: v for n, v in metrics.items() if n.endswith(".calls")}
                      | {n: tracer.count(n) for n in PROFILED.values()}
                      | {"field.ops": metrics["field.ops"],
                         "inverse_attempts": metrics["triangulated.search.inverse_attempts"]})
    assert counts[0] == counts[1]

    profile = cProfile.Profile()
    profile.enable()
    job()
    profile.disable()
    morphism_init = Morphism.__init__.__code__
    profiled = {}
    for (path, line, fn), stat in pstats.Stats(profile).stats.items():
        if os.sep + "rclkit" + os.sep in path and fn in PROFILED:
            profiled[PROFILED[fn]] = stat[1]
        if (path, line) == (morphism_init.co_filename, morphism_init.co_firstlineno):
            profiled["category.morphism_new.calls"] = stat[1]
    assert len(profiled) == len(PROFILED) + 1
    for name, n in profiled.items():
        assert counts[0][name] == n, name


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
