"""Self-tests of the benchmark itself (not part of the repository's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import photonflow as pf  # noqa: E402
import photonflow.cli  # noqa: E402,F401
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(workload, trace, cwd=ROOT, seconds="0.1"):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "5", "--seconds", seconds, "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    def dump(seed):
        return json.dumps([(j.name, j.kind, j.payload) for j in workloads.generate(workload, seed)])
    assert dump(11) == dump(11)
    assert dump(11) != dump(12)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_minimal_run_prints_every_metric_with_its_unit(trace, section):
    proc = _run("probe", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 100
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("probe", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _artifacts(preps):
    out = {}
    for prep in preps:
        code, _, _ = workloads.execute(prep, pf)
        assert code == 0, prep.job.name
        with open(prep.out, "rb") as fh:
            out[prep.job.name] = fh.read()
    return out


def test_traced_run_leaves_artifacts_byte_identical(tmp_path):
    jobs = []
    for workload in ("streamlines", "maps"):
        for job in workloads.generate(workload, 3):
            small = job.payload.get("cells", 0) <= 128 * 128 and job.payload.get("seeds", 1) <= 4
            if job.kind == "cli" and small:
                jobs.append(job)
    preps = [workloads.Prepared(job, str(tmp_path), pf) for job in jobs]
    plain = _artifacts(preps)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        traced = _artifacts(preps)
    finally:
        uninstall()
    assert len(tracer) > 0 and not tracer.unmeasured
    assert {p.argv[0] for p in preps} == {"trace", "fieldmap", "stokes", "force", "anomaly",
                                          "render"}
    assert traced == plain
    assert pf.evaluate.__name__ == "evaluate" and not hasattr(pf.evaluate, "__wrapped__")
