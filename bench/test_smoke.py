"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root:
    python3 -m pytest bench/test_smoke.py -q

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, traced and untraced; that an answer corrupted here is counted as
failed; and that without the package sources the benchmark exits non-zero
without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace):
    res = _run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in doc["metrics"].values())


def _spoiled(fn, spoil):
    def corrupted(*args):
        return spoil(fn(*args))
    return corrupted


CORRUPTIONS = {
    # workload: (package attribute, how its answer is made wrong)
    "group_random": ("determinant", lambda out: out + 1),
    "pairs_stack": ("tree_count", lambda out: out + 1),
    "search_coprime": ("coprime_pair_search",
                       lambda out: type(out)(out.examined + 1, out.coprime_instances, out.counterexamples,
                                             out.seed, out.params)),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_answer_is_counted(name, monkeypatch):
    import critgroups

    attr, spoil = CORRUPTIONS[name]
    monkeypatch.setattr(critgroups, attr, _spoiled(getattr(critgroups, attr), spoil))
    doc = worker.measure(name, 3, 0.1, False, "tiny")
    assert doc["failed"] > 0
    assert doc["correct"] is False
    assert doc["detail"]["fail_ratio"] == doc["failed"] / doc["attempted"] > 0


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    res = _run("--workload", "group_random", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout.strip() == ""
