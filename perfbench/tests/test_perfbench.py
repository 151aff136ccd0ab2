"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import oracle
from perfbench.layers import LayerProbe
from perfbench.workloads import (Design, build_designs, confirm_labels,
                                 inject_ppg_fault)

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def _design(aig, expected, seed=0):
    from repro.aig.aiger import write_aag

    text = write_aag(aig)
    rng = oracle.seeded_rng(seed, "test")
    netlist = oracle.parse_aag(text)
    width = aig.num_inputs // 2
    return Design(aig.name, width, width, expected, aig, text, netlist,
                  [oracle.renumber_aag(netlist, rng)])


@pytest.fixture(scope="module")
def small():
    from repro.genmul import generate_multiplier

    return generate_multiplier("SP-AR-RC", 4)


def test_oracle_accepts_true_labels(small):
    buggy, _ = inject_ppg_fault(small, "gate-type", random.Random(1))
    assert confirm_labels([_design(small, "correct"),
                           _design(buggy, "buggy")], seed=0) == []


def test_oracle_catches_a_wrong_label(small):
    buggy, _ = inject_ppg_fault(small, "wrong-wire", random.Random(2))
    problems = confirm_labels([_design(small, "buggy"),
                               _design(buggy, "correct")], seed=0)
    # the design and its isomorphic copy, for each of the two designs
    assert len(problems) == 4
    assert any("labelled buggy" in p for p in problems)
    assert any("labelled correct" in p for p in problems)


def _netlist(aig):
    from repro.aig.aiger import write_aag

    return oracle.parse_aag(write_aag(aig))


def test_oracle_counterexamples(small):
    buggy, _ = inject_ppg_fault(small, "input-negation", random.Random(3))
    netlist = _netlist(buggy)
    pair = oracle.check_product(netlist, 4, 4, random.Random(0))
    assert pair is not None
    assert oracle.counterexample_holds(netlist, 4, *pair)
    assert not oracle.counterexample_holds(_netlist(small), 4, *pair)


def test_oracle_random_pairs_on_wide_designs():
    from repro.genmul import generate_multiplier

    wide = generate_multiplier("SP-AR-RC", 12)
    netlist = _netlist(wide)
    assert oracle.check_product(netlist, 12, 12, random.Random(5)) is None
    broken = oracle.Netlist(netlist.inputs, netlist.ands,
                            netlist.outputs[:-1] + (1,))
    assert oracle.check_product(broken, 12, 12, random.Random(5))


def test_renumbered_copy_is_isomorphic(small):
    from repro.aig.aiger import read_aag, write_aag
    from repro.aig.ops import structural_signature
    from repro.service.fingerprint import design_fingerprint

    netlist = oracle.parse_aag(write_aag(small))
    copy_text = oracle.renumber_aag(netlist, random.Random(7))
    copy = read_aag(copy_text)
    assert design_fingerprint(copy) == design_fingerprint(small)
    assert structural_signature(copy) != structural_signature(small)
    assert oracle.check_product(oracle.parse_aag(copy_text), 4, 4,
                                random.Random(0)) is None


def test_designs_depend_on_the_seed_only():
    first = build_designs("resubmit", 4, short=True)
    again = build_designs("resubmit", 4, short=True)
    other = build_designs("resubmit", 5, short=True)
    assert [d.copies for d in first] == [d.copies for d in again]
    assert [d.text for d in first] == [d.text for d in again]
    assert [d.copies for d in first] != [d.copies for d in other]


def _wrapped_attributes(probe):
    return [(owner, name) for owner, name, _ in probe.originals()]


def test_probe_restores_every_wrapped_function(small):
    from repro.core.pipeline import Pipeline, VerifyConfig

    probe = LayerProbe()
    probe.install()
    attributes = _wrapped_attributes(probe)
    originals = [original for _, _, original in probe.originals()]
    try:
        result = Pipeline(VerifyConfig()).run(small)
    finally:
        probe.uninstall()
    assert result.status == "correct"
    assert probe.values["core.rewrite.attempts"] == result.stats["attempts"]
    assert probe.values["core.rewrite.commits"] == result.stats["steps"]
    assert probe.values["core.rewrite_s"] > 0
    for (owner, name), original in zip(attributes, originals):
        assert getattr(owner, name) is original, (owner, name)
        if isinstance(owner, type):
            assert owner.__dict__[name] is original
    assert probe.originals() == []
    # a second install wraps the same originals again
    with probe:
        assert len(probe.originals()) == len(originals)
    for (owner, name), original in zip(attributes, originals):
        assert getattr(owner, name) is original


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=300)


def _metric_names(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[kind]}


@pytest.mark.parametrize("workload", ["clean_wide", "blowup", "resubmit"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_mode_runs_end_to_end(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", trace, "--short"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == _metric_names(kind)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_write_designs(tmp_path):
    proc = _run(["--workload", "resubmit", "--seed", "2", "--short",
                 "--write-designs", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert {entry["expected"] for entry in manifest["designs"]} == {
        "correct", "buggy"}
    for entry in manifest["designs"]:
        text = (tmp_path / entry["file"]).read_text()
        assert text.startswith("aag ")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "clean_wide", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
