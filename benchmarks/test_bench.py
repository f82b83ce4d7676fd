"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest benchmarks/test_bench.py -q

They take about a minute: every workload's CLI calls run once, and each
workload's traced replica runs twice.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from workloads import (
    DEFAULT_SEED,
    ROOT,
    SRC,
    WORKLOADS,
    PayloadGate,
    Tally,
    cli_argv,
    load_pins,
    run_process,
)

sys.path.insert(0, str(SRC))

import layers  # noqa: E402  (needs entrokit on sys.path)
import run  # noqa: E402


@pytest.fixture(scope="module")
def payloads(tmp_path_factory) -> dict[str, list[bytes]]:
    """Every workload's payloads at the default seed, from the real CLI calls."""
    out_dir = tmp_path_factory.mktemp("payloads")
    found = {}
    for workload in WORKLOADS.values():
        found[workload.name] = []
        for index, call in enumerate(workload.calls):
            out = out_dir / f"{workload.name}-{index}.json"
            result = run_process(cli_argv(call.args(DEFAULT_SEED, out)))
            assert result.code == 0, f"{workload.name} call {index} exited with {result.code}"
            found[workload.name].append(out.read_bytes())
    return found


def test_every_workload_command_exits_zero_and_matches_its_pin(payloads):
    for name, datas in payloads.items():
        tally = Tally()
        gate = PayloadGate(WORKLOADS[name], DEFAULT_SEED, load_pins())
        for index, data in enumerate(datas):
            assert gate.check(index, data, tally) is not None
        assert tally.failed == 0, tally.errors


def test_corrupted_payload_is_counted_as_a_failure(payloads):
    workload = WORKLOADS["mdp-tail"]
    good = payloads["mdp-tail"][0]
    # One digit changed keeps the JSON valid, so only the pin can catch it.
    digit = good.index(b'"exceedances": ') + len(b'"exceedances": ')
    flipped = good[:digit] + (b"1" if good[digit:digit + 1] != b"1" else b"2") + good[digit + 1:]
    tally = Tally()
    gate = PayloadGate(workload, DEFAULT_SEED, load_pins())
    assert gate.check(0, flipped, tally) is None
    assert gate.check(0, good[:-40], tally) is None  # truncated: not JSON
    assert gate.check(0, good, tally) is not None
    assert tally.failed == 2

    # At another seed nothing is pinned: the first payload is the reference
    # that every repeat in the run must match.
    unpinned = PayloadGate(workload, DEFAULT_SEED + 1, load_pins())
    other = good.replace(f'"seed": {DEFAULT_SEED}'.encode(), f'"seed": {DEFAULT_SEED + 1}'.encode())
    assert unpinned.check(0, other, tally) is not None
    other_flipped = flipped.replace(f'"seed": {DEFAULT_SEED}'.encode(), f'"seed": {DEFAULT_SEED + 1}'.encode())
    assert unpinned.check(0, other_flipped, tally) is None
    assert tally.failed == 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, payloads):
    workload = WORKLOADS[name]
    gate = PayloadGate(workload, DEFAULT_SEED, load_pins())
    tally = Tally()
    runs = []
    for _ in range(2):
        tracer = layers.Tracer()
        seconds, payload_bytes = layers.replica_pass(workload, DEFAULT_SEED, gate, tally, tracer)
        metrics = layers._pass_metrics(tracer, seconds, seconds, payload_bytes)
        runs.append({key: metrics[key] for key in layers.COUNT_METRICS})
        # Every span but the root has a recorded parent that encloses it.
        spans = {span[0]: span for span in tracer.spans}
        for span_id, _, start, end, parent in tracer.spans:
            if parent:
                assert spans[parent][2] <= start <= end <= spans[parent][3]
    assert tally.failed == 0, tally.errors
    assert runs[0] == runs[1]
    assert runs[0]["cli.payload_bytes"] == sum(len(data) for data in payloads[name])
    if name in ("clt-chain", "mdp-tail"):
        assert runs[0]["sampling.binomial_draws_per_rep"] == {"clt-chain": 999, "mdp-tail": 1}[name]
    if name == "mdp-tail":
        assert runs[0]["montecarlo.chunks"] > 100


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("results", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "clt-chain", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert b"correct" not in done.stdout
