"""entrokit benchmark: run one workload, or all of them, and print the metrics.

Usage (from the repository root):

    python3 benchmarks/run.py --workload clt-chain --seed 42 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: a closed loop with one
client, where each pass runs the workload's CLI calls one after another,
each in a fresh interpreter, and the next call starts only after the
previous one exits.  Every payload is checked (shape, the sha256 pin at
the default seed, identical bytes on every repeat).  ``--trace 1`` runs
the traced in-process replica instead and prints the per-layer metrics
(see ``layers.py``).

Without ``--workload`` every workload runs in turn, and the metric names
in the result carry the workload as a prefix.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
fuller record (host facts, Pmf sizes, hashes, every pass) is written to
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from statistics import median

from workloads import (
    DEFAULT_SEED,
    RESULTS,
    SRC,
    WORKLOADS,
    PayloadGate,
    Tally,
    Workload,
    cli_argv,
    host_facts,
    load_pins,
    require_program,
    run_process,
    setup_probe,
    write_record,
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "reps_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# setup_s is the median of fresh-interpreter set-ups, after one untimed warm-up:
# at least SETUP_MIN_REPEATS, and more (up to SETUP_MAX_REPEATS) while they
# have taken under SETUP_BUDGET_S in all, so a fast set-up gets more samples.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 3.0


def run_pass(workload: Workload, seed: int, gate: PayloadGate, tally: Tally) -> dict:
    """Run every CLI call of the workload once, in order; sum their costs."""
    out_dir = RESULTS / "payloads" / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    wall = cpu = rss = 0.0
    reps: int | None = 0
    for index, call in enumerate(workload.calls):
        out = out_dir / f"call{index}.json"
        out.unlink(missing_ok=True)
        result = run_process(cli_argv(call.args(seed, out)))
        tally.attempted += 1
        wall += result.wall_s
        cpu += result.cpu_s
        rss = max(rss, result.peak_rss_mb)
        if result.code != 0:
            tally.fail(f"{' '.join(call.argv[:3])}: exit code {result.code}")
            reps = None
            continue
        got = gate.check(index, out.read_bytes(), tally)
        reps = None if got is None or reps is None else reps + got
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "replicates": reps}


def run_end_to_end(workload: Workload, seed: int, seconds: float) -> tuple[dict, dict, Tally]:
    tally = Tally()
    gate = PayloadGate(workload, seed, load_pins())
    setup_probe(workload)  # warm-up: compiles bytecode and fills the page cache
    setups: list[float] = []
    while len(setups) < SETUP_MIN_REPEATS or (
        len(setups) < SETUP_MAX_REPEATS and sum(setups) < SETUP_BUDGET_S
    ):
        setups.append(setup_probe(workload)[0].wall_s)
    passes: list[dict] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(run_pass(workload, seed, gate, tally))
    good = [p for p in passes if p["replicates"] is not None]
    if not good:
        raise SystemExit(f"error: every pass of {workload.name} failed: {tally.errors[:3]}")
    values = {
        "wall_s": median([p["wall_s"] for p in passes]),
        "reps_per_s": median([p["replicates"] / p["wall_s"] for p in good]),
        "cpu_s": median([p["cpu_s"] for p in passes]),
        "setup_s": median(setups),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }
    record = {
        "passes": passes,
        "setup_s_samples": setups,
        "pmf_sizes": gate.sizes,
        "sha256": gate.hashes,
        "sha256_pinned": gate.pinned,
    }
    return values, record, tally


def run_workload(workload: Workload, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload, print its metrics and write its record; return its result object."""
    if trace:
        sys.path.insert(0, str(SRC))  # the traced run imports entrokit in this process
        from layers import PER_LAYER_UNITS, run_traced

        values, record, tally = run_traced(workload, seed, seconds)
        units = PER_LAYER_UNITS
    else:
        values, record, tally = run_end_to_end(workload, seed, seconds)
        units = END_TO_END_UNITS

    host = host_facts()
    fail_rate = tally.failed / tally.attempted
    record.update(
        workload=workload.name,
        why=workload.why,
        calls=[list(call.argv) for call in workload.calls],
        seed=seed,
        seconds=seconds,
        trace=trace,
        host=host,
        attempted=tally.attempted,
        failed=tally.failed,
        fail_rate=fail_rate,
        errors=tally.errors,
        metrics={name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    )
    path = write_record(f"BENCH_{workload.name}_seed{seed}_trace{trace}.json", record)

    print(f"host: {json.dumps(host)}")
    print(f"workload {workload.name} seed {seed}: {workload.why}")
    print(f"pmf sizes (K, n): {json.dumps(record.get('pmf_sizes'))}")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:.6g} {unit}")
    print(f"  fail_rate {fail_rate:.6g} ({tally.failed}/{tally.attempted} calls); record: {path}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default="all", choices=[*WORKLOADS, "all"], help="one workload, or all in turn (default)"
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace) for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        # With every workload, metric names carry the workload as a prefix.
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
