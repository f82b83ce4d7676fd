"""Traced run: per-layer metrics from spans recorded around calls into each entrokit module.

The layers are the package's modules: ``alphabet``, ``exact``,
``sampling``, ``estimator``, ``montecarlo`` and ``cli``.  For the
duration of a traced pass the benchmark replaces, in the module that
calls it, each public function named in ``TRACE_POINTS`` with a wrapper
that records a span (id, name, start, end, parent id).  The workload's
CLI calls then run in this process through ``entrokit.cli.main``, with
``--workers 1`` so that every span stays in one process; the payloads are
checked against the same pins as the end-to-end run.  No entrokit source
is changed.

Spans are kept in memory and written to ``results/TRACE_*.json`` at the
end.  Every call is timed and summed by name; span records are kept for
the first ``SPAN_RECORD_CAP`` calls of each name only, so mdp-tail's
~90k per-replicate spans do not fill memory.

A metric whose layer the workload never calls (the chain on clt-alias,
say) comes from a fixed probe instead, named in the record's
``metric_source``:

* ``probe.chain``        run_clt at clt-chain's config, 100 replicates;
* ``probe.categorical``  run_clt at clt-alias's config, 100 replicates;
* ``probe.exact``        the four describe functionals on the workload's own Pmfs;
* ``probe.fixed``        berry_esseen_shape at harmonic K=1e6, n=1e6, and
                          AliasTable at harmonic K=1e4 and K=1e6 (every workload);
* ``fanout``             the mdp-tail CLI call at 1 and then 2 workers (every workload).
"""

from __future__ import annotations

import contextlib
import functools
import io
import time
import traceback
import warnings
from collections import defaultdict
from statistics import median
from typing import Callable

import numpy as np
from entrokit import cli, montecarlo, sampling
from entrokit.alphabet import build_family, parse_family
from entrokit.exact import (
    abs_central_moment,
    berry_esseen_shape,
    exp_moment,
    exp_moment_envelope,
    split_moment_bound,
)

from workloads import (
    RESULTS,
    WORKLOADS,
    PayloadGate,
    Tally,
    Workload,
    cli_argv,
    load_pins,
    run_process,
    setup_probe,
    write_record,
)

SPAN_RECORD_CAP = 2048
IMPORT_REPEATS = 3
ALIAS_SMALL_REPEATS = 5
PROBE_REPLICATES = 100  # the smallest count ExperimentConfig accepts
EXACT_FUNCTIONALS = (abs_central_moment, split_moment_bound, exp_moment, exp_moment_envelope)

PER_LAYER_UNITS = {
    "alphabet.build_family_ms": "ms",
    "exact.population_summary_ms": "ms",
    "exact.abs_central_moment_ms": "ms",
    "exact.split_moment_bound_ms": "ms",
    "exact.exp_moment_ms": "ms",
    "exact.exp_moment_envelope_ms": "ms",
    "exact.berry_esseen_shape_ms": "ms",
    "sampling.chain_ms_per_rep": "ms",
    "sampling.binomial_draws_per_rep": "count",
    "sampling.categorical_ms_per_rep": "ms",
    "sampling.alias_build_ms.K10000": "ms",
    "sampling.alias_build_ms.K1000000": "ms",
    "estimator.decompose_ms_per_rep": "ms",
    "montecarlo.run_ms_per_rep": "ms",
    "montecarlo.overhead_share": "ratio",
    "montecarlo.chunks": "count",
    "montecarlo.fanout_speedup": "ratio",
    "montecarlo.ks_distance_ms": "ms",
    "cli.import_ms": "ms",
    "cli.canonical_json_ms": "ms",
    "cli.payload_bytes": "count",
    "trace.overhead_ratio": "ratio",
}
# The metrics each clt probe is run for, when the workload's own replica lacks one of them.
MONTECARLO_METRICS = {
    "probe.chain": (
        "sampling.chain_ms_per_rep",
        "sampling.binomial_draws_per_rep",
        "estimator.decompose_ms_per_rep",
        "montecarlo.run_ms_per_rep",
        "montecarlo.overhead_share",
        "montecarlo.chunks",
        "montecarlo.ks_distance_ms",
    ),
    "probe.categorical": ("sampling.categorical_ms_per_rep",),
}
COUNT_METRICS = tuple(name for name, unit in PER_LAYER_UNITS.items() if unit == "count")

# (module whose global is replaced, global name, span name)
TRACE_POINTS = (
    (cli, "run_clt", "montecarlo.run"),
    (cli, "run_mdp", "montecarlo.run"),
    (cli, "canonical_json", "cli.canonical_json"),
    (cli, "build_family", "alphabet.build_family"),
    (cli, "population_summary", "exact.population_summary"),
    (cli, "abs_central_moment", "exact.abs_central_moment"),
    (cli, "split_moment_bound", "exact.split_moment_bound"),
    (cli, "exp_moment", "exact.exp_moment"),
    (cli, "exp_moment_envelope", "exact.exp_moment_envelope"),
    (montecarlo, "build_family", "alphabet.build_family"),
    (montecarlo, "population_summary", "exact.population_summary"),
    (montecarlo, "mdp_condition", "exact.mdp_condition"),
    (montecarlo, "derive_stream_seeds", "sampling.derive_stream_seeds"),
    (montecarlo, "_replicate_chunk", "montecarlo.chunk"),
    (montecarlo, "sample_counts_multinomial", "sampling.chain"),
    (montecarlo, "sample_counts_categorical", "sampling.categorical"),
    (montecarlo, "decompose", "estimator.decompose"),
    (montecarlo, "ks_distance", "montecarlo.ks_distance"),
    (sampling, "AliasTable", "sampling.alias_build"),
)


class Tracer:
    """In-memory spans plus per-name call totals and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._kept: dict[str, int] = defaultdict(int)
        self._stack = [0]
        self._last_id = 0

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            self._last_id += 1
            span_id, parent = self._last_id, self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.seconds[name] += end - start
                self.calls[name] += 1
                if self._kept[name] < SPAN_RECORD_CAP:
                    self._kept[name] += 1
                    self.spans.append((span_id, name, start, end, parent))
                else:
                    self.dropped += 1
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def ms(self, name: str) -> float:
        return 1e3 * self.seconds[name]

    def ms_per_call(self, name: str) -> float | None:
        return self.ms(name) / self.calls[name] if self.calls[name] else None

    def dump(self) -> dict:
        return {
            "spans": [list(span) for span in self.spans],
            "dropped_span_records": self.dropped,
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def _count_chain_draws(tracer: Tracer, counts) -> None:
    """Binomial draws of one chain replicate, read from its counts.

    The chain visits cells 0.. until no draws remain, and never draws for
    the last cell: min(index of the last nonzero cell + 1, K - 1).
    """
    cells = counts.counts
    tracer.counts["sampling.binomial_draws"] += min(int(np.flatnonzero(cells)[-1]) + 1, cells.size - 1)


@contextlib.contextmanager
def traced_modules(tracer: Tracer):
    """Replace every trace point with a span-recording wrapper; restore on exit."""
    saved = []
    try:
        for module, attr, name in TRACE_POINTS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            hook = _count_chain_draws if name == "sampling.chain" else None
            setattr(module, attr, tracer.wrap(name, original, hook))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def replica_pass(
    workload: Workload, seed: int, gate: PayloadGate, tally: Tally, tracer: Tracer | None
) -> tuple[float, int]:
    """Run the workload's CLI calls in this process; return (seconds, payload bytes)."""
    out_dir = RESULTS / "payloads" / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    seconds = 0.0
    payload_bytes = 0
    for index, call in enumerate(workload.calls):
        out = out_dir / f"inprocess{index}.json"
        out.unlink(missing_ok=True)
        argv = call.args(seed, out, workers=1 if "--workers" in call.argv else None)
        main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
        tally.attempted += 1
        with contextlib.redirect_stderr(io.StringIO()):
            with traced_modules(tracer) if tracer else contextlib.nullcontext():
                started = time.perf_counter()
                try:
                    code = main(argv)
                except Exception:  # an invariant failure inside the program is a failed call
                    code = traceback.format_exc()
                seconds += time.perf_counter() - started
        if code != 0:
            tally.fail(f"in-process {' '.join(call.argv[:3])}: {code}")
            continue
        data = out.read_bytes()
        payload_bytes += len(data)
        gate.check(index, data, tally)
    return seconds, payload_bytes


def _montecarlo_metrics(tracer: Tracer) -> dict[str, float | None]:
    reps = tracer.calls["estimator.decompose"]
    run_ms = tracer.ms("montecarlo.run")
    sampled_ms = tracer.ms("sampling.chain") + tracer.ms("sampling.categorical")
    chain_calls = tracer.calls["sampling.chain"]
    return {
        "sampling.chain_ms_per_rep": tracer.ms_per_call("sampling.chain"),
        "sampling.binomial_draws_per_rep": (
            tracer.counts["sampling.binomial_draws"] / chain_calls if chain_calls else None
        ),
        "sampling.categorical_ms_per_rep": tracer.ms_per_call("sampling.categorical"),
        "estimator.decompose_ms_per_rep": tracer.ms_per_call("estimator.decompose"),
        "montecarlo.run_ms_per_rep": run_ms / reps if reps else None,
        "montecarlo.overhead_share": (
            (run_ms - sampled_ms - tracer.ms("estimator.decompose")) / run_ms if reps else None
        ),
        "montecarlo.chunks": tracer.calls["montecarlo.chunk"] or None,
        "montecarlo.ks_distance_ms": tracer.ms_per_call("montecarlo.ks_distance"),
    }


def _pass_metrics(tracer: Tracer, traced_s: float, plain_s: float, payload_bytes: int) -> dict:
    metrics = {
        "alphabet.build_family_ms": tracer.ms("alphabet.build_family"),
        "exact.population_summary_ms": tracer.ms("exact.population_summary"),
        "cli.canonical_json_ms": tracer.ms("cli.canonical_json"),
        "cli.payload_bytes": payload_bytes,
        "trace.overhead_ratio": traced_s / plain_s,
    }
    for fn in EXACT_FUNCTIONALS:
        name = f"exact.{fn.__name__}"
        metrics[f"{name}_ms"] = tracer.ms(name) if tracer.calls[name] else None
    metrics.update(_montecarlo_metrics(tracer))
    return metrics


def _probe_clt(source: str, tracer: Tracer) -> dict[str, float]:
    """run_clt at the config of the named clt workload, with the fewest replicates allowed."""
    argv = WORKLOADS[source].calls[0].argv
    flag = dict(zip(argv[1::2], argv[2::2]))
    config = montecarlo.ExperimentConfig(
        family=flag["--family"],
        k_rule=montecarlo.parse_k_rule(flag["--K-rule"]),
        n_grid=(int(flag["--n-grid"]),),
        replicates=PROBE_REPLICATES,
        master_seed=0,
        sampler=flag.get("--sampler", "multinomial"),
    )
    with traced_modules(tracer):
        tracer.wrap("montecarlo.run", montecarlo.run_clt)(config)
    return {k: v for k, v in _montecarlo_metrics(tracer).items() if v is not None}


def _probe_exact(workload: Workload, tracer: Tracer) -> dict[str, float]:
    for spec in workload.setup_pmfs:
        pmf = build_family(parse_family(spec))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for fn in EXACT_FUNCTIONALS:
                tracer.wrap(f"exact.{fn.__name__}", fn)(pmf, 1.0)
    return {f"exact.{fn.__name__}_ms": tracer.ms(f"exact.{fn.__name__}") for fn in EXACT_FUNCTIONALS}


def _span_ms(tracer: Tracer, name: str, fn: Callable, *args) -> float:
    """Call ``fn(*args)`` under a span and return the span's length in ms."""
    tracer.wrap(name, fn)(*args)
    _, _, start, end, _ = tracer.spans[-1]
    return 1e3 * (end - start)


def _probe_fixed(tracer: Tracer) -> dict[str, float]:
    big = build_family(parse_family("harmonic:1000000"))
    small = build_family(parse_family("harmonic:10000"))
    return {
        "exact.berry_esseen_shape_ms": _span_ms(
            tracer, "exact.berry_esseen_shape", berry_esseen_shape, big, 1_000_000, 1.0
        ),
        "sampling.alias_build_ms.K10000": median(
            [
                _span_ms(tracer, "sampling.alias_build", sampling.AliasTable, small.probs)
                for _ in range(ALIAS_SMALL_REPEATS)
            ]
        ),
        "sampling.alias_build_ms.K1000000": _span_ms(
            tracer, "sampling.alias_build", sampling.AliasTable, big.probs
        ),
    }


def _fanout_speedup(seed: int, tally: Tally) -> tuple[float, list[float]]:
    """mdp-tail's CLI call at 1 worker (the single-process baseline), then at 2."""
    mdp = WORKLOADS["mdp-tail"]
    gate = PayloadGate(mdp, seed, load_pins())
    out_dir = RESULTS / "payloads" / "fanout"
    out_dir.mkdir(parents=True, exist_ok=True)
    walls = []
    for workers in (1, 2):
        out = out_dir / f"workers{workers}.json"
        out.unlink(missing_ok=True)
        result = run_process(cli_argv(mdp.calls[0].args(seed, out, workers=workers)))
        tally.attempted += 1
        walls.append(result.wall_s)
        if result.code != 0:
            tally.fail(f"mdp-tail at {workers} workers: exit code {result.code}")
        else:
            gate.check(0, out.read_bytes(), tally)
    return walls[0] / walls[1], walls


def run_traced(workload: Workload, seed: int, seconds: float) -> tuple[dict, dict, Tally]:
    tally = Tally()
    gate = PayloadGate(workload, seed, load_pins())
    setup_probe(workload)  # warm-up: compiles bytecode and fills the page cache
    import_ms = median([setup_probe(workload)[1]["import_ms"] for _ in range(IMPORT_REPEATS)])

    # One untimed in-process pass lets numpy and the allocator settle; then
    # untraced and traced passes alternate for the run's length, and the
    # ratio of their in-process times is the tracing overhead.
    replica_pass(workload, seed, gate, tally, None)
    passes: list[dict] = []
    tracers: list[Tracer] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        plain_s, _ = replica_pass(workload, seed, gate, tally, None)
        tracer = Tracer()
        traced_s, payload_bytes = replica_pass(workload, seed, gate, tally, tracer)
        passes.append(_pass_metrics(tracer, traced_s, plain_s, payload_bytes))
        tracers.append(tracer)

    values: dict[str, float] = {}
    source: dict[str, str] = {}
    for name in passes[0]:
        samples = [p[name] for p in passes]
        if samples[0] is None:
            continue
        if name in COUNT_METRICS and len(set(samples)) != 1:
            tally.fail(f"count {name} differs between passes of one seed: {samples}")
        values[name] = samples[0] if name in COUNT_METRICS else median(samples)
        source[name] = "workload"

    wanted: list[tuple[str, Callable[[Tracer], dict[str, float]]]] = [("probe.fixed", _probe_fixed)]
    if "exact.abs_central_moment_ms" not in values:
        wanted.append(("probe.exact", functools.partial(_probe_exact, workload)))
    for probe, owner in (("probe.chain", "clt-chain"), ("probe.categorical", "clt-alias")):
        if not set(MONTECARLO_METRICS[probe]) <= set(values):
            wanted.append((probe, functools.partial(_probe_clt, owner)))
    probes: dict[str, Tracer] = {}
    for probe, run_probe in wanted:
        probes[probe] = Tracer()
        for name, value in run_probe(probes[probe]).items():
            if name not in values:
                values[name] = value
                source[name] = probe
    speedup, fanout_walls = _fanout_speedup(seed, tally)
    values["cli.import_ms"] = import_ms
    values["montecarlo.fanout_speedup"] = speedup
    source.update({"cli.import_ms": "setup_probe", "montecarlo.fanout_speedup": "fanout"})

    missing = set(PER_LAYER_UNITS) - set(values)
    if missing:
        raise RuntimeError(f"traced run produced no value for {sorted(missing)}")
    trace_path = write_record(
        f"TRACE_{workload.name}_seed{seed}.json",
        {"workload": tracers[0].dump(), **{name: t.dump() for name, t in probes.items()}},
    )
    record = {
        "metric_source": source,
        "passes": passes,
        "fanout_walls_s": fanout_walls,
        "pmf_sizes": gate.sizes,
        "sha256": gate.hashes,
        "sha256_pinned": gate.pinned,
        "trace_file": trace_path.name,
    }
    return values, record, tally
