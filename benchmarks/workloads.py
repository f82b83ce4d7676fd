"""Workload table, payload checks, pins and process helpers shared by the benchmark.

Every workload is a fixed list of ``entrokit`` CLI invocations.  The
workload seed goes to ``--seed`` (``describe`` takes none, so its inputs
are the same at every seed).  Replicate counts are chosen so that one
pass of a workload takes about two to four seconds on a 2-core x86 host,
which lets a 25-second run take a median over several passes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
PINS_FILE = BENCH_DIR / "pins.json"

DEFAULT_SEED = 42
# No single CLI call of any workload takes more than a few seconds; a call
# that outlives this is hung and is killed and counted as failed.
CALL_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a workload, with what its payload must show."""

    argv: tuple[str, ...]
    seeded: bool
    # (family spec, n) of every Pmf the call builds, in order; n is None for describe.
    pmfs: tuple[tuple[str, int | None], ...]

    def args(self, seed: int, out: Path, workers: int | None = None) -> list[str]:
        argv = list(self.argv)
        if workers is not None:
            argv[argv.index("--workers") + 1] = str(workers)
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv + ["--out", str(out)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple[Call, ...]
    replicates: int  # --reps, the floor of each grid point's replicate count

    @property
    def setup_pmfs(self) -> list[str]:
        return [spec for call in self.calls for spec, _ in call.pmfs]


def _experiment(argv: str, family: str, pmfs: tuple[tuple[int, int], ...]) -> Call:
    return Call(
        tuple(argv.split()), True, tuple((f"{family}:{k}", n) for k, n in pmfs)
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "clt-chain",
            "conditional-binomial chain at K=1000, n=1e6: the sampling hot path",
            (
                _experiment(
                    "clt --family harmonic --K-rule pow:0.5 --n-grid 1000000 --reps 256 --workers 1",
                    "harmonic",
                    ((1000, 1_000_000),),
                ),
            ),
            256,
        ),
        Workload(
            "clt-alias",
            "alias-table sampler and decompose at K=1e4, n=1e5; never runs the chain",
            (
                _experiment(
                    "clt --family harmonic --K-rule fixed:10000 --n-grid 100000 --reps 256"
                    " --sampler categorical --workers 1",
                    "harmonic",
                    ((10000, 100_000),),
                ),
            ),
            256,
        ),
        Workload(
            "mdp-tail",
            "45k tiny K=2 replicates over 2 workers: per-replicate fixed cost and process fan-out",
            (
                _experiment(
                    "mdp --family expgeom --K-rule logpow:0.4 --n-grid 1000,10000,100000 --reps 2000"
                    " --mdp-rho 0.1 --mdp-eps 1.0 --mdp-r 1.1 --workers 2",
                    "expgeom",
                    ((2, 1000), (2, 10000), (2, 100_000)),
                ),
            ),
            2000,
        ),
        Workload(
            "describe-1e6",
            "exact functionals of three K=1e6 Pmfs: family build and population passes, no sampling",
            tuple(
                Call(("describe", "--family", spec, "--delta", "1.0"), False, ((spec, None),))
                for spec in ("harmonic:1000000", "logharmonic:1000000", "uniform:1000000")
            ),
            0,
        ),
    )
}


# ---------------------------------------------------------------------------
# Payload checks
# ---------------------------------------------------------------------------


class PayloadError(ValueError):
    """A CLI payload does not have the shape or values its invocation implies."""


def _finite(value: object, what: str) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise PayloadError(f"{what} is not a finite number: {value!r}")
    return float(value)


def check_payload(workload: Workload, call: Call, seed: int, data: bytes) -> tuple[int, list[dict]]:
    """Validate one payload; return (replicates simulated, [{"K", "n"}] per Pmf).

    ``describe`` simulates nothing; it counts as one replicate per Pmf
    described, so that ``reps_per_s`` is defined on every workload.
    """
    try:
        record = json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PayloadError(f"payload is not JSON: {exc}") from exc
    command = call.argv[0]
    if record.get("command") != command:
        raise PayloadError(f"payload command {record.get('command')!r} != {command!r}")
    results = record.get("results")
    if not isinstance(results, dict):
        raise PayloadError("payload has no results object")
    expected = [(int(spec.rsplit(":", 1)[1]), n) for spec, n in call.pmfs]
    if command == "describe":
        k = results.get("K")
        if k != expected[0][0]:
            raise PayloadError(f"describe K {k!r} != {expected[0][0]}")
        for key in ("entropy", "sigma2", "abs_central_moment", "split_moment_bound"):
            _finite(results.get(key), key)
        return 1, [{"K": k, "n": None}]

    if record.get("config", {}).get("seed") != seed:
        raise PayloadError(f"payload seed {record.get('config', {}).get('seed')!r} != {seed}")
    rows = results.get("experiments" if command == "clt" else "cells")
    if not isinstance(rows, list) or [(r.get("K"), r.get("n")) for r in rows] != expected:
        raise PayloadError(f"payload grid {rows and [(r.get('K'), r.get('n')) for r in rows]} != {expected}")
    total = 0
    for row in rows:
        if command == "clt":
            z = row.get("z_samples")
            if row.get("replicates") != workload.replicates or not isinstance(z, list) or len(z) != workload.replicates:
                raise PayloadError(f"clt row at n={row['n']} has {row.get('replicates')} replicates")
            if any(b < a for a, b in zip(z, z[1:])):
                raise PayloadError("z_samples are not sorted")
            if not 0.0 <= _finite(row.get("ks_distance"), "ks_distance") <= 1.0:
                raise PayloadError("ks_distance outside [0, 1]")
            total += row["replicates"]
        else:
            used = row.get("replicates_used")
            if row.get("flag") != "ok" or not isinstance(used, int) or used < workload.replicates:
                raise PayloadError(f"mdp cell at n={row['n']}: flag {row.get('flag')!r}, {used!r} replicates")
            if not 0 < row.get("exceedances", 0) <= used:
                raise PayloadError(f"mdp cell at n={row['n']}: {row.get('exceedances')!r} exceedances")
            total += used
    return total, [{"K": k, "n": n} for k, n in expected]


def load_pins() -> dict[str, list[str]]:
    """sha256 of every call's payload at the default seed, per workload."""
    return json.loads(PINS_FILE.read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Tally:
    """Attempted and failed CLI calls of one run, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"FAIL: {message}", file=sys.stderr)


class PayloadGate:
    """Checks every payload of a run: shape, pin at the default seed, same bytes on repeat.

    A call that takes no seed is pinned at every seed.  Otherwise, at a
    seed other than the default, the first payload of each call becomes the
    reference that later repeats in the run must match byte for byte.
    """

    def __init__(self, workload: Workload, seed: int, pins: dict[str, list[str]]):
        self.workload = workload
        self.seed = seed
        self.reference: list[str | None] = [
            pin if seed == DEFAULT_SEED or not call.seeded else None
            for call, pin in zip(workload.calls, pins[workload.name], strict=True)
        ]
        self.pinned = [ref is not None for ref in self.reference]
        self.sizes: list[list[dict]] = [[] for _ in workload.calls]
        self.hashes: list[str | None] = [None] * len(workload.calls)

    def check(self, index: int, data: bytes, tally: Tally) -> int | None:
        """Validate the payload of call ``index``; return its replicate count, or None on failure."""
        call = self.workload.calls[index]
        digest = sha256(data)
        self.hashes[index] = digest
        try:
            reps, sizes = check_payload(self.workload, call, self.seed, data)
        except PayloadError as exc:
            tally.fail(f"{' '.join(call.argv[:3])}: {exc}")
            return None
        self.sizes[index] = sizes
        if self.reference[index] is None:
            self.reference[index] = digest
        elif digest != self.reference[index]:
            kind = "pinned" if self.pinned[index] else "first"
            tally.fail(f"{' '.join(call.argv[:3])}: sha256 {digest} != {kind} {self.reference[index]}")
            return None
        return reps


# ---------------------------------------------------------------------------
# Processes and host facts
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


@dataclass(frozen=True)
class ProcessResult:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes


def run_process(argv: list[str]) -> ProcessResult:
    """Run a child to completion and return its wall time and ``wait4`` rusage.

    The rusage covers the child and every descendant it waited for (pool
    workers included); ``ru_maxrss`` is then the largest of them.  The
    child gets its own session so a hung call is killed with all its
    descendants.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    timer = threading.Timer(CALL_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessResult(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out,
    )


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "entrokit.cli", *args]


def setup_probe(workload: Workload) -> tuple[ProcessResult, dict]:
    """Fresh interpreter: import the CLI, build every Pmf of the workload and summarise it."""
    result = run_process([sys.executable, str(BENCH_DIR / "setup_probe.py"), *workload.setup_pmfs])
    if result.code != 0:
        raise RuntimeError(f"set-up probe exited with {result.code}")
    return result, json.loads(result.stdout.decode().strip().splitlines()[-1])


def host_facts() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def require_program() -> None:
    """Exit with code 2, printing no result, when the checkout holds no entrokit source."""
    if not (SRC / "entrokit" / "cli.py").is_file():
        print(f"error: no entrokit source under {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)


def write_record(name: str, record: dict) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / name
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path
