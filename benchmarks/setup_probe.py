"""Set-up probe, run in a fresh interpreter: import the CLI, then build and summarise Pmfs.

Usage: python3 benchmarks/setup_probe.py FAMILY:K [FAMILY:K ...]

Needs ``src`` on PYTHONPATH.  Prints one JSON line with the import time
and the summed ``build_family`` and ``population_summary`` times, in ms.
"""

import json
import sys
import time


def main(specs: list[str]) -> None:
    started = time.perf_counter()
    import entrokit.cli  # noqa: F401  (the import is what is timed)
    from entrokit import build_family, parse_family, population_summary

    imported = time.perf_counter()
    build_s = summary_s = 0.0
    for spec in specs:
        t0 = time.perf_counter()
        pmf = build_family(parse_family(spec))
        t1 = time.perf_counter()
        population_summary(pmf)
        t2 = time.perf_counter()
        build_s += t1 - t0
        summary_s += t2 - t1
    print(
        json.dumps(
            {
                "import_ms": 1e3 * (imported - started),
                "build_family_ms": 1e3 * build_s,
                "population_summary_ms": 1e3 * summary_s,
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1:])
