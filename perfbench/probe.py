"""Set-up probe: the work a fresh process does before a workload is ready.

    python3 perfbench/probe.py <config-dir>

Imports ``fracwell`` from the checkout's ``src``, loads every config in
``<config-dir>``, builds its parameters, grid, coefficients, initial pair and
weight tables, and prints the ``time.monotonic()`` reading at which it is
ready.  It imports nothing else, so ``setup_s`` measures the program and not
the benchmark.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def table_misses(fracops) -> int:
    """Weight-table cache misses so far in this process (0 without a cache)."""
    cache_info = getattr(getattr(fracops, "_weight_table", None), "cache_info", None)
    return cache_info().misses if cache_info else 0


def setup(fracwell, fracops, config_paths) -> tuple[int, float]:
    """Load each config and build its parameters, grid, coefficients, initial
    pair and weight tables.  Returns (tables built, seconds spent building)."""
    table = getattr(fracops, "weight_table", None)
    builds, build_s = 0, 0.0
    for path in config_paths:
        cfg = fracwell.ExperimentConfig.load(path)
        params, grid = cfg.build_params(), cfg.build_grid()
        cfg.build_kirchhoff()
        cfg.build_initial_pair(grid)
        for expo in ((params.p, params.q) if table else ()):
            before = table_misses(fracops)
            t0 = time.perf_counter()
            table(grid, expo, params.s)
            if table_misses(fracops) > before:
                builds += 1
                build_s += time.perf_counter() - t0
    return builds, build_s


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    import fracwell
    from fracwell import fracops

    setup(fracwell, fracops, sorted(Path(sys.argv[1]).glob("*.json")))
    print(repr(time.monotonic()))
