"""Wall-clock benchmark of functional execution (seeds BENCH_e2e.json).

Times end-to-end inference through the per-layer interpreter, the
compiled fused path against it, and the verification sweep serial
versus parallel, then writes the numbers to ``BENCH_e2e.json`` at the
repo root so the perf trajectory is tracked across PRs
(``benchmarks/check_bench_regression.py`` compares a fresh run against
the committed baseline in CI).

Byte-identity of the compiled path against the interpreter is asserted
inside the benchmark itself while timing.
"""

import json
import pathlib

from repro.harness.bench import render_bench, run_bench

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_wallclock_e2e():
    results = run_bench(repeats=3, jobs=2)
    print()
    print(render_bench(results))
    (_REPO_ROOT / "BENCH_e2e.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n")

    functional = results["functional"]
    compiled = results["compiled"]
    minis = ("alexnet_mini", "googlenet_mini", "mobilenet_mini",
             "squeezenet_mini", "vgg_mini")
    # Every mini-zoo cell ran under all four policies, interpreted and
    # compiled; byte-identity between the two is asserted inside the
    # benchmark itself.
    for model in minis:
        for policy in ("pfq", "quint8", "f16", "f32"):
            assert functional[f"{model}/{policy}"]["functional_ms"] > 0.0
            cell = compiled["cells"][f"{model}/{policy}"]
            assert cell["compiled_ms"] > 0.0
            assert cell["arena_bytes"] > 0.0
    # The compiled path's acceptance bar is >1.5x functional on the
    # minis in aggregate (measured ~2.7x); the gate here is set below
    # that so a noisy CI runner does not flake the suite -- the
    # regression checker tracks the real trajectory.
    assert compiled["summary"]["speedup"] > 1.1
    assert results["summary"]["functional_total_ms"] > 0.0

    sweep = results["sweep"]
    assert sweep["serial_s"] > 0.0
    assert sweep["cells"] > 0
    # The parallel leg ran and kept deterministic ordering (run_bench
    # raises on order divergence).
    assert "parallel_s" in sweep
