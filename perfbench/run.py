"""Wall-clock benchmark of batch-1 inference through ``MuLayer``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload googlenet_b1 --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that measures the per-layer metrics and writes its
spans as Chrome trace-event JSON.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results,
stamped with the environment, are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no repro package under {SRC}; "
                         "run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from "
                         f"{repro.__file__}, not from {SRC}")


def _print_report(result: dict, env: dict) -> None:
    print(f"perfbench workload={result['workload']} "
          f"models={','.join(result['models'])} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if result["trace"]:
        print(f"  traced requests: {result['traced_requests']}")
        print("  ten slowest steps (mean ms per call):")
        for row in result["slowest_steps"]:
            print(f"    {row['ms']:10.3f}  {row['model']}/{row['layer']}")
        for note in result["notes"]:
            print(f"  note: {note}")
        if result["metrics"]["trace.negative_remainders"]["value"]:
            print("  WARNING: a derived remainder came out negative; the "
                  "separately timed calls do not add up")
    else:
        print(f"  error_rate = {result['error_rate']:.6g} share")
        print(f"  latency samples: {result['samples']} "
              f"({result['beyond_p90']} beyond p90)")
    idle = [name for name, off in result["idle"].items() if off]
    print(f"  idle (off the default path): {', '.join(idle) or 'none'}")
    for error in result["errors"]:
        print(f"  FAILED {error}")


def main(argv=None) -> int:
    _use_checkout_source()
    from core import WORKLOADS
    from measure import measure
    from stamp import environment

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace),
                     trace_path=stem + ".trace.json" if args.trace else "")
    env = environment(ROOT)
    result["env"] = env
    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    _print_report(result, env)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
