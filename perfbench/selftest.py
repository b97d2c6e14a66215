"""Self-test of the pipeline benchmark.

Run from the repository root::

    python3 perfbench/selftest.py [--seconds N]

Checks, through the benchmark command itself:

* every run is correct and prints exactly the metrics BENCHMARK.json
  names, in the unit it names;
* perfbench/interactions.json maps every per-layer metric;
* on the synchronous workloads, the count metrics listed under
  ``exact_counts`` are bit-equal across two runs of the same seed;
* every workload also passes on the held-out seed, which no sizing or
  tuning of the benchmark used;
* so does every workload the interaction map describes but
  BENCHMARK.json does not list (fleet_threaded).

Exits 0 when all checks pass. Takes about twenty minutes.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
TUNING_SEED = 1


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(
            f"{workload} seed {seed} trace {trace} printed no result "
            f"(exit {done.returncode}):\n{done.stderr[-3000:]}"
        )
    document = json.loads(lines[-1])
    if done.returncode != 0 or not document["correct"]:
        raise AssertionError(
            f"{workload} seed {seed} trace {trace} is not correct "
            f"(exit {done.returncode}):\n{done.stderr[-3000:]}"
        )
    return document


def _check_names(document: dict, expected: list[dict], label: str) -> None:
    got = {name: m["unit"] for name, m in document["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        raise AssertionError(f"{label}: metrics {got} != declared {want}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    interactions = json.loads((HERE / "interactions.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    declared = {m["name"] for m in spec["per_layer"]}
    mapped = set(interactions["per_layer"])
    if declared != mapped:
        raise AssertionError(
            f"interaction map and BENCHMARK.json disagree: "
            f"{sorted(declared ^ mapped)}"
        )
    exact = interactions["exact_counts"]
    held_out = exact["held_out_seed"]

    listed = [w["name"] for w in spec["workloads"]]
    unlisted = [w for w in interactions["workloads"] if w not in listed]
    for workload in listed + unlisted:
        runs = {}
        for trace, metrics in ((0, "end_to_end"), (1, "per_layer")):
            first = _run(workload, TUNING_SEED, args.seconds, trace)
            _check_names(first, spec[metrics], f"{workload} trace {trace}")
            runs[trace] = [first]
            if workload in exact["workloads"]:
                runs[trace].append(
                    _run(workload, TUNING_SEED, args.seconds, trace)
                )
        if workload in exact["workloads"]:
            for name in exact["metrics"]:
                trace = 1 if name in declared else 0
                values = [r["metrics"][name]["value"] for r in runs[trace]]
                if values[0] != values[1]:
                    raise AssertionError(
                        f"{workload}: {name} does not repeat exactly: "
                        f"{values}"
                    )
        _run(workload, held_out, args.seconds, 0)
        print(f"{workload}: ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
