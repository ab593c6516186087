"""Run every workload once and print the end-to-end metrics as one table.

Run from the repository root:

    python3 perfbench/report.py --seed 1 --seconds 20

Each workload runs in its own process (peak memory is per process).  The
table gives every end-to-end metric with its unit, the error rate, and the
job counts behind the percentiles; failed jobs are listed by name.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    status = 0
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                               workload, "--seed", str(args.seed), "--seconds",
                               str(args.seconds), "--trace", "0"],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run failed\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        rows.append((workload, result))
        print(lines[0])
        for line in lines[1:-1]:
            if line.startswith(("  failed ", "known fault ")):
                print(line)
    names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    header = f"{'workload':12s}" + "".join(f"{n + ' (' + units[n] + ')':>22s}" for n in names)
    print(header + f"{'error_rate':>14s}{'jobs':>8s}")
    for workload, result in rows:
        cells = "".join(f"{result['metrics'][n]['value']:22.6g}" for n in names)
        rate = result["failed"] / result["attempted"]
        print(f"{workload:12s}{cells}{rate:14.4g}{result['attempted']:8d}")
    sys.exit(status)


if __name__ == "__main__":
    main()
