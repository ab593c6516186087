"""Set-up cost in a fresh interpreter: import the stack, then build the inputs.

Run from the repository root as `python3 perfbench/setup_child.py WORKLOAD SEED`;
prints the seconds from the first statement to inputs ready.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path[:0] = [os.path.join(os.getcwd(), "src"), os.path.dirname(os.path.abspath(__file__))]

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401

import photonflow  # noqa: E402
import photonflow.cli  # noqa: E402,F401
import workloads  # noqa: E402


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    jobs = workloads.generate(workload, seed)
    [workloads.Prepared(job, "work", photonflow) for job in jobs]
    print(repr(time.perf_counter() - _T0))


if __name__ == "__main__":
    main()
