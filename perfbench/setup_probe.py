"""Set-up time of one workload in a fresh interpreter: import the package,
load the fixtures and build what the workload needs. Prints the seconds
spent, leaving out the import of the benchmark's own modules.

    python3 perfbench/setup_probe.py <workload> <seed> <jobs>
"""
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    start = time.perf_counter()
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here), str(here.parent / "src")]
    import clusterloss  # noqa: F401

    imported = time.perf_counter()
    import workloads

    resumed = time.perf_counter()
    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), int(sys.argv[3]))
    print((imported - start) + (time.perf_counter() - resumed))
