"""Set-up probe: a fresh interpreter that gets one workload ready, then reports.

Ready means ``pareto_forge`` is imported, the workload's inputs are loaded or
generated, and the models are fitted. The probe prints ``time.perf_counter()``
at that moment; on Linux that clock is CLOCK_MONOTONIC, shared by every
process, so the caller subtracts the time it took just before starting us.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from workloads import WORKLOADS, use_checkout_package


def main() -> int:
    workload, input_dir = sys.argv[1], Path(sys.argv[2])
    use_checkout_package()
    WORKLOADS[workload].prepare(input_dir)
    print(repr(time.perf_counter()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
