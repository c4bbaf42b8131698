"""One set-up, timed from outside by run.py: interpreter start, importing
numpy and aeaudit, and writing a workload's generated inputs.

    python3 perfbench/setup_probe.py <workload> <seed> <directory>
"""

import sys
from pathlib import Path

from workloads import WORKLOADS

if __name__ == "__main__":
    name, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[name](directory, seed).prepare()
