"""One benchmark set-up in a fresh interpreter: import misens and generate
a workload's datasets, then exit.  `run.py` times several of these from
process start to exit and reports their median as `setup_s`.

    python3 perfbench/setup_once.py <workload>
"""

import sys

if __name__ == "__main__":
    import workloads

    workloads.generate(sys.argv[1])
