"""The benchmark's solver executable: `rcrs.dlsolver` under the solver
contract (SMT-LIB on stdin, verdict on the first stdout line), run by the
benchmark's interpreter with the benchmark's import path.

When PERFBENCH_SOLVER_LOG names a file, the in-process `dlsolver.run` time of
each script is appended to it in milliseconds, so that a traced run can split
`analysis.run_solver` time into process spawn and solving.
"""

import os
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rcrs import dlsolver  # noqa: E402


def main() -> int:
    log = os.environ.get("PERFBENCH_SOLVER_LOG")
    if log:
        run = dlsolver.run

        def timed(script):
            start = perf_counter()
            try:
                return run(script)
            finally:
                with open(log, "a", encoding="utf-8") as f:
                    f.write(f"{(perf_counter() - start) * 1e3!r}\n")

        dlsolver.run = timed
    return dlsolver.main()


if __name__ == "__main__":
    sys.exit(main())
