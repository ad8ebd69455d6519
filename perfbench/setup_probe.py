"""One set-up measurement, run in a fresh interpreter by ``run.py``.

Times what a CLI user pays before the first verdict: importing the
package, creating a ``Session`` and compiling the ``rc11``, ``armv7``
and ``aarch64`` cat models.  Prints the seconds and the mean of the
calibration kernel sampled just before and just after, on one line.

Usage: python3 perfbench/setup_probe.py REPO_ROOT
"""

import os
import sys
from time import perf_counter

from calibration import calibrate


def main() -> None:
    samples = [calibrate() for _ in range(3)]
    start = perf_counter()
    sys.path.insert(0, os.path.join(sys.argv[1], "src"))
    from repro.api import Session

    session = Session()
    for name in ("rc11", "armv7", "aarch64"):
        session.model(name).compile()
    seconds = perf_counter() - start
    samples += [calibrate() for _ in range(3)]
    print(f"{seconds:.9f} {sum(samples) / len(samples):.9f}")


if __name__ == "__main__":
    main()
