"""Set-up work in a fresh process: import vortexlab, parse every config given
on the command line and build its surface.  run.py times this whole process.

Usage: python3 perfbench/setup_probe.py CONFIG.yaml [CONFIG.yaml ...]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from vortexlab import cli  # noqa: E402


def main(paths):
    for path in paths:
        cli.parse_config(path).surface()


if __name__ == "__main__":
    main(sys.argv[1:])
