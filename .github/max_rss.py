"""Max RSS of a Python child process, for the memory steps of ci.yml.

Each step puts this directory on ``PYTHONPATH`` and imports ``max_rss``.
"""

import os
import subprocess
import sys


def max_rss(*argv):
    """Run ``python *argv`` with its output discarded and return its max RSS
    in MB; exit with a message if it fails."""
    child = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    if status:
        sys.exit(f"{argv} failed with wait status {status}")
    return usage.ru_maxrss / 1024
