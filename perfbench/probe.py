"""
One set-up in a fresh process.  Prints one JSON line: the CLOCK_MONOTONIC
time at which set-up ended and the time of each part.  ``run.py`` starts
this several times and takes ``setup_s`` as the median of (end - spawn).
"""

import json
import sys
import time

from stage import SetupError, set_up

if __name__ == "__main__":
    try:
        _, parts = set_up()
    except SetupError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(2)
    print(json.dumps({"ready": time.monotonic(), "parts": parts}))
