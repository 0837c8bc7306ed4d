"""Start the CLI children of ``cli-large`` from a small interpreter.

Linux carries a process's peak RSS across ``exec``, so a child started
straight from the workload process, which holds the models, would report
that process's size as its own. This helper holds nothing: it reads one
JSON argv per line, runs it, answers with a JSON ``[exit code, stderr]``
line, and at end of input prints the largest peak RSS of its children in
KiB.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys


def main() -> int:
    for line in sys.stdin:
        proc = subprocess.run(json.loads(line), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        print(json.dumps([proc.returncode, proc.stderr.decode("utf-8", "replace")]), flush=True)
    print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
