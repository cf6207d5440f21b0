"""Start one command at a time for the benchmark, and time it.

A child's peak RSS, as `wait4` reports it, starts from the RSS of the
process that spawned it. The benchmark itself holds numpy, scipy and
in-process runs, so it asks this small process, which imports only the
standard library, to spawn each command.

Protocol: one JSON request per stdin line, `{"argv": [...], "stderr": path}`;
one JSON reply per stdout line, `{"wall_s": s, "maxrss_kb": kb, "code": c}`.
It ends when stdin closes.
"""

import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    request = json.loads(line)
    with open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    reply = {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}
    print(json.dumps(reply), flush=True)
