"""Start benchmark jobs from a process that stays small.

On Linux a child's ru_maxrss also counts the peak RSS of the process that
started it, because the peak is carried across fork and exec. The runner
holds inputs and reports in memory, so it does not start jobs itself: it
sends this process one JSON request per line on stdin,
``{"cmd", "cwd", "env", "stdout", "stderr"}``, and reads back one line per
job, ``{"seconds", "returncode", "maxrss_kb"}``. The process exits when
stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time

JOB_TIMEOUT_S = 60


def run(job: dict) -> dict:
    with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(job["cmd"], cwd=job["cwd"], env=job["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "returncode": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
