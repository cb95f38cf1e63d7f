"""Child-process helper shared by run.py and the workload worker."""

import os
import subprocess
import threading
import time


def run(cmd, env, cwd, stdout_path, stderr_path, timeout):
    """Run ``cmd`` to completion; return ``(exit_code, wall_s, peak_rss_kb)``.

    The peak RSS is the child's own (``os.wait4``), not the running maximum
    over every child that ``RUSAGE_CHILDREN`` reports.  A child still running
    after ``timeout`` seconds is killed and reaped; its exit code is then
    negative.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss
