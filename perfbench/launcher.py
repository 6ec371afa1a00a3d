"""Starts the benchmark's commands, one at a time, and reports what each cost.

Reads one JSON line per command from stdin, [argv, stdout path, stderr path,
timeout in seconds], runs `python argv...` to exit and answers with one JSON
line, [exit code, wall s, user+system CPU s, peak RSS KiB].

It runs as its own small process because Linux carries the peak RSS of a
process over fork and exec: a command forked straight from the harness,
which holds scipy and the references, would report the harness's size.
Imports are kept to the standard library for the same reason.
"""
import json
import os
import subprocess
import sys
import threading
import time

for line in sys.stdin:
    argv, out_path, err_path, timeout = json.loads(line)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    reply = [proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss]
    print(json.dumps(reply), flush=True)
