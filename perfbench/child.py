"""Child processes timed by the benchmark."""

import subprocess
import threading


def run_child(argv, env: dict, cwd: str, timeout: float, capture: bool = True):
    """Run argv to completion; (exit code, stdout, stderr).

    Waits with a blocking waitpid: subprocess's own timeout polls with
    sleeps of up to 50 ms, which would quantize the times measured here.  A
    timer kills the child after `timeout` seconds instead."""
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    with subprocess.Popen(argv, env=env, cwd=cwd, stdout=pipe, stderr=pipe,
                          encoding="utf-8") as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    return proc.returncode, out, err
