"""Time on a reference core: CPU time of the work, corrected for host speed.

The benchmark runs on a couple of vCPUs of a shared host. Other tenants
change how fast those vCPUs run, by up to a factor of two, for anything from
a second to minutes, and the change shows in CPU time as much as in wall
time: a fixed pure-Python loop took 14 ms of CPU time on one vCPU and 25 ms
a second later. Medians inside one run cannot remove a slowdown that lasts
the whole run, so every timed quantity of the end-to-end metrics is

    CPU time of the work  x  REF_S / CPU time of ref_loop() measured meanwhile

that is, the time the work would take on a core that runs ``ref_loop`` in
REF_S seconds. The reference loop is plain float arithmetic and function
calls, the same kind of work as the sirtimes fallback kernels, and it is part
of the benchmark, so no change to the package can move it. CPU time, not
wall time, is measured so that time slices taken by other processes on the
same vCPU are not charged to the work.

``RefClock`` starts this file as a child process on the benchmark's CPU.
The child runs ``ref_loop`` every INTERVAL_S seconds, about a tenth of the
CPU, and writes the monotonic time and CPU time of each run to a pipe, so
the host's speed is sampled while the work runs, whether the work runs in
the benchmark process or in a child of it.
"""

import fcntl
import math
import os
import statistics
import subprocess
import sys
import time

# CPU time of ref_loop() on an idle vCPU of the host the benchmark was tuned
# on (Intel Xeon at 2.1 GHz under KVM, Python 3.11.7). It only sets the unit;
# any fixed value would do.
REF_S = 0.0150
INTERVAL_S = 0.15
WINDOW_S = 1.0  # probes this close to an interval count for it
MIN_PROBES = 3  # probes behind each scale


def ref_loop(n=40_000):
    """Fixed pure-Python float work: a Simpson-like sum with calls."""

    def f(z):
        return math.exp(-z) * math.log1p(z * z) + z / (1.0 + z)

    h = 1.0 / n
    acc = 0.0
    for k in range(n):
        z = k * h
        acc += f(z) + 4.0 * f(z + 0.5 * h)
    return acc


def serve():
    """The probing child: runs until its parent or its pipe goes away."""
    parent = os.getppid()
    out = sys.stdout
    while os.getppid() == parent:
        c0 = time.thread_time()
        t0 = time.monotonic()
        ref_loop()
        cpu = time.thread_time() - c0
        try:
            out.write(f"{0.5 * (t0 + time.monotonic())!r} {cpu!r}\n")
            out.flush()
        except BrokenPipeError:
            return
        time.sleep(INTERVAL_S)


class RefClock:
    """Samples of the host's current speed, from the probing child, and
    conversion of CPU time to reference time. Use as a context manager: the
    child is stopped and waited for on every way out."""

    def __init__(self):
        self.probes = []  # (monotonic time, CPU seconds of one ref_loop)
        self._buf = b""
        self._proc = None

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                      stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        try:
            fd = self._proc.stdout.fileno()
            fcntl.fcntl(fd, fcntl.F_SETFL, fcntl.fcntl(fd, fcntl.F_GETFL) | os.O_NONBLOCK)
            while len(self.probes) < MIN_PROBES:
                if self._proc.poll() is not None:
                    raise RuntimeError(f"probing child exited {self._proc.returncode}")
                time.sleep(INTERVAL_S)
                self._drain()
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        self._proc.terminate()
        self._proc.wait()
        self._proc.stdout.close()
        return False

    def _drain(self):
        try:
            while chunk := os.read(self._proc.stdout.fileno(), 65536):
                self._buf += chunk
        except BlockingIOError:
            pass
        *lines, self._buf = self._buf.split(b"\n")
        for line in lines:
            t, cpu = line.split()
            self.probes.append((float(t), float(cpu)))

    def scale(self, t0, t1):
        """Reference seconds per CPU second over the monotonic interval
        [t0, t1]: the median of the probes within WINDOW_S of it, or of the
        MIN_PROBES nearest. The window smooths the noise of single probes;
        over five runs of one wide-domain sweep it gave a spread of 0.06 in
        call_ms_tail, where the three nearest probes gave 0.15."""
        self._drain()
        inside = [cpu for t, cpu in self.probes if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if len(inside) < MIN_PROBES:
            mid = 0.5 * (t0 + t1)
            near = sorted(self.probes, key=lambda p: abs(p[0] - mid))[:MIN_PROBES]
            inside = [cpu for _, cpu in near]
        return REF_S / statistics.median(inside)

    def recent_scale(self):
        """Scale over the last WINDOW_S seconds."""
        now = time.monotonic()
        return self.scale(now, now)

    def ref_ms(self):
        return statistics.median(cpu for _, cpu in self.probes) * 1e3


if __name__ == "__main__":
    serve()
