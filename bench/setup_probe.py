"""Time the set-up a fresh process pays before its first control tick.

Usage: python3 setup_probe.py <src-dir> <scenario> [<scenario> ...]

Starts the clock before anything heavy is imported, then imports polycbf
(and with it numpy), builds each named builtin scenario and makes one full
control evaluation (barrier, desired velocity, filter) at its default start,
so that any lazy set-up is charged here.  Prints the elapsed seconds and a
host-speed probe (nanoseconds, see hostspeed.py) taken right after.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402


def main(argv):
    sys.path.insert(0, argv[1])
    import polycbf as pc

    for name in argv[2:]:
        s = pc.builtin(name)
        x0 = s.default_sim.x0
        ev = pc.smooth_barrier(s.environment, s.agent, x0, 0.0, s.cbf)
        pc.safe_velocity(ev, s.controller.velocity(x0), s.cbf)
    elapsed = time.perf_counter() - T0
    import hostspeed
    print(repr(elapsed), repr(hostspeed.probe_ns(5)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
