"""Reference calls that gauge the shared host's speed, round by round.

On the 2-vCPU virtual machines this benchmark was tuned on, the same CLI
call ran up to 1.5x slower from one second to the next and for minutes at a
time, with CPU time equal to wall time; raw medians of 30 s runs spread by
about 0.2 over ten seeds.  Two reference calls, made in every round next to
the timed calls, follow that drift:

- ``START``: the interpreter alone, without ``site`` or the library;
- ``COMPUTE``: the same start plus a fixed loop of small-object work.

Neither touches the library, so no change to it moves them.  A call that
starts the interpreter and computes (the workload calls) is scaled by the
round's two starts and one compute reference together; the minimal call,
which is mostly interpreter start, by the round's two starts alone.  Each
scaled time is what the call would take on a host where these references
take their ``NOMINAL_S`` figures.  Over ten 30 s windows of one stream of
rounds, this cut the spread of the window medians from 0.21 to 0.02–0.03.
"""

from __future__ import annotations

import sys

START = [sys.executable, "-I", "-S", "-c", "pass"]

_COMPUTE_CODE = """\
d = {}
acc = 0
for i in range(30000):
    key = (i % 997, i % 13)
    s = frozenset(range(i % 7, i % 7 + 5))
    d[key] = d.get(key, 0) + len(s)
    acc += sum(sorted((j * 7) % 31 for j in s))
print(acc + len(d))
"""
COMPUTE = [sys.executable, "-I", "-S", "-c", _COMPUTE_CODE]

#: what each reference prints; anything else means it did not run right
OUTPUT = {"start": "", "compute": "2207271\n"}

#: the references' wall times on a 2.0 GHz Xeon vCPU with Python 3.11:
#: one start, and two starts plus one compute reference
START_NOMINAL_S = 0.015
CALL_NOMINAL_S = 0.17
