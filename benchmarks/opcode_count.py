"""The number of bytecodes one call executes, a count beside the layer timings.

``count_opcodes(fn)`` calls ``fn()`` once under ``sys.settrace``, with
``f_trace_opcodes`` set on every frame it opens, and returns how many
"opcode" events fired.  The count is exact and repeats from run to run
whatever the host's speed, so a body whose count did not change and whose
time moved has moved by noise.  Each body of ``test_layers.py`` and
``test_symfunc_layers.py`` runs once under it, outside the timed rounds,
and stores the count in ``benchmark.extra_info["opcodes"]``.

Limits:

- One bytecode is one unit, whatever it does.  A big-integer product, a
  ``set.issuperset`` over q**b vectors or a sort inside C counts as one,
  so counts fit the oracle's pure-Python loops and under-weight the
  ``Fraction`` work of ``symfunc``, ``specializations`` and the growth
  chain, where times must carry a claim.
- Counts depend on the Python version: compare only counts taken under
  one interpreter.
- Tracing slows a body 13-35x.
"""

import sys


def count_opcodes(fn) -> int:
    """Bytecodes executed by ``fn()`` and every Python frame it opens."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        else:
            frame.f_trace_opcodes = True
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count
