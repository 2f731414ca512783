"""The library names the benchmark under bench/ looks up.

bench/tracing.py replaces each (owner, attribute) of its HOOKS through
owner.__dict__ whenever a run is traced, so a library name that is
renamed or deleted fails here before it breaks a benchmark run.
"""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_every_hook_resolves():
    sys.path.insert(0, BENCH)
    try:
        import tracing
    finally:
        sys.path.remove(BENCH)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.HOOKS if attr not in owner.__dict__]
    assert not missing
