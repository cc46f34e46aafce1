"""Digest every solve of the benchmark's input pools, to check that a change
leaves the results bit-identical.

Run from the root of a checkout:

  python3 tools/pool_digest.py                  # 3 workloads x 4 seeds x 16 inputs
  python3 tools/pool_digest.py --tiny           # one tiny input per pool
  python3 tools/pool_digest.py --seeds 555      # other seeds

It builds each workload's pool through perfbench/workloads.py, solves
every input as the benchmark does, and prints one line per (workload,
seed): the inputs solved and a SHA-256 over their results.  A result
enters by its dataclass fields other than the payloads: steps, stop
reason, the protocol's arrays, the certificate's weight bytes, lower
bound and residual, every round record, the atoms, the bounds and, for a
Blotto game, `dims`.  Floats enter as float.hex, arrays as their dtype,
shape and bytes, and dicts in the order of their keys' repr, so equal
digests mean equal bits.  Run it on two checkouts and compare the lines.
"""

import argparse
import dataclasses
import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from run import DEFAULT_SEEDS  # noqa: E402

SEEDS = "default,99,31337,4242"


def feed(h, value):
    """Add `value` to the hash `h`, each kind under its own tag."""
    if dataclasses.is_dataclass(value):
        h.update(b"D" + type(value).__name__.encode())
        for f in dataclasses.fields(value):
            if f.name != "payloads":
                h.update(f.name.encode())
                feed(h, getattr(value, f.name))
    elif isinstance(value, np.ndarray):
        h.update(b"A" + value.dtype.str.encode() + repr(value.shape).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        h.update(b"M%d" % len(value))
        for key in sorted(value, key=repr):
            feed(h, key)
            feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(b"L%d" % len(value))
        for item in value:
            feed(h, item)
    elif isinstance(value, (float, np.floating)):
        h.update(b"F" + float(value).hex().encode())
    elif value is None or isinstance(value, str):
        h.update(b"S" + repr(value).encode())
    elif isinstance(value, (bool, np.bool_)):  # before int, which bool subclasses
        h.update(b"B%d" % bool(value))
    elif isinstance(value, (int, np.integer)):
        h.update(b"I" + str(int(value)).encode())
    else:
        raise TypeError(f"no digest for a {type(value).__name__}")


def digest(name, seed, tiny):
    """(inputs, hex digest) of one workload's pool at `seed`."""
    wl = workloads.WORKLOADS[name](tiny=tiny)
    pool = wl.build(seed)
    h = hashlib.sha256()
    for inst in pool:
        feed(h, wl.solve(inst))
    return len(pool), h.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default=SEEDS,
                   help=f"comma-separated seeds, 'default' for the benchmark's (default {SEEDS})")
    p.add_argument("--tiny", action="store_true", help="the one-input tiny pools of the tests")
    args = p.parse_args(argv)
    for name in sorted(workloads.WORKLOADS):
        for seed in args.seeds.split(","):
            seed = DEFAULT_SEEDS[name] if seed == "default" else int(seed)
            count, hexdigest = digest(name, seed, args.tiny)
            print(f"{name} seed={seed} inputs={count} sha256={hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
