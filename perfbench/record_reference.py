"""Record the heis33_march reference: step count and final field at seed 0.

    python3 perfbench/record_reference.py

Writes perfbench/reference/heis33_seed0.npz, which every heis33_march run
checks its final field against (carried through the seed's symmetry).
Re-record only when a change deliberately alters the scheme's numerics, and
say so in CHANGES.md.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import workloads
from carnotpde import solver


def main():
    march = workloads.Heis33March(0, ROOT / ".perfbench_out")
    problem, config, scheme = march.define()
    result = solver.solve_parabolic(problem, config, list(march.snapshot_times),
                                    scheme=scheme)
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(workloads.REFERENCE, final=result.final.values,
                        steps=np.int64(result.steps))
    print(f"{result.steps} steps written to {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
