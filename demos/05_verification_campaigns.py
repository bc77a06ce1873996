"""Desk-scale verification campaigns and the counterexample hunt.

Every campaign walks the canonical enumeration (or seeded random trials),
cut where the campaign's hypothesis fails for every class below, so its
machine report is byte-identical across reruns and worker counts.
Checkpoints make long runs resumable; this demo uses a throwaway file.
"""

import argparse
import tempfile
from pathlib import Path

from supercyclic import (CheckpointConfig, HuntConfig, hunt_counterexample,
                         verify_degree_theorem, verify_k_cyclic)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    print("every condition-satisfying class with |X|=3, |Y|<=4 is 3-cyclic:")
    rep = verify_k_cyclic(3, 4, 3, jobs=args.jobs)
    print(rep.to_text())

    print("degree bound + condition force super-cyclicity, |X|=4, |Y|<=5:")
    rep = verify_degree_theorem(4, 5, jobs=args.jobs)
    print(rep.to_text())

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = CheckpointConfig(Path(tmp) / "hunt.ckpt", every=200)
        print("exhaustive hunt at (4, 5), checkpointed:")
        rep = hunt_counterexample(HuntConfig(4, 5), jobs=args.jobs,
                                  checkpoint=ckpt)
        print(rep.to_text())
        # a second call resumes from the completed checkpoint instantly
        again = hunt_counterexample(HuntConfig(4, 5), checkpoint=ckpt)
        print(f"resumed report identical: "
              f"{again.to_machine() == rep.to_machine()}")

    print("\nseeded random hunt near the condition boundary, |X|=6:")
    rep = hunt_counterexample(HuntConfig(6, 8, mode="random", seed=0,
                                         trials=60), jobs=args.jobs)
    print(rep.to_text())


if __name__ == "__main__":
    main()
