"""The benchmark's workloads, each made from a seed.

corpus6 and random78 are fixed instance sets whose order the seed shuffles:
their cost is dominated by a few sparse no-instances, so a seeded subsample
would change the totals by 14-41 % from seed to seed (see README).  planted
draws fresh instances from the seed, sized so that their costs are even.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from orient_augment import enumerate_plane as ep
from orient_augment import pog_io

import planted as planted_gen

K = 3
CORPUS_STRIDE = 10          # every 10th graph of oriented_corpus(6)
RANDOM78_COUNT = 150        # the first acceptance random instances
PLANTED_COUNT = 100
PLANTED_N = (40, 200)       # sizes spread evenly over this range


@dataclass(frozen=True)
class Instance:
    name: str
    text: str                     # .pog text, parsed afresh for every solve
    removed: Optional[int] = None  # planted: arcs taken out, so optimum <= it


def corpus6(seed: int) -> list[Instance]:
    corpus = ep.oriented_corpus(6)
    out = [
        Instance(f"c6-{i}", pog_io.write_pog(corpus[i]))
        for i in range(0, len(corpus), CORPUS_STRIDE)
    ]
    random.Random(seed).shuffle(out)
    return out


def random78(seed: int) -> list[Instance]:
    """The formula of tests/test_acceptance.py::random_instances."""
    out = []
    for i in range(RANDOM78_COUNT):
        n = 7 + (i % 2)
        m = (n - 1) + (i * 7919) % (3 * n - 6 - (n - 1) + 1)
        D = pog_io.gen_random(n, m, seed=1000 + i)
        out.append(Instance(f"r78-{i}", pog_io.write_pog(D)))
    random.Random(seed).shuffle(out)
    return out


def planted(seed: int) -> list[Instance]:
    out = []
    for i in range(PLANTED_COUNT):
        lo, hi = PLANTED_N
        n = lo + (hi - lo) * i // (PLANTED_COUNT - 1)
        inst = planted_gen.planted_instance(n, seed=seed * 1_000_003 + i)
        D = inst.graph
        out.append(Instance(f"p{i}-n{D.n}-j{inst.removed}",
                            pog_io.write_pog(D), inst.removed))
    return out


WORKLOADS = {"corpus6": corpus6, "random78": random78, "planted": planted}
# Workloads small enough for the brute-force oracle (n <= 10).
ORACLE_WORKLOADS = {"corpus6", "random78"}
