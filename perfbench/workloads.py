"""Workload definitions and the seeded input generator.

Every input is written to disk through ``kcert.io.serialize_*``; the timed
worker and the set-up probe only ever read those files, as a CLI user would.
The same (workload, seed, size) always yields byte-identical files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from kcert.core import Hypergraph, XorInstance, gen_random
from kcert.io import serialize_hypergraph, serialize_xor

# Sizes were chosen so that one op takes under a second on a 2-CPU box. The
# batch is larger than a 25-second run gets through, so a run times as many
# distinct instances as it can; every run times the first answer_batch ones.
# "tiny" is for the smoke test.
WORKLOADS: dict[str, dict[str, dict]] = {
    "even-k4": {
        "full": {"kind": "refute-even", "n": 33, "k": 4, "m": 250, "r": 3, "batch": 40,
                 "answer_batch": 8},
        "tiny": {"kind": "refute-even", "n": 12, "k": 4, "m": 120, "r": 2, "batch": 2,
                 "answer_batch": 2},
    },
    "odd-k3-semirandom": {
        "full": {"kind": "refute-odd", "n": 10, "k": 3, "m_random": 200, "centers": 1,
                 "per_center": 55, "r": 2, "eps": "49/100", "batch": 6, "answer_batch": 6},
        "tiny": {"kind": "refute-odd", "n": 4, "k": 3, "m_random": 12, "centers": 1,
                 "per_center": 50, "r": 2, "eps": "49/100", "batch": 1, "answer_batch": 1},
    },
    "cover-find": {
        "full": {"kind": "cover", "n": 36, "k": 4, "m": 240, "r": 3, "batch": 64,
                 "answer_batch": 10, "oracle_n": 20, "oracle_m": 34, "oracle_batch": 32},
        "tiny": {"kind": "cover", "n": 12, "k": 4, "m": 30, "r": 3, "batch": 2,
                 "answer_batch": 2, "oracle_n": 10, "oracle_m": 16, "oracle_batch": 2},
    },
}


def _sub_seed(workload: str, seed: int, tag: str, index: int) -> int:
    # string seeding of random.Random is stable across runs and platforms
    return random.Random(f"{workload}:{seed}:{tag}:{index}").getrandbits(32)


def gen_planted_hypergraph(n: int, m_random: int, centers: int, per_center: int,
                           seed: int) -> Hypergraph:
    """Random 3-uniform clauses plus planted pair centers.

    Each center {a, b} receives ``per_center`` clauses {a, b, c} with c uniform
    over the other vertices, so the refutation decomposition extracts level-2
    groups on top of the level-1 parts. Clause order is shuffled, so the greedy
    extraction cannot simply take a contiguous planted block.
    """
    rng = random.Random(seed)
    edges = list(gen_random(n, 3, m_random, rng.getrandbits(32), mode="hyg-multi").edges)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < centers:
        a, b = sorted(rng.sample(range(n), 2))
        chosen.add((a, b))
    for a, b in sorted(chosen):
        others = [v for v in range(n) if v not in (a, b)]
        for _ in range(per_center):
            edges.append(tuple(sorted((a, b, rng.choice(others)))))
    rng.shuffle(edges)
    return Hypergraph(n=n, k=3, edges=tuple(edges))


def with_random_signs(h: Hypergraph, seed: int) -> XorInstance:
    rng = random.Random(seed)
    return XorInstance(hypergraph=h, signs=tuple(rng.choice((1, -1)) for _ in h.edges))


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="ascii", newline="\n")


def generate(workload: str, seed: int, size: str, out_dir: Path) -> dict:
    """Write the workload's input files into out_dir and return its plan.

    The plan (also written as plan.json) lists the instance files and the
    parameters each operation is run with.
    """
    params = dict(WORKLOADS[workload][size])
    kind = params["kind"]
    out_dir.mkdir(parents=True, exist_ok=True)
    plan = {"workload": workload, "seed": seed, "size": size, "params": params,
            "instances": [], "oracle_instances": []}
    for i in range(params["batch"]):
        sub = _sub_seed(workload, seed, "main", i)
        if kind == "cover":
            h = gen_random(params["n"], params["k"], params["m"], sub, mode="hyg")
            name, text = f"search{i}.hyg", serialize_hypergraph(h)
        else:
            # The semirandom model: the hypergraphs are drawn once and are the
            # same for every seed; the seed draws the signs. Random hypergraphs
            # made the refute time of one instance vary twice as much as signs
            # alone do, so every seed now asks for comparable work.
            structure = _sub_seed(workload, 0, "hypergraph", i)
            if kind == "refute-even":
                h = gen_random(params["n"], params["k"], params["m"], structure, mode="hyg-multi")
            else:
                h = gen_planted_hypergraph(params["n"], params["m_random"], params["centers"],
                                           params["per_center"], structure)
            name, text = f"inst{i}.xor", serialize_xor(with_random_signs(h, sub))
        _write(out_dir / name, text)
        plan["instances"].append(name)
    for j in range(params.get("oracle_batch", 0)):
        sub = _sub_seed(workload, seed, "oracle", j)
        h = gen_random(params["oracle_n"], params["k"], params["oracle_m"], sub, mode="hyg")
        name = f"oracle{j}.hyg"
        _write(out_dir / name, serialize_hypergraph(h))
        plan["oracle_instances"].append(name)
    (out_dir / "plan.json").write_text(json.dumps(plan, indent=1, sort_keys=True) + "\n")
    return plan

