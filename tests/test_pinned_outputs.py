"""Pinned outputs of the benchmark's cells: a change that claims to be
bit-identical must leave every hash here as it is, and a change that alters
output on purpose regenerates them and says why in CHANGES.md.

The CSV hashes cover every cell of ``perfbench/workloads.py`` (all five
protocols) at trials=2 and config seeds 1 and 7, including cells no golden
file pins: IT2p at n=100, closeness at n=500 and hardgen.  The secure
reference's and two-way IT2p's CSV rows hold only verdicts, modeled bits and
lambda, and at these cells most of them come out the same at both seeds, so
their per-vote internals (delta1, delta2, tau, headroom; the pool, live
letters, subsets, chi, delta and tau) are pinned too.
"""

import hashlib
import pathlib
import struct
import sys
from dataclasses import replace

import numpy as np
import pytest

from disttest2p import dist
from disttest2p.cli import rows_to_csv, run_experiment
from disttest2p.closeness import SecureCTParams, far_instance, secure_reference_votes
from disttest2p.harness import SharedRandomness
from disttest2p.independence import (
    ITParams,
    diagonal_joint,
    product_joint,
)
from laws import it2p_votes

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "perfbench"))
import workloads  # noqa: E402

# (workload, protocol, n, config seed): sha256 of rows_to_csv at trials=2
CSV_SHA256 = {
    ("closeness-sweep", "closeness", 200, 1):
        "82036958ca32dc0be11b8be053d478a728804c64b62ad1b054ad1f608b71c3da",
    ("closeness-sweep", "closeness", 500, 1):
        "6fcf25592b0e4d37ff5a49d5e16592e5081179364a3fff967d91ca23f6940e5a",
    ("closeness-sweep", "closeness", 200, 7):
        "44e2e86e5a2daf6f9fe8355facaf99d4a84ab0140e661afcf7b48e901a158f5f",
    ("closeness-sweep", "closeness", 500, 7):
        "644cb3fb6830bd3f49bdf06d77b945c6ce2bbb8e0bee957a64d0c861119a0a80",
    ("secure-closeness", "closeness-secure", 200, 1):
        "2bb556e85d764c78341a35283f8f76129dbbe814a0043c02c11895c39812ff07",
    ("secure-closeness", "closeness-secure", 200, 7):
        "161451bb020b0feb90e62a0049a48892df74553e59fb72f72591a65f6b2f5c21",
    ("independence", "independence", 20, 1):
        "6773ce495dc4431d2e31afa6afd70f4a4afb9b875f8ae37389d8dd6baa14f002",
    ("independence", "independence", 100, 1):
        "84c90c8b0768fa1a7b1f430283ca4e5c0db56beaa167612e5d068f1d6747deb5",
    ("independence", "independence-oneway", 20, 1):
        "37476bbfc8d3054c4ee0bca1a17a5621538b5acbdfab6c13111ac76fd07ae91c",
    ("independence", "independence-oneway", 100, 1):
        "fe9a58d8d61fa799634a6c47e128141fffe5bc7605c45261ab7653326a5dae84",
    ("independence", "independence", 20, 7):
        "b086d9dcbbfa0a49af1738191372c901a73a222ffcb6513f6ed6a82ec99c7754",
    ("independence", "independence", 100, 7):
        "84c90c8b0768fa1a7b1f430283ca4e5c0db56beaa167612e5d068f1d6747deb5",
    ("independence", "independence-oneway", 20, 7):
        "0a9de4f9c5bd6b8b6f84d1b19a5d113018878e57e80626eba36d7a3e5ddf189b",
    ("independence", "independence-oneway", 100, 7):
        "dff59616428b0d9c3f39c51e717a15e4bd4e155b96a3799d253352b16821b9b7",
    ("hardgen", "hardgen", 2000, 1):
        "725e1e94fca5543c5af781eee105743ad816890d52cdfdcb7c46a7bb4bf6425a",
    ("hardgen", "hardgen", 2000, 7):
        "ae9c6d631d850dcc24a1e48e7931f91afd8f69db29bacf694b02c3be06db630d",
}

# (protocol, n, seed): sha256 of the votes at the benchmark's cell, one
# instance per family, the instances and shared randomness seeded by seed
VOTE_SHA256 = {
    ("closeness-secure", 200, 1):
        "1bb80a6fd5f6e1f15af18e83b16be1d6dd89835cf6f3f7fec51b0f5cb17d9ffa",
    ("closeness-secure", 200, 7):
        "3e41730a2749d91c4df4b2963eafa8ed003cc0d67de36c702274fc558b36358d",
    ("independence", 20, 1):
        "bea830bf15226ba4a4c01c96e7f751ff7e5a0efccc2af7eb3a1c076f3aed0e40",
    ("independence", 20, 7):
        "7768afd32b61d2a3cb2db4e12d61bd772c31a7925aeb302cee23ac66849edaa6",
    ("independence", 100, 1):
        "4cc34cfa830a0b91382b65d69b88229fe6fae866c33772239dddd0529d3a18af",
    ("independence", 100, 7):
        "7530ee9f63cfe4869e833fae7942029f2b54b419b63092f27d2fa97b12f69e1b",
}


def benchmark_cells():
    """Every config of the four workloads, at config seeds 1 and 7."""
    for workload in ("closeness-sweep", "secure-closeness", "independence",
                     "hardgen"):
        for seed in (1, 7):
            # batch b of a run seeded 0 has config seed b
            for cfg in workloads.batch_configs(workload, 0, seed):
                yield (workload, cfg.protocol, cfg.ns[0], seed), cfg


CELLS = dict(benchmark_cells())


def test_every_benchmark_cell_is_pinned():
    assert len(CELLS) == len(list(benchmark_cells()))  # keys are unique
    assert sorted(CELLS) == sorted(CSV_SHA256)
    assert {key[1] for key in CELLS} == {
        "closeness", "closeness-secure", "independence",
        "independence-oneway", "hardgen"}


@pytest.mark.parametrize("key", list(CELLS),
                         ids=lambda key: "-".join(map(str, key)))
def test_benchmark_cell_csv_is_pinned(key):
    csv = rows_to_csv(run_experiment(replace(CELLS[key], trials=2)))
    assert ",ok," in csv and ",skipped," not in csv
    assert hashlib.sha256(csv.encode()).hexdigest() == CSV_SHA256[key]


def vote_digest(protocol: str, n: int, seed: int) -> str:
    digest = hashlib.sha256()
    rng = np.random.default_rng(seed)
    uniform = dist.uniform_distribution(n)
    if protocol == "closeness-secure":
        params = SecureCTParams(n=n, t=1095, eps=1.0, k=4)
        for other in (uniform, far_instance(n, 1.0)):
            a, b = (dist.sample(p, params.t, rng) for p in (uniform, other))
            for v in secure_reference_votes(a.letters, b.letters, params,
                                            SharedRandomness(seed)):
                digest.update(struct.pack("<4d?", v.delta1, v.delta2, v.tau,
                                          v.headroom, v.clamped))
                digest.update(v.vote.value.encode())
        return digest.hexdigest()
    params = ITParams(n=n, m=n, t=400 * n, eps=1.0, k=2)
    for joint in (product_joint(uniform, uniform), diagonal_joint(n, n)):
        a, b = joint.sample_joint(params.t, rng)
        for rep in it2p_votes(a, b, params, SharedRandomness(seed)):
            for array in (rep.sm_a.bucket_counts, rep.live, rep.pool,
                          rep.a_letters, *rep.subsets):
                digest.update(np.asarray(array, dtype=np.int64).tobytes())
            digest.update(struct.pack("<?2d", rep.chi, rep.delta, rep.tau))
            digest.update(rep.vote.value.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("key", list(VOTE_SHA256),
                         ids=lambda key: "-".join(map(str, key)))
def test_vote_internals_are_pinned(key):
    assert vote_digest(*key) == VOTE_SHA256[key]
