"""Pinned sha256 digests of what a run must reproduce byte for byte.

For PIM A–D at scale 0.2 and Cora scaled to 0.1, a serial run must
produce the partition, the manifest's invariant view and the
provenance decision records recorded below. A change that is meant to
be an optimisation or a deletion (a cache, a comparator fast path, a
bookkeeping structure) leaves all three digests alone; a change that moves one
must say why and re-record it with ``python tests/test_byte_identity.py``.
"""

import hashlib
import json
import sys
from dataclasses import replace

import pytest

from repro.core import EngineConfig, Reconciler
from repro.datasets import generate_cora_dataset, generate_pim_dataset
from repro.datasets.cora import CoraConfig
from repro.domains import CoraDomainModel, PimDomainModel
from repro.obs import ProvenanceLog, Telemetry, build_manifest, invariant_view
from repro.similarity import clear_similarity_caches

#: name -> (partition, invariant view, decision records) sha256 digests.
PINNED = {
    "A": (
        "6f2df2885fae63d1fcc145f74b55766b3965d4d86f26e5848fe0c0adda92952a",
        "dca1a4537ce4d55a4897e1f5f5039e831a0918bfbcc62d8324e731f62497d915",
        "a7385bec75c536940c3b813f4b4eee4a48c09cfc4242d33a289b993bb237574c",
    ),
    "B": (
        "d86241b37c577afddb115b9c13acc475e94482161bba2f61ff7ad0b1b0f84d74",
        "aa3abdda403276e1d680fd2a6bfc44e6ddd513981d9a0d76fd7648174602a1a4",
        "1ee576d6cf093e16cc53957f06e1001321fcb7e6955253630f96e29de8c07245",
    ),
    "C": (
        "d31687c1ba25ba0e394c24d7aceaf1e55f8e2fc1591650b7ebfe10e9c4e446de",
        "fd524969a424702ac3ccd6fe02456610437c3aa2e7332e01e66e13598f182b66",
        "786b2129551bacf824d9d2408628b8e4cc05fc6c42f788c1eacb58693b1f63d8",
    ),
    "D": (
        "74aebab292ffc056ecd20a0863959fde8594abbf7eb64539ffe8b0b4e40c0cc2",
        "7a5f5c4b39e40fce89b1aff2f96513f888092bc641789034355c3f5cb7a7b1c7",
        "9988c6a150c52c9b504224f899fb883fc2b2cc347d44402faf0c9ac3c51de20a",
    ),
    "cora": (
        "d83f5e441abd51714f0813db12b3640eaf42902ff3ee8de570c8f65528350e10",
        "076b7a90f02eebf83d2eed5fe0284f3eb687fb9cdc7a3ea6b2596da63866d941",
        "14d5b49d8ceb8e83f74a58fd538a7301115c145c2706ff48a1ce772a2c9c6735",
    ),
}


def _dataset(name):
    if name != "cora":
        return generate_pim_dataset(name, scale=0.2), PimDomainModel
    # Papers, citations, authors and venues scaled together, as in
    # perfbench's cora-batch workload.
    cora = CoraConfig()
    scaled = replace(
        cora,
        n_papers=round(cora.n_papers * 0.1),
        n_citations=round(cora.n_citations * 0.1),
        n_authors=round(cora.n_authors * 0.1),
        n_venues=round(cora.n_venues * 0.1),
    )
    return generate_cora_dataset(scaled), CoraDomainModel


def _sha256(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def digests(name: str) -> tuple[str, str, str]:
    """The three digests of one serial run of dataset *name*."""
    dataset, domain_factory = _dataset(name)
    clear_similarity_caches()
    telemetry = Telemetry(provenance=ProvenanceLog())
    engine = Reconciler(
        dataset.store, domain_factory(), EngineConfig(), observers=[telemetry]
    )
    result = engine.run()
    manifest = build_manifest(dataset=dataset, reconciler=engine, result=result)
    return (
        _sha256(result.partitions),
        _sha256(invariant_view(manifest)),
        _sha256([record.to_dict() for record in telemetry.provenance.records]),
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_run_matches_pinned_digests(name):
    partition, view, decisions = digests(name)
    expected = PINNED[name]
    assert partition == expected[0], "partition moved"
    assert view == expected[1], "manifest invariant view moved"
    assert decisions == expected[2], "provenance decision records moved"


if __name__ == "__main__":
    # Prints the PINNED table of the current tree.
    names = sys.argv[1:] or sorted(PINNED)
    for name in names:
        print(f"    {name!r}: {digests(name)!r},")
