"""E6 — Theorem 6.1: static-permission shared memory cannot 2-decide.

Runs the proof's construction as code: the strawman 2-deciding algorithm is
driven into an agreement violation by delaying its writes past a second
proposer's solo run; the same adversary cannot break Disk Paxos (which pays
the confirming read, hence >= 4 delays) nor Protected Memory Paxos (whose
dynamic permissions turn the delayed write into a nak).
"""

import pytest

from repro.lowerbound import (
    attack_disk_paxos,
    attack_naive_fast,
    attack_protected_memory_paxos,
    solo_fast_delay,
)

from benchmarks._common import emit, table


def _measure():
    solo = solo_fast_delay()
    naive = attack_naive_fast()
    pmp = attack_protected_memory_paxos()
    disk = attack_disk_paxos()
    return solo, naive, pmp, disk


def test_lower_bound_construction():
    solo, naive, pmp, disk = _measure()
    rows = [
        [
            "strawman (2-deciding, static perms)",
            f"{solo:g}",
            "VIOLATED" if naive.agreement_violated else "held",
            str(naive.decisions),
        ],
        [
            "Disk Paxos (static perms, 4 delays)",
            "4",
            "VIOLATED" if disk.agreement_violated else "held",
            str(disk.decisions),
        ],
        [
            "Protected Memory Paxos (dynamic perms)",
            "2",
            "VIOLATED" if pmp.agreement_violated else "held",
            str(pmp.decisions),
        ],
    ]
    emit(
        "E6",
        "Theorem 6.1 adversary: delay the fast decider's writes",
        table(["algorithm", "solo delays", "agreement", "decisions"], rows),
        notes=(
            "Shape: 2 delays + static permissions is impossible — the\n"
            "strawman splits; Disk Paxos survives by paying 2 extra delays;\n"
            f"PMP survives at 2 delays because the delayed write naks\n"
            f"(observed: {pmp.fast_path_write_naked})."
        ),
    )
    assert solo == 2.0
    assert naive.agreement_violated
    assert not pmp.agreement_violated and pmp.fast_path_write_naked
    assert not disk.agreement_violated
