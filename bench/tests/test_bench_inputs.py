"""The spectrum-scan op set is fixed in size and pinned, whatever the seed.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import check
import workloads


def test_spectrum_inputs_take_one_member_of_every_block() -> None:
    members = set(workloads.spectrum_members())
    for seed in range(20):
        drawn = workloads.make_inputs("spectrum-scan", seed, 0)
        assert len(drawn) == 31 == len(set(drawn))
        assert set(drawn) <= members
        blocks = {
            (fam.family, (fam.q - (2 if fam.family == "i" else 1)) // 3)
            for fam in drawn
            if fam.family != "iv"
        }
        assert len(blocks) == 30


def test_every_spectrum_member_has_a_pinned_digest() -> None:
    digests = check.load_digests()
    assert {check.digest_key(fam) for fam in workloads.spectrum_members()} <= set(digests)
