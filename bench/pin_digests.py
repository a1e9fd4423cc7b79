"""Pin the sha256 of every spectrum-scan op's stdout in bench/digests.json.

    python3 bench/pin_digests.py

Runs the op for every catalogue member the workload can draw, checks
each output with the box checks and the sympy oracle (sympy is required
here), and writes the digests only if every output passes.  Rerun it
only when a change is meant to alter the CLI output.
"""

from __future__ import annotations

import json
import sys

from worker import import_qcurv


def main() -> int:
    import_qcurv()
    import check
    import workloads

    if check.sympy is None:
        print("error: pinning needs sympy for the oracle", file=sys.stderr)
        return 2
    members = workloads.spectrum_members()
    digests = {}
    bad = 0
    for fam in sorted(members, key=check.digest_key):
        record = workloads.spectrum_record(fam, workloads.spectrum_op(fam))
        problems = check.check_spectrum(fam, record, {check.digest_key(fam): check.sha256(record["stdout"])})
        if problems:
            bad += 1
            print(f"{fam}: {'; '.join(problems[:3])}", file=sys.stderr)
        digests[check.digest_key(fam)] = check.sha256(record["stdout"])
    if bad:
        print(f"error: {bad} outputs failed their checks; nothing written", file=sys.stderr)
        return 1
    with open(check.DIGESTS, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(digests)} digests in {check.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
