"""Record golden.json: the SHA-256 of every operation's output at the
default seed.

    python3 perfbench/record_golden.py

Run it only on a commit whose outputs are known good.  Outputs are meant
to stay bit-identical, so a later change that alters a digest is a
regression unless it says why the new bytes are right.
"""

import json
import sys

import worker
import workloads


def main() -> int:
    worker.import_primechain()
    golden = {}
    for name in workloads.WORKLOADS:
        golden[name] = {}
        for op in workloads.build(name, workloads.DEFAULT_SEED):
            rec = worker.run_op(op, None, workloads.DEFAULT_SEED)
            if rec["status"] == "failed":
                print(f"{name}/{op.name}: {rec['detail']}", file=sys.stderr)
                return 1
            if rec["digest"] is not None:
                golden[name][op.name] = rec["digest"]
            print(f"{name}/{op.name}: {rec['status']} {rec['wall_s']:.2f}s", file=sys.stderr)
    worker.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
