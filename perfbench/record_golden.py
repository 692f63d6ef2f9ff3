"""Record ``golden.json``: the outputs of each workload's fixed small case.

Run once, from the root of the checkout whose outputs become the reference:

    python3 perfbench/record_golden.py
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402


def main():
    tg = wl.import_tailgraph(os.path.join(os.getcwd(), "src"))
    golden = {}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as workdir:
        for name in wl.WORKLOADS:
            tally = wl.Tally()
            golden[name] = wl.golden_outputs(tg, name, workdir, tally)
            if tally.failed:
                raise SystemExit(f"{name}: {tally.failed} failed operations; not recorded")
    with open(wl.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
