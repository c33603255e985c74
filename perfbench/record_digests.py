"""Record the reference sha256 of every CSV/JSON output of the workloads.

The reproducibility contract makes each command-line output a pure
function of its arguments and seed, so a run of the benchmark compares
its bytes with these digests, for the seeds recorded here; other seeds
fall back to checking that every pass repeats the first.

Usage, from the root of the repository, on code whose outputs are known
to be right:

    python3 perfbench/record_digests.py --seeds 0-99
    python3 perfbench/record_digests.py --seeds 0-99 --smoke
"""

import argparse
import json
import sys

import run


def _seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seed_range, required=True, help="e.g. 0-99")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    run._cap_threads()
    workloads = run._import_workloads()
    path = run.HERE / "reference_digests.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    mode = table.setdefault("smoke" if args.smoke else "full", {})
    for name, workload in workloads.WORKLOADS.items():
        for seed in args.seeds:
            inputs = workload.build(seed, args.smoke)
            if "cli" not in inputs:  # no command-line output to digest
                break
            rec = workloads.Recorder({})
            workload.run_pass(inputs, rec)
            if rec.failed:
                print(f"{name} seed {seed}: {rec.problems}", file=sys.stderr)
                return 1
            mode.setdefault(name, {})[str(seed)] = rec.seen
            print(f"{name} seed {seed}: {len(rec.seen)} digests", file=sys.stderr)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
