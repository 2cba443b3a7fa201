"""Write perfbench/pins.json: the digest of the stdout of the first
``pinned_ops`` ops of every workload, for every seed in ``pinned_seeds``.

    python3 perfbench/pin.py

The benchmark marks a run incorrect when a pinned output changes, so run
this only for a change whose output is meant to change, and say why.
"""

import json
import sys

import ops
import run


def main():
    spec = json.loads((run.HERE / "workloads.json").read_text())
    pins = {}
    for name in run.WORKLOADS:
        workload = spec["workloads"][name]
        pins[name] = {}
        for seed in spec["pinned_seeds"]:
            cli, op_list, _ = run.load_loopalg(workload, seed, spec)
            digests, failed = [], 0
            for op in op_list[: spec["pinned_ops"]]:
                outcome = run.run_op(cli, op, spec["op_budget_s"])
                digests.append(run.digest(outcome.stdout))
                failed += (outcome.error or ops.check(
                    op, outcome.rc, outcome.stdout, outcome.stderr)) is not None
            pins[name][str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} ops pinned, {failed} failed", flush=True)
    path = run.HERE / "pins.json"
    path.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
