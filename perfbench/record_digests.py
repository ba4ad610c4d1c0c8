"""Record the output digests that gate.py compares against.

    python3 perfbench/record_digests.py

Runs every item of every workload (in-process ones with the coverage tail)
once for the default and the held-out seed, checks it with the oracles,
and writes {workload: {item key: [exit code, stdout sha256 prefix]}} to
digests.json.
Re-record only when a change to multiseg's output is intended.
"""

import json
import sys
import tempfile
from pathlib import Path

import corpus
import gate
import run


def main() -> int:
    cli = run.load_cli()
    if cli is None:
        print(f"error: no multiseg sources under {run.SRC}", file=sys.stderr)
        return 2
    spawner = run.Spawner()
    table, failures = {}, []
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for workload in corpus.WORKLOADS:
            check = gate.Gate(workload, recorded={})
            recorded = table.setdefault(workload, {})
            for seed in (corpus.DEFAULT_SEED, corpus.HELD_OUT_SEED):
                items = corpus.generate(workload, seed)
                if workload != "cli_session":
                    items += corpus.coverage_tail()
                for item, argv in zip(items, run.materialize(items, Path(tmp))):
                    if workload == "cli_session":
                        out = spawner.run(["-m", "multiseg.cli", *argv])
                    else:
                        out = run.call_inproc(cli, argv)
                    if check.check(item, out.rc, out.stdout, out.stderr, out.error):
                        recorded[item.key()] = gate.digest(out.rc, out.stdout)
            failures += check.failures
    spawner.close()
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    gate.DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"{sum(map(len, table.values()))} digests written to {gate.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
