"""Record the golden corpus: stdout bytes and exit codes at the default seed.

    python3 perfbench/record_golden.py

Run from the root of a checkout.  The benchmark compares every request at
the default seed against these files, so record them only at a commit
whose outputs are known to be right, and never to make a failing run pass.
"""

from __future__ import annotations

import json

import run
import workloads


def main() -> None:
    run.single_thread_env()
    cli = run.import_cli()
    run.GOLDEN.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        records = []
        for request in workloads.requests(workload, run.DEFAULT_SEED):
            stdout, code, _ = run.run_request(cli, request)
            records.append({"label": request["label"], "argv": request["argv"],
                            "exit": code, "stdout": stdout.decode()})
        with open(run.GOLDEN / f"{workload}.json", "w") as fh:
            json.dump({"seed": run.DEFAULT_SEED, "requests": records}, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
