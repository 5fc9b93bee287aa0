"""Regenerate ``reference.json``, the digests every perfbench run checks.

    PYTHONPATH=src python3 perfbench/make_reference.py

Records a sha256 of (cycles, full flat stats) for every point any seed
can draw — the regen-small plan, every replay-large stratum and the
serve-zipf pool — and of each regen-small report.  Every digest is
computed twice, once on the engines ``TraceDrivenCpu.run`` picks and
once with the fast engines pinned off (``kernels.kernel_disabled()``,
the packed interpreter), and the script refuses to write a table the
two disagree on.  Run it only when the simulated results are meant to
change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import worker  # noqa: E402


def digests():
    from repro.experiments.runner import (
        RUNCACHE_DIRNAME,
        ExperimentRunner,
        simulate_run_key,
    )
    from repro.experiments.supervisor import Supervisor

    points = {common.label(worker.key_spec(key)): key
              for key in worker.regen_plan(0)}
    points.update((common.label(point), worker.build_key(point))
                  for point in common.all_points())
    table = {}
    for name, key in sorted(points.items()):
        result = simulate_run_key(key)
        table[name] = common.digest(result.cycles, result.stats.flat())
    with tempfile.TemporaryDirectory() as outdir:
        runner = ExperimentRunner(
            cache_dir=os.path.join(outdir, RUNCACHE_DIRNAME))
        Supervisor(runner, handle_signals=False).supervise(
            worker.regen_plan(0))
        reports = {name: common.text_digest(thunk()) for name, thunk
                   in worker.regen_reports(runner).items()}
    return {"points": table, "reports": reports}


def main() -> int:
    from repro.core import kernels
    fast = digests()
    with kernels.kernel_disabled():
        packed = digests()
    if fast != packed:
        bad = [name for name in fast["points"]
               if fast["points"][name] != packed["points"][name]]
        bad += [name for name in fast["reports"]
                if fast["reports"][name] != packed["reports"][name]]
        print(f"engines disagree on: {bad}", file=sys.stderr)
        return 1
    with open(common.REFERENCE_PATH, "w") as handle:
        json.dump(fast, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(fast['points'])} point and "
          f"{len(fast['reports'])} report digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
