"""Regenerate ``reference.json``, the stored values the output checks compare to.

    python3 perfbench/make_reference.py

Stores eta of the full-size ``assembly_2d`` system and ``w`` of the
full-size ``transport_1d`` problem; both are the same for every seed.  Run it only on a commit
whose numbers are trusted: a later run is checked against these values.
"""

from __future__ import annotations

import json
import os
import shutil

import child
import workloads


def main() -> None:
    nlw, _ = child.import_nlw()
    out = os.path.join(child.WORK, "reference")
    assembly = nlw.validate_config(workloads.assembly_2d(0, out))
    system = nlw.experiments.build_system_from_config(assembly)
    transport = nlw.validate_config(workloads.transport_1d(0, out))
    w = nlw.run_config(transport, stages=("build", "metric")).metric.w
    shutil.rmtree(out, ignore_errors=True)
    doc = {
        "assembly_2d": {"level": assembly.system.level, "eta": system.eta.tolist()},
        "transport_1d": {
            "level": transport.system.level,
            "w": w,
        },
    }
    with open(child.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
