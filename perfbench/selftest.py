"""Self-test of the benchmark's tracer: one traced round of each workload.

    python3 perfbench/selftest.py

Checks that every span predicted heavy on a workload fires there, that
spans predicted absent record zero calls, that functions imported by name
are wrapped at every binding and restored afterwards, and that self times
add up to the root spans.  Exits 1 if any check fails.
"""

from __future__ import annotations

import random
import sys

import run
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

HEAVY = {
    "sweep2d": ["model.h", "linalg.eigh", "berry.occupied_frame", "gauge.smooth2d",
                "z2.sewing_field", "z2.kane_mele_nu", "z2.wannier", "z2.boundary",
                "linalg.pfaffian", "berry.curvature", "spectral.edge_parity",
                "spectral.ribbon_csv", "model.ribbon_eval", "numpy.eigh", "cli.run",
                "cli.to_json"],
    "bulk3d": ["model.h", "model.check_trs", "linalg.eigh", "berry.occupied_frame",
               "gauge.smooth3d", "gauge.transport", "windex.unitary_field",
               "windex.winding3d", "z2.strong_weak", "numpy.eigh"],
    "ncpair": ["nctorus.pairing_3d", "nctorus.pairing_1d", "nctorus.toeplitz_index"],
}
_SPECTRAL = ["spectral.edge_parity", "spectral.ribbon_csv", "model.ribbon_eval"]
_NCTORUS = ["nctorus.pairing_1d", "nctorus.pairing_3d", "nctorus.toeplitz_index"]
ABSENT = {
    "sweep2d": _NCTORUS + ["gauge.smooth3d", "z2.strong_weak", "windex.winding3d",
                           "windex.unitary_field"],
    "bulk3d": _SPECTRAL + _NCTORUS + ["z2.wannier", "z2.boundary", "berry.curvature"],
    "ncpair": [name for name in LAYERS if name.split(".")[0] in
               ("model", "linalg", "berry", "gauge", "windex", "z2", "spectral", "numpy")],
}
# Names bound by import in other modules: (module, attribute, defining module).
BY_NAME = [("topoindex.z2", "occupied_frame", "topoindex.berry"),
           ("topoindex.z2", "pfaffian", "topoindex.linalg"),
           ("topoindex.z2", "smooth_frames_2d", "topoindex._gauge"),
           ("topoindex.berry", "smooth_frames_2d", "topoindex._gauge"),
           ("topoindex.berry", "eigh", "topoindex.linalg"),
           ("topoindex.cli", "check_trs", "topoindex.model")]


def check_bindings() -> list[str]:
    errors = []
    tracer = Tracer()
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in BY_NAME}
    tracer.install()
    try:
        for module, attr, home in BY_NAME:
            bound = getattr(sys.modules[module], attr)
            if bound is originals[(module, attr)] or bound is not getattr(sys.modules[home], attr):
                errors.append(f"{module}.{attr} is not wrapped like {home}.{attr}")
    finally:
        tracer.uninstall()
    for (module, attr), fn in originals.items():
        if getattr(sys.modules[module], attr) is not fn:
            errors.append(f"{module}.{attr} was not restored")
    return errors


def check_workload(cli, name: str) -> list[str]:
    workload = WORKLOADS[name]
    tracer, plain, observed, _, _ = run.trace_rounds(cli, workload, random.Random(1), 0.0)
    stats = tracer.stats
    errors = [f"{name}: {f}" for d in (plain, observed) for f in d.failures]
    errors += [f"{name}: {layer} never fired" for layer in HEAVY[name] if not stats[layer].calls]
    errors += [f"{name}: {layer} fired {stats[layer].calls} times"
               for layer in ABSENT[name] if stats[layer].calls]
    roots = stats["cli.run"].total_s + stats["cli.to_json"].total_s
    selfs = sum(st.self_s for st in stats.values())
    if abs(selfs - roots) > 1e-6 * max(1.0, roots):
        errors.append(f"{name}: self times sum to {selfs:.6f} s, root spans to {roots:.6f} s")
    return errors


def main() -> int:
    cli = run.import_cli()
    errors = check_bindings()
    for name in WORKLOADS:
        found = check_workload(cli, name)
        print(f"{'FAIL' if found else 'PASS'} {name}")
        errors += found
    for error in errors:
        print("  " + error)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
