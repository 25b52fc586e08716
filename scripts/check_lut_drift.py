#!/usr/bin/env python3
"""Exact-match drift gate for the switch-energy LUT artifact.

CI regenerates the full characterization ladder (sfab_characterize with
its defaults) and this script requires every row the regenerated file
contains to match the committed artifact hexfloat-string for
hexfloat-string; CI then compares the two files byte for byte. A reduced
ladder (sfab_characterize --reduced: same generator config, MUX port
counts stopping early) is checked the same way, row by row. The ladder is
deterministic and the artifact stores doubles as C99 hexfloats, so any
difference at all means the gate-level ground truth and the committed
coefficients have drifted apart — which fails the build.

Usage:
    check_lut_drift.py REGENERATED.json [--committed power/luts/switch_luts.json]

Exit status: 0 when every regenerated coefficient matches, 1 otherwise.
"""

import argparse
import json
import sys

SCHEMA = "sfab-switch-lut"
SCHEMA_VERSION = 1
GENERATOR_KEYS = ("cycles", "warmup", "seed", "lanes", "bits_per_port")
TABLE_KEYS = (
    "crosspoint_per_bit_j",
    "banyan2x2_per_bit_j",
    "sorter2x2_per_bit_j",
)


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        artifact = json.load(f)
    if artifact.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: schema is {artifact.get('schema')!r}, "
                         f"expected {SCHEMA!r}")
    if artifact.get("schema_version") != SCHEMA_VERSION:
        raise SystemExit(f"{path}: schema_version is "
                         f"{artifact.get('schema_version')!r}, expected "
                         f"{SCHEMA_VERSION}")
    return artifact


def index_presets(artifact):
    return {p["name"]: p for p in artifact["presets"]}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("regenerated", help="freshly generated artifact")
    parser.add_argument("--committed", default="power/luts/switch_luts.json",
                        help="committed ground-truth artifact")
    args = parser.parse_args()

    fresh = load(args.regenerated)
    committed = load(args.committed)
    failures = []

    # An exact-match gate is only fair when both artifacts measured the
    # same Monte-Carlo sample.
    for key in GENERATOR_KEYS:
        a, b = fresh["generator"].get(key), committed["generator"].get(key)
        if a != b:
            failures.append(f"generator.{key}: regenerated {a!r} != committed {b!r}")

    committed_presets = index_presets(committed)
    for name, preset in index_presets(fresh).items():
        base = committed_presets.get(name)
        if base is None:
            failures.append(f"preset {name!r}: missing from committed artifact")
            continue

        for key in ("energy_scale",) + TABLE_KEYS:
            if preset.get(key) != base.get(key):
                failures.append(f"{name}.{key}: regenerated {preset.get(key)!r} "
                                f"!= committed {base.get(key)!r}")

        # A regenerated MUX ladder is the committed one or, reduced, a
        # prefix of it: every regenerated (inputs, energy) row must appear
        # verbatim.
        base_mux = dict(zip(base.get("mux_inputs", []),
                            base.get("mux_per_bit_j", [])))
        for inputs, energy in zip(preset.get("mux_inputs", []),
                                  preset.get("mux_per_bit_j", [])):
            if inputs not in base_mux:
                failures.append(f"{name}.mux[{inputs}]: size missing from "
                                f"committed artifact")
            elif energy != base_mux[inputs]:
                failures.append(f"{name}.mux[{inputs}]: regenerated {energy!r} "
                                f"!= committed {base_mux[inputs]!r}")
        if not preset.get("mux_inputs"):
            failures.append(f"{name}: regenerated mux ladder is empty")

    if not fresh["presets"]:
        failures.append("regenerated artifact has no presets")

    if failures:
        print(f"LUT drift detected ({len(failures)} mismatches):")
        for failure in failures:
            print(f"  {failure}")
        print("If the change is intentional, regenerate the committed artifact:")
        print("  ./build/sfab_characterize --out power/luts/switch_luts.json")
        return 1

    n_rows = sum(len(p["mux_inputs"]) + sum(len(p[k]) for k in TABLE_KEYS) + 1
                 for p in fresh["presets"])
    print(f"LUT drift check passed: {n_rows} coefficients across "
          f"{len(fresh['presets'])} presets match the committed artifact exactly.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
