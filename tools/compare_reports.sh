#!/bin/bash
# Compare the reports that two checkouts of relaxbc write for the same inputs.
#
#   tools/compare_reports.sh OLD NEW WORKDIR
#
# OLD and NEW are checkout roots; WORKDIR receives the input files (written
# by OLD's package) and each side's reports.  On six systems (the 2x2
# example, double_characteristic_system(7), the certify systems 1234, 2523
# and 2691, and repeated_speed_system) it runs validate, gkc, reduce reusing
# gkc.json and reduce sampling afresh, at --resolution 8 and 12, then both
# convergence studies of the CI.  Every command runs with RELAXBC_LOG=debug:
# the debug lines of the frequency splits go to samples.txt without their
# logger names: "gkc", the GKC grid, and "gkc eta = inf, ukc", the one M1
# split on the (Re xi, Im xi, omega) grid with its two targets, or
# "gkc eta = inf" alone where the reduced condition's algebra fails
# (directions, skipped and sign-split rows, each target's minimum).  Trees
# that split M1 once per target log "gkc eta = inf" and "ukc" lines
# instead.  The other debug lines, some of which carry wall times, are
# dropped.  Every report, the console
# output, the sample lines and the exit codes must be byte-identical, apart
# from provenance.source in the JSON reports.  Exits 1, naming what
# differs, otherwise.
set -u
old=$(cd "$1" && pwd) && new=$(cd "$2" && pwd) || exit 2
mkdir -p "$3/inputs" && work=$(cd "$3" && pwd) || exit 2
in=$work/inputs

PYTHONPATH=$old/src python3 - "$in" <<'PY' || exit 2
import dataclasses, json, sys
import numpy as np
from relaxbc import fixtures
from relaxbc.model import system_to_dict

def certify(seed):
    return fixtures.random_admissible_bundle(np.random.default_rng(seed), d=3, require_n0=1).sys

systems = {
    "example": fixtures.example_system(),
    "double": fixtures.double_characteristic_system(7),
    **{f"d3_{seed}": certify(seed) for seed in (1234, 2523, 2691)},
    "repeated": fixtures.repeated_speed_system(),
}
for name, system in systems.items():
    with open(f"{sys.argv[1]}/{name}.json", "w") as fh:
        json.dump(system_to_dict(dataclasses.replace(system, labels=system.labels or ())), fh)
for name, boundary, u0 in (
    ("scenario", [{"kind": "sin"}, {"kind": "cos"}],
     {"kind": "gauss_ramp", "amplitude": 0.3333333, "width": 0.5}),
    ("bump", [{"kind": "sin"}], {"kind": "bump", "amplitude": 0.5, "center": 0.6, "width": 0.05}),
):
    doc = {"boundary": boundary, "u0": [u0], "T": 0.5, "x_max": 2.0,
           "epsilons": [1e-2, 3e-3, 1e-3, 3e-4]}
    if name == "scenario":
        doc["grid"] = {"dx_max": 5e-4}
    with open(f"{sys.argv[1]}/{name}.json", "w") as fh:
        json.dump(doc, fh)
PY

reports() {  # reports TREE OUT
    local out=$2
    rm -rf "$out" && mkdir -p "$out"
    run() {
        RELAXBC_LOG=debug PYTHONPATH=$1/src python3 -m relaxbc.cli "${@:2}" > "$out/log.tmp" 2>&1
        echo "$? ${*:2}" | sed "s#$out##g; s#$in/##g" | tee -a "$out/samples.txt" >> "$out/exit_codes.txt"
        grep -v '^DEBUG:' "$out/log.tmp" | sed "s#$out#OUT#g" >> "$out/console.txt"
        sed -nE 's/^DEBUG:relaxbc\.[a-z]+:((gkc|gkc eta = inf|gkc eta = inf, ukc|ukc): )/\1/p' "$out/log.tmp" >> "$out/samples.txt"
        rm "$out/log.tmp"
    }
    for s in example double d3_1234 d3_2523 d3_2691 repeated; do
        for res in 8 12; do
            run "$1" validate "$in/$s.json" --out "$out/$s-$res"
            run "$1" gkc "$in/$s.json" --out "$out/$s-$res" --resolution $res
            run "$1" reduce "$in/$s.json" --out "$out/$s-$res" --resolution $res
            run "$1" reduce "$in/$s.json" --out "$out/$s-$res-fresh" --resolution $res
        done
    done
    run "$1" converge "$in/example.json" --scenario "$in/scenario.json" --out "$out/converge-2x2"
    run "$1" converge "$in/double.json" --scenario "$in/bump.json" --out "$out/converge-3x3"
}
reports "$old" "$work/old"
reports "$new" "$work/new"

status=0
for f in $(cd "$work/old" && find . -type f | sort); do
    if [[ $f == *.json ]]; then
        diff -q <(grep -v '"source"' "$work/old/$f") <(grep -v '"source"' "$work/new/$f") > /dev/null
    else
        cmp -s "$work/old/$f" "$work/new/$f"
    fi || { echo "differs: $f"; status=1; }
done
[ "$(cd "$work/old" && find . -type f | wc -l)" = "$(cd "$work/new" && find . -type f | wc -l)" ] \
    || { echo "the two sides wrote different file counts"; status=1; }
echo "$(cd "$work/old" && find . -type f | wc -l) files compared"
exit $status
