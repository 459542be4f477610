#!/usr/bin/env python3
"""Time the heavy counting set, ``REPEATS`` fresh processes per case.

    python3 tools/heavyset.py [CASE ...]

Run from the root of a source checkout; ``sftent`` is imported from
``src/``.  Each run of a case has its own interpreter, so its time and its
maximum resident memory are its own.  A case runs ``REPEATS`` times in a
row, and one JSON line per case goes to stdout: the case, the median and
the min-max range of its wall seconds (import excluded), the largest max
RSS of its runs in MB and the result (an exact count, a log count or a
per-cell ratio).  The times are reported, not checked: the exit code is 1
only when a run fails or a case's result differs between its runs.

Cases: hard squares exact on 16x16 and 20x20, the hard-square rectangle
table up to 12x12 (``rect_entropy_table``: 144 small sweeps, whose fixed
set-up per sweep shows; its h_r estimate is the result), hard-square
``log_count`` on 20x400, on the mirrored wedge ``omega_q(2, 11)`` (as log
count per cell) and on the n = 24 member of ``stick_system((0, 1), 0.5)``,
the 3-symbol ``r3`` spec exact on 10x10, exact on 10x10 the 2-symbol spec
forbidding all 1s on each of the 97 four-cell shapes of the 3x3 box, and
three extendable counts without a safe symbol, each core pattern an
extension question of the dilation: with margin 1 on 5x3 of the 3-symbol
spec forbidding equal horizontal neighbours (110,592 core patterns, one
sweep), and two whose rings have too many frontier states for a sweep to
beat the searches: with margin 3 on one cell of a 3-symbol spec of four
3-cell patterns, and with margin 2 on six spread cells of the 3-symbol spec
forbidding one 3-cell pattern (729 core patterns).  One case verifies
vertical block gluing (gap 1, window 1, extent 2) of a 3-symbol spec of
three patterns without a safe symbol: its router leaves the pairs to
searches that backtrack for seconds, where one sweep per offset settles them
in milliseconds.  One case counts nothing: it builds ``lshape(1000)`` and
``staircase(1000)`` (about 2·10^9 cells and 10^6 rows each) and reads their
boundary size, 2x2 block residue and the run census of both axes; another
runs ``condition_report`` on the ``n^2 x n`` family for every n from 1 to
200 with 2x2, 3x3 and 5x5 blocks, and gives its verdicts as the result.
Two cases run the block search, each at a budget of every assignment: on
4x6, the 3-symbol spec that bans symbol 2 alone and in both dominoes (2**24
patterns, every cell but the last read, so built), and the multiplicative
brute force at n = 40, q = 2 (its unread cells counted, not built).  One
case asks a single extension question: does the 100x100 3-colouring (the
3-symbol spec forbidding equal neighbours along both axes) extend symbol 0
at the origin?  The search never backtracks, so its time is almost all the
set-up of its constraint table.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# fresh-process runs per case: one run cannot tell a few percent from the
# host's noise on the millisecond cases
REPEATS = 3

HARD_SQUARE = [[((0, 0), 1), ((1, 0), 1)], [((0, 0), 1), ((0, 1), 1)]]
R3 = [[((0, 0), 1), ((1, 1), 2)], [((1, 0), 0), ((0, 1), 0)],
      [((0, 0), 2), ((0, 1), 2), ((1, 0), 1)], [((0, 0), 0), ((1, 0), 1)]]
# four 1s on four cells of the 3x3 box: 126 patterns, 97 up to translation
BOX3 = [(x, y) for x in range(3) for y in range(3)]
QUADS = [[(c, 1) for c in cells] for cells in combinations(BOX3, 4)]
NO_EQUAL_H = [[((0, 0), a), ((1, 0), a)] for a in range(3)]
NO_EQUAL = NO_EQUAL_H + [[((0, 0), a), ((0, 1), a)] for a in range(3)]
LOOSE = [[((0, 0), 0), ((2, 0), 0), ((1, 1), 0)], [((0, 0), 0), ((2, 0), 0), ((2, 1), 2)],
         [((0, 0), 1), ((0, 1), 0), ((0, 2), 1)], [((1, 0), 1), ((0, 1), 1), ((2, 1), 1)]]
SPREAD = [(0, 0), (1, 0), (6, 0), (7, 0), (8, 0), (5, 1)]
GLUING3 = [[((0, 0), 1), ((0, 1), 0)], [((2, 0), 1), ((0, 1), 0), ((0, 2), 0)],
           [((2, 0), 1), ((1, 1), 2), ((0, 2), 0)]]
N2XN = '{"system": "rect", "w": "n^2", "h": "n"}'
# symbol 2 banned alone, so its dominoes never bite, yet every cell is read
ALL_READ = [[((0, 0), 2)], [((0, 0), 2), ((1, 0), 2)], [((0, 0), 2), ((0, 1), 2)]]

# name -> (alphabet size, forbidden patterns, lattice, route); the route
# "extendable:M" is the extendable count with margin M, "table" the h_r
# estimate of the rectangle table up to the sides given, "geometry" reads
# the statistics of each builtin family the lattice names, and "report" the
# condition report of the family the "system" names; the last two ignore the
# spec.  "gluing" verifies block gluing at the (gap, window, extent, variant) given,
# and "bruteforce" runs the block search at a budget of N ** cells (for the
# "multiplicative" family, at (n, q), 2 ** n); "exists" asks whether the
# lattice has an admissible pattern with symbol 0 at the origin
CASES = {
    "lshape-staircase-1000-geometry": (2, [], ("lshape+staircase", 1000), "geometry"),
    "report-n2xn-200-geometry": (2, [], ("system", N2XN, range(1, 201)), "report"),
    "hard-square-16x16-exact": (2, HARD_SQUARE, ("rectangle", 16, 16), "count"),
    "hard-square-20x20-exact": (2, HARD_SQUARE, ("rectangle", 20, 20), "count"),
    "hard-square-table-12x12": (2, HARD_SQUARE, ("table", 12, 12), "table"),
    "hard-square-20x400-log": (2, HARD_SQUARE, ("rectangle", 20, 400), "log"),
    "hard-square-omega_q:2,11-ratio": (2, HARD_SQUARE, ("omega_q", 2, 11), "ratio"),
    "hard-square-stick:0,1,0.5@24-log": (2, HARD_SQUARE, ("stick", (0, 1), 0.5, 24), "log"),
    "r3-10x10-exact": (3, R3, ("rectangle", 10, 10), "count"),
    "quads-10x10-exact": (2, QUADS, ("rectangle", 10, 10), "count"),
    "no-equal-h-5x3-ext:1": (3, NO_EQUAL_H, ("rectangle", 5, 3), "extendable:1"),
    "loose-cell-ext:3": (3, LOOSE, ("cells", [(0, 0)]), "extendable:3"),
    "spread-cells-ext:2": (3, [[((2, 0), 0), ((0, 1), 2), ((2, 1), 1)]], ("cells", SPREAD),
                           "extendable:2"),
    "gluing3-vertical-gap1": (3, GLUING3, ("gluing", 1, 1, 2, "vertical"), "gluing"),
    "allread-4x6-bruteforce": (3, ALL_READ, ("rectangle", 4, 6), "bruteforce"),
    "multiplicative-n40-q2-bruteforce": (2, [], ("multiplicative", 40, 2), "bruteforce"),
    "extension-3col-100x100-exists": (3, NO_EQUAL, ("rectangle", 100, 100), "exists"),
}


def run_case(name: str) -> dict:
    """Run one case in this process and describe it."""
    sys.path.insert(0, str(SRC))
    import sftent
    import sftent.formats

    n, forbidden, (family, *args), route = CASES[name]
    spec = sftent.SftSpec.make(n, forbidden)
    t0 = time.perf_counter()
    if family == "rectangle":
        lat = sftent.rectangle((0, 0), *args)
    elif family == "cells":
        lat = sftent.FiniteLattice(*args)
    elif family == "omega_q":
        lat = sftent.omega_q(*args)
    elif family == "stick":
        v, a, size = args
        lat = sftent.stick_system(v, a).lattice(size)
    elif family == "system":
        system, n_range = sftent.formats.resolve_system(args[0]), args[1]
    elif family in ("gluing", "table", "multiplicative"):
        pass        # no lattice: the verifier, the table or the fibers build their own
    else:
        lats = [getattr(sftent, part)(*args) for part in family.split("+")]
    route, _, margin = route.partition(":")
    if route == "report":
        report = sftent.condition_report(system, n_range, block_sizes=[(2, 2), (3, 3), (5, 5)])
        result = repr(report.verdicts)
    elif route == "geometry":
        result = repr([(sftent.boundary_size(lat), sftent.block_residue_size(lat, 2, 2),
                        sftent.run_census(lat, "horizontal"), sftent.run_census(lat, "vertical"))
                       for lat in lats])
    elif route == "gluing":
        result = repr(sftent.verify_block_gluing(spec, *args))
    elif route == "table":
        result = repr(sftent.rect_entropy_table(spec, *args).h_r_estimate)
    elif route == "exists":
        result = repr(sftent.counting.admissible_extension_exists(lat, spec, {(0, 0): 0}))
    elif route == "bruteforce" and family == "multiplicative":
        result = str(sftent.count_multiplicative_bruteforce(*args, budget=2 ** args[0]))
    elif route == "bruteforce":
        result = str(sftent.count_bruteforce(lat, spec, budget=n ** len(lat)).value)
    elif route == "count":
        result = str(sftent.count_profile_dp(lat, spec).value)
    elif route == "extendable":
        result = str(sftent.count_extendable(lat, spec, int(margin)).value)
    elif route == "log":
        result = repr(sftent.log_count(lat, spec))
    else:
        result = repr(sftent.log_count(lat, spec) / len(lat))
    seconds = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024    # KiB on Linux
    return {"case": name, "seconds": round(seconds, 4), "max_rss_mb": round(rss_mb, 1),
            "result": result}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--case"]:
        print(json.dumps(run_case(argv[1])))
        return 0
    unknown = [name for name in argv if name not in CASES]
    if unknown:
        print(f"unknown case(s) {unknown}; choose from {list(CASES)}", file=sys.stderr)
        return 2
    failed = False
    for name in argv or CASES:
        runs, error = [], None
        for _ in range(REPEATS):
            proc = subprocess.run([sys.executable, __file__, "--case", name],
                                  capture_output=True, text=True)
            if proc.returncode:
                error = proc.stderr.strip().splitlines()[-1:]
                break
            runs.append(json.loads(proc.stdout))
        results = sorted({run["result"] for run in runs})
        if error is None and len(results) > 1:
            error = ["results differ between runs", *results]
        if error is not None:
            failed = True
            print(json.dumps({"case": name, "error": error}), flush=True)
            continue
        seconds = sorted(run["seconds"] for run in runs)
        print(json.dumps({"case": name, "seconds": statistics.median(seconds),
                          "range": [seconds[0], seconds[-1]],
                          "max_rss_mb": max(run["max_rss_mb"] for run in runs),
                          "result": runs[0]["result"]}), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
