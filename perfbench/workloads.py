"""The four benchmark workloads: fixed job lists with a correctness check per job.

Each workload function takes the freshly imported ``sftent`` package, a
``random.Random`` seeded from ``--seed`` and a ``small`` flag (the harness
self-test runs every workload at a tiny size).  It generates the inputs --
spec and family descriptions in the formats the command line accepts, plus
seeded random specs and lattices -- and returns jobs that build every lattice
and run every computation themselves, so no library work happens in set-up.

A job's ``run`` is timed; its ``check`` is not.  Checks combine closed forms,
agreement between independent routes and exact values recorded at the seed
commit.  A job whose ``known_defect`` names an exception type is expected to
raise it until the defect is fixed; it is still counted as failed.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    largest: bool = False                     # the workload's largest_job_s job
    known_defect: type[BaseException] | None = None


# ---------------------------------------------------------------------------
# specs (JSON spec dicts, parsed by sftent.formats inside the jobs)
# ---------------------------------------------------------------------------

def _pair(dx, dy, a, b):
    return [[0, 0, a], [dx, dy, b]]


HARD_SQUARE = {"N": 2, "name": "hard-square",
               "forbidden": [_pair(1, 0, 1, 1), _pair(0, 1, 1, 1)]}
THREE_COLOURING = {"N": 3, "name": "3-colouring",
                   "forbidden": [_pair(1, 0, a, a) for a in range(3)]
                   + [_pair(0, 1, a, a) for a in range(3)]}
# an L-triomino of 1s plus a 1x3 run of 0s: shapes exceed the 2x2 window
L_TRIOMINO = {"N": 2, "name": "l-triomino",
              "forbidden": [[[0, 0, 1], [1, 0, 1], [0, 1, 1]], [[0, 0, 0], [1, 0, 0], [2, 0, 0]]]}
# a 1 may have no right neighbour: locally admissible patterns with a 1 in the
# last column never extend, so extendable counts discard most core patterns
EDGE_ONLY = {"N": 2, "name": "edge-only", "forbidden": [_pair(1, 0, 1, 0), _pair(1, 0, 1, 1)]}
# no equal horizontal neighbours: no safe symbol, glues at gap 2
NO_EQUAL_H = {"N": 3, "name": "no-equal-h", "forbidden": [_pair(1, 0, a, a) for a in range(3)]}

# exact counts recorded at the seed commit (hard squares n x n: OEIS A006506)
HARD_SQUARE_NN = {2: 7, 4: 1234, 6: 5598861, 8: 660647962955, 10: 2030049051145980050,
                  12: 162481813349792588536582997,
                  16: 18396766424410124752958806046933947217821482942}
HARD_SQUARE_40x12 = int("3083891091312591550397736312530559370131219619799214416794837435"
                        "39814042492482011843935")
HARD_SQUARE_OMEGA = {2: 1481, 3: 1650162, 4: 1608547194162, 5: 1238356157986156944284887,
                     6: 589622164153113756882755467215674468635095505401}
THREE_COLOURING_NN = {2: 18, 3: 246, 4: 7812, 5: 580986, 6: 101596896, 7: 41869995708,
                      8: 40724629633188}
L_TRIOMINO_COUNTS = {(4, 4): 5979, (5, 4): 40504, (6, 4): 245631}

VANISHING = "vanishing"


def _golden(m: int) -> int:
    """a_m: binary strings of length m without two adjacent 1s (a_0 = 1, a_1 = 2)."""
    a, b = 1, 2
    for _ in range(m):
        a, b = b, a + b
    return a


def _close(x: float, y: float, rel: float = 1e-9) -> bool:
    return math.isclose(x, y, rel_tol=rel, abs_tol=rel)


# ---------------------------------------------------------------------------
# geometry: lattice and systems do the work, counting none
# ---------------------------------------------------------------------------

def _rect_rows_ok(rep, sides) -> bool:
    """Rows of a rectangle family against boundary, block residue and run closed forms."""
    for row in rep.rows:
        m, n = sides(row.n)
        size = m * n
        if row.size != size or row.boundary_size != m + n - 1 or row.complement_ratio != 0:
            return False
        for (k, l), ratio in zip(rep.block_sizes, row.block_ratio):
            if ratio != (size - (m // k) * k * (n // l) * l) / size:
                return False
        runs_h = tuple(1.0 if j == m else 0.0 for j in range(1, rep.m_max + 1))
        runs_v = tuple(1.0 if j == n else 0.0 for j in range(1, rep.m_max + 1))
        if row.run_ratio_h != runs_h or row.run_ratio_v != runs_v:
            return False
    return True


def _vanishing(rep, keys) -> bool:
    return all(rep.verdicts[k] == VANISHING for k in keys)


def _random_connected(rng, cells: int) -> list[list[int]]:
    """Grow a connected 4-neighbour point set from the origin."""
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while len(seen) < cells:
        x, y = rng.choice(frontier)
        fresh = [c for c in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)) if c not in seen]
        if not fresh:
            frontier.remove((x, y))
            continue
        c = rng.choice(fresh)
        seen.add(c)
        frontier.append(c)
    return [list(p) for p in seen]


def _point_geometry(points) -> tuple:
    """Reference boundary size, 2x2/3x3 block residues and run censuses from a point set."""
    cells = {tuple(p) for p in points}
    interior = sum((x + 1, y) in cells and (x, y + 1) in cells and (x + 1, y + 1) in cells
                   for x, y in cells)
    residues = []
    for k, l in ((2, 2), (3, 3)):
        per_block: dict = {}
        for x, y in cells:
            per_block[(x // k, y // l)] = per_block.get((x // k, y // l), 0) + 1
        residues.append(len(cells) - k * l * sum(c == k * l for c in per_block.values()))
    censuses = []
    for axis in (0, 1):
        census: dict = {}
        for x, y in cells:
            p = (x, y)
            prev = (x - 1, y) if axis == 0 else (x, y - 1)
            if prev in cells:
                continue
            length = 0
            while p in cells:
                length += 1
                p = (p[0] + 1, p[1]) if axis == 0 else (p[0], p[1] + 1)
            census[length] = census.get(length, 0) + length
        censuses.append(census)
    return (len(cells) - interior, *residues, *censuses)


def geometry(S, rng, small: bool = False) -> list[Job]:
    F = S.formats
    blocks = [(2, 2), (3, 3), (5, 5)]
    vanish = ["boundary_ratio", "block[2x2]", "block[3x3]", "block[5x5]"]
    wide = '{"system": "rect", "w": "n^2", "h": "n"}'

    def report(text, n_range):
        return lambda: S.condition_report(F.resolve_system(text), n_range, block_sizes=blocks)

    def sizes_ok(rep, size, comp=None):
        return all(r.size == size(r.n) and (comp is None or r.complement_ratio == comp(r.n) / r.size)
                   for r in rep.rows)

    jobs = [
        Job("report-squares", report("squares", range(1, 41 if small else 201)),
            lambda rep: _vanishing(rep, vanish) and _rect_rows_ok(rep, lambda n: (n, n))),
        # n^2 x n up to n = 200 (8e6 cells); every tenth index keeps the pass short
        Job("report-wide-n2xn", report(wide, range(2, 41, 2) if small else range(10, 201, 10)),
            lambda rep: _vanishing(rep, vanish) and _rect_rows_ok(rep, lambda n: (n * n, n)),
            largest=True),
        Job("report-lshape", report("lshape", range(1, 11 if small else 31)),
            lambda rep: _vanishing(rep, ["boundary_ratio"])
            and rep.verdicts["complement_ratio"] == "non_vanishing"
            and sizes_ok(rep, lambda n: 2 * n ** 3 - n * n, lambda n: (n * n - n) ** 2)),
        Job("report-staircase", report("staircase", range(2, 11 if small else 31)),
            lambda rep: _vanishing(rep, ["boundary_ratio"])
            and rep.verdicts["complement_ratio"] == "non_vanishing"
            and sizes_ok(rep, lambda n: 2 * n ** 3, lambda n: n ** 4 - n ** 3)),
    ]
    for q, n_hi in ((2, 8 if small else 14), (3, 5 if small else 9)):
        jobs.append(Job(
            f"report-omega_q:{q}", report(f"omega_q:{q}", range(1, n_hi + 1)),
            lambda rep, q=q: rep.verdicts["run_h[m=2]"] == "non_vanishing"
            and rep.verdicts["boundary_ratio"] == "non_vanishing"
            and sizes_ok(rep, lambda n: 4 * q ** n)))
    for i, cells in enumerate((300, 400, 500) if small else (2000, 3000, 4000)):
        points = _random_connected(rng, cells)

        def stats(points=points):
            lat = F.lattice_from_dict({"type": "points", "points": points})
            return (S.boundary_size(lat), S.block_residue_size(lat, 2, 2),
                    S.block_residue_size(lat, 3, 3), S.run_census(lat, "horizontal"),
                    S.run_census(lat, "vertical"))

        jobs.append(Job(f"random-connected-{i}", stats,
                        lambda got, points=points: got == _point_geometry(points)))
    return jobs


# ---------------------------------------------------------------------------
# sweep: the broken-profile sweep on two-axis specs
# ---------------------------------------------------------------------------

_WINDOW_SHAPES = [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((0, 0), (1, 1)), ((1, 0), (0, 1)),
                  ((0, 0), (1, 0), (0, 1)), ((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 0), (0, 1), (1, 1))]


def _random_window_spec(S, rng, index: int) -> dict:
    """Seeded 2x2-window spec with N in {2, 3} whose constraints cross both axes."""
    while True:
        n_sym = rng.choice((2, 3))
        forbidden = [[[dx, dy, rng.randrange(n_sym)] for dx, dy in rng.choice(_WINDOW_SHAPES)]
                     for _ in range(rng.randint(2, 4))]
        data = {"N": n_sym, "name": f"random-{index}", "forbidden": forbidden}
        if S.formats.spec_from_dict(data).pure_axis is None:
            return data


def sweep(S, rng, small: bool = False) -> list[Job]:
    F = S.formats

    def rect(m, n):
        return S.rectangle((0, 0), m, n)

    def count(spec, lat):
        return S.count_profile_dp(lat, F.spec_from_dict(spec)).value

    def both_ways(spec, make_lat):
        def run():
            lat = make_lat()
            return count(spec, lat), count(spec, lat.transpose())
        return run

    jobs = []
    sizes = [n for n in HARD_SQUARE_NN if n <= (8 if small else 16)]
    for n in sizes:
        jobs.append(Job(f"hard-square-{n}x{n}", lambda n=n: count(HARD_SQUARE, rect(n, n)),
                        lambda v, n=n: v == HARD_SQUARE_NN[n], largest=n == sizes[-1]))
    for n in (2, 4):
        jobs.append(Job(f"hard-square-{n}x{n}-bruteforce",
                        lambda n=n: S.count_bruteforce(rect(n, n), F.spec_from_dict(HARD_SQUARE)).value,
                        lambda v, n=n: v == HARD_SQUARE_NN[n]))
    n_log = 8 if small else 10
    jobs.append(Job(f"hard-square-{n_log}x{n_log}-log",
                    lambda: S.log_count(rect(n_log, n_log), F.spec_from_dict(HARD_SQUARE)),
                    lambda v: _close(v, math.log(HARD_SQUARE_NN[n_log]))))
    if not small:
        jobs.append(Job("hard-square-40x12", lambda: count(HARD_SQUARE, rect(40, 12)),
                        lambda v: v == HARD_SQUARE_40x12))
    for n in range(3, 5 if small else 7):
        # the wedge's bounding box holds absent cells
        jobs.append(Job(f"hard-square-omega_q:2,{n}",
                        both_ways(HARD_SQUARE, lambda n=n: S.omega_q(2, n)),
                        lambda v, n=n: v == (HARD_SQUARE_OMEGA[n],) * 2))
    for n in range(2, (6 if small else 8) + 1):
        jobs.append(Job(f"3-colouring-{n}x{n}", lambda n=n: count(THREE_COLOURING, rect(n, n)),
                        lambda v, n=n: v == THREE_COLOURING_NN[n]))
    jobs.append(Job("3-colouring-3x3-bruteforce",
                    lambda: S.count_bruteforce(rect(3, 3), F.spec_from_dict(THREE_COLOURING)).value,
                    lambda v: v == THREE_COLOURING_NN[3]))
    jobs.append(Job("3-colouring-6x6-log",
                    lambda: S.log_count(rect(6, 6), F.spec_from_dict(THREE_COLOURING)),
                    lambda v: _close(v, math.log(THREE_COLOURING_NN[6]))))
    for i in range(4):
        data = _random_window_spec(S, rng, i)

        def routes(data=data):
            spec = F.spec_from_dict(data)
            lat, small_lat = rect(6, 4), rect(3, 2)
            return (S.count_profile_dp(lat, spec).value,
                    S.count_profile_dp(lat.transpose(), spec.transpose()).value,
                    S.log_count(lat, spec),
                    S.count_profile_dp(small_lat, spec).value,
                    S.count_bruteforce(small_lat, spec).value)

        def agree(v):
            exact, transposed, log, dp_small, brute_small = v
            log_ok = log == -math.inf if exact == 0 else _close(log, math.log(exact))
            return exact == transposed and log_ok and dp_small == brute_small

        jobs.append(Job(f"random-spec-{i}", routes, agree))
    return jobs


# ---------------------------------------------------------------------------
# paper: the reproduce targets and the entropy estimators, on pure-axis specs
# ---------------------------------------------------------------------------

TARGETS = ("eq1_5", "eq1_7", "eq1_10", "eq1_11", "eq1_12", "eq1_13",
           "prop2_1", "lemma3_1", "thm4_1", "thm4_2")
PARAMETRISED = ("eq1_5", "eq1_7", "eq1_10", "eq1_11", "eq1_13")   # read --q/--n/--terms
SETTINGS = ((3, 3, 30), (2, 8, 60), (3, 5, 20), (4, 3, 25), (5, 2, 30))


def _stick_count(n: int, b: int) -> int:
    """Golden-mean count on the n x n square with a vertical stick of b+1 cells at x = n."""
    touching = min(n, b + 1)
    return _golden(n + 1) ** touching * _golden(n) ** (n - touching) * 2 ** (b + 1 - touching)


def paper(S, rng, small: bool = False) -> list[Job]:
    F, cli = S.formats, S.cli

    def reproduce(argv):
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["reproduce", *argv])
            return code, out.getvalue()
        return run

    def passed(target):
        return lambda got: got[0] == 0 and got[1].splitlines()[-1] == f"PASS {target}"

    jobs = [Job(f"reproduce-{t}", reproduce([t]), passed(t), largest=t == "lemma3_1")
            for t in TARGETS]
    for q, n, terms in SETTINGS[:2] if small else SETTINGS:
        for t in PARAMETRISED:
            jobs.append(Job(f"reproduce-{t}-q{q}-n{n}-t{terms}",
                            reproduce([t, "--q", str(q), "--n", str(n), "--terms", str(terms)]),
                            passed(t)))

    side = 12 if small else 24
    jobs.append(Job(f"rect-table-{side}x{side}",
                    lambda: S.rect_entropy_table(F.resolve_spec("golden-mean-h"), side, side),
                    lambda t: all(_close(lc, n * math.log(_golden(m)))
                                  for m, n, lc, _ in t.entries())))
    jobs.append(Job("golden-mean-rect-counts",
                    lambda: [[S.count(S.rectangle((0, 0), m, n), F.resolve_spec("golden-mean-h")).value
                              for n in range(1, 11)] for m in range(1, 11)],
                    lambda v: all(v[m - 1][n - 1] == _golden(m) ** n
                                  for m in range(1, 11) for n in range(1, 11))))

    def family(text, n_hi, expected_count):
        return Job(f"system-entropy-{text}",
                   lambda: S.system_entropy(F.resolve_spec("golden-mean-h"),
                                            F.resolve_system(text), 1, n_hi),
                   lambda seq: all(_close(r.log_count, math.log(expected_count(r.n)))
                                   for r in seq.records))

    jobs += [
        family("omega_q:2", 10, lambda n: S.omega_q_golden_mean_count(2, n)),
        family("squares", 48, lambda n: _golden(n) ** n),
        family("stick:0,1,0.5", 24 if small else 48, lambda n: _stick_count(n, n * n - 1)),
    ]
    for v in ((1, 0), (0, 1), (1, 1), (2, 1)):
        per_site = (lambda n: math.log(_golden(n))) if v == (1, 0) else (lambda n: n * math.log(2))
        jobs.append(Job(f"projectional-{v[0]},{v[1]}",
                        lambda v=v: S.projectional_entropy(F.resolve_spec("golden-mean-h"), v, 24),
                        lambda seq, f=per_site: all(_close(r.log_count, f(r.n)) for r in seq.records)))
    log_g = math.log((1 + math.sqrt(5)) / 2)
    for name in ("golden-mean-h", "golden-mean-v"):
        jobs.append(Job(f"strict-gap-{name}",
                        lambda name=name: S.strict_gap_check(F.resolve_spec(name), 12, 12),
                        lambda rep: rep.all_strict and rep.reference_kind == "closed_form_golden_mean"
                        and rep.bracket[0] <= log_g <= rep.bracket[1]))
    jobs.append(Job("strict-gap-full:2", lambda: S.strict_gap_check(F.resolve_spec("full:2"), 6, 6),
                    lambda rep: rep.full_shift and not rep.all_strict
                    and _close(rep.reference, math.log(2))))
    return jobs


# ---------------------------------------------------------------------------
# search: the recursive backtrackers and the gluing verifier
# ---------------------------------------------------------------------------

def search(S, rng, small: bool = False) -> list[Job]:
    F = S.formats

    def rect(m, n):
        return S.rectangle((0, 0), m, n)

    spec = F.spec_from_dict

    jobs = []
    for (m, n), value in L_TRIOMINO_COUNTS.items():
        if m * n <= (20 if small else 24):
            jobs.append(Job(f"bruteforce-l-triomino-{m}x{n}",
                            lambda m=m, n=n: S.count_bruteforce(rect(m, n), spec(L_TRIOMINO)).value,
                            lambda v, value=value: v == value))
    jobs.append(Job("bruteforce-l-triomino-transposed",
                    lambda: S.count_bruteforce(rect(4, 5), spec(L_TRIOMINO).transpose()).value,
                    lambda v: v == L_TRIOMINO_COUNTS[(5, 4)]))
    for data, (m, n) in ((HARD_SQUARE, (4, 4) if small else (5, 4)), (THREE_COLOURING, (4, 3))):
        jobs.append(Job(f"bruteforce-vs-dp-{data['name']}-{m}x{n}",
                        lambda data=data, m=m, n=n: (S.count_bruteforce(rect(m, n), spec(data)).value,
                                                     S.count_profile_dp(rect(m, n), spec(data)).value),
                        lambda v: v[0] == v[1]))

    # extendable counts: hard squares and golden mean keep every local pattern,
    # the edge-only spec keeps a single one
    extendable = [(HARD_SQUARE, 3, 3, 1, 63), (HARD_SQUARE, 4, 3, 2, 227),
                  (EDGE_ONLY, 3, 3, 1, 1), (EDGE_ONLY, 4, 3, 2, 1)]
    for data, m, n, margin, value in extendable:
        jobs.append(Job(f"extendable-{data['name']}-{m}x{n}-M{margin}",
                        lambda data=data, m=m, n=n, margin=margin:
                        S.count_extendable(rect(m, n), spec(data), margin).value,
                        lambda v, value=value: v == value))
    for m, n, margin, value in ((3, 3, 2, 125), (4, 3, 1, 512)):
        jobs.append(Job(f"extendable-golden-mean-h-{m}x{n}-M{margin}",
                        lambda m=m, n=n, margin=margin:
                        S.count_extendable(rect(m, n), F.resolve_spec("golden-mean-h"), margin).value,
                        lambda v, value=value: v == value))

    # no safe symbol, so every pair of admissible 2x2 windows is tried
    jobs.append(Job("gluing-no-equal-h",
                    lambda: S.verify_block_gluing(spec(NO_EQUAL_H), gap=2, window=2, extent=3,
                                                  variant="horizontal"),
                    lambda v: v.verified and v.method == "exhaustive-pairs"
                    and (v.offsets_checked, v.pairs_checked) == (1, 1296),
                    largest=True))

    def period_forcing():
        pf = F.resolve_spec("period-forcing-h")
        verdict = S.verify_block_gluing(pf, gap=1, window=2, extent=4)
        return verdict, S.replay_counterexample(pf, verdict.counterexample)

    jobs.append(Job("gluing-period-forcing-replay", period_forcing,
                    lambda v: not v[0].verified and v[0].pairs_checked == 2 and v[1] == 0))
    for n, q in ((14, 2), (12, 3)) if small else ((22, 2), (18, 3)):
        jobs.append(Job(f"multiplicative-bruteforce-n{n}-q{q}",
                        lambda n=n, q=q: (S.count_multiplicative_bruteforce(n, q),
                                          S.count_multiplicative(n, q)),
                        lambda v: v[0] == v[1]))
    # known defect: the recursive extension search overflows the interpreter
    # stack beyond about 1,000 cells (here a 32 x 32 dilation)
    jobs.append(Job("extendable-golden-mean-h-2x2-M15",
                    lambda: S.count_extendable(rect(2, 2), F.resolve_spec("golden-mean-h"), 15).value,
                    lambda v: v == 9, known_defect=RecursionError))
    return jobs


WORKLOADS = {"geometry": geometry, "sweep": sweep, "paper": paper, "search": search}

# The host-speed probe (hostspeed.py) that scales each workload's job times:
# the one whose kind of work slows down as the workload's does when the
# shared host does.  geometry's time goes to passes over numpy arrays of
# 10^6-10^7 elements; over 200 s of alternating passes and probes, scaling
# its pass time by an interpreter-bound probe widened the quartile spread
# from 0.08 to 0.23.  Over ten runs, the `arrays` probe took the spread of
# its pass time from 0.14-0.19 raw to 0.02-0.04.
PROBE = {"geometry": "arrays", "sweep": "interpreter", "paper": "interpreter",
         "search": "interpreter"}
