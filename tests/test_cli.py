import json
import math

import pytest

from sftent.cli import main
from sftent.formats import (
    FormatError,
    lattice_from_dict,
    lattice_to_dict,
    parse_size_expr,
    resolve_lattice,
    resolve_spec,
    resolve_system,
    spec_from_dict,
    spec_to_dict,
)
from sftent import golden_mean_horizontal, lshape, omega_q, rectangle


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_lattice_points_roundtrip():
    lat = lshape(2)
    assert lattice_from_dict(lattice_to_dict(lat)) == lat


def test_lattice_generator_dict():
    d = {"type": "generator", "name": "omega_q", "params": {"q": 2, "n": 2}}
    assert lattice_from_dict(d) == omega_q(2, 2)


def test_lattice_rejects_non_integer_points():
    with pytest.raises(FormatError):
        lattice_from_dict({"type": "points", "points": [[0.5, 1]]})


def test_spec_roundtrip():
    spec = golden_mean_horizontal()
    again = spec_from_dict(spec_to_dict(spec))
    assert again.forbidden == spec.forbidden
    assert again.alphabet_size == 2


def test_spec_dict_matches_documented_shape():
    d = spec_from_dict(
        {"N": 2, "name": "golden-mean-h", "forbidden": [[[0, 0, 1], [1, 0, 1]]]}
    )
    assert d.forbidden == golden_mean_horizontal().forbidden


def test_resolve_spec_builtins():
    assert resolve_spec("golden-mean-h").name == "golden-mean-h"
    assert resolve_spec("full:3").alphabet_size == 3
    assert resolve_spec("period-forcing-h").safe_symbols == ()


def test_resolve_lattice_shorthand():
    assert resolve_lattice("rect:3,2") == rectangle((0, 0), 3, 2)
    assert resolve_lattice("rect:2,2,5,7") == rectangle((5, 7), 2, 2)
    assert resolve_lattice("omega_q:2,2") == omega_q(2, 2)
    with pytest.raises(FormatError):
        resolve_lattice("hexagon:3")
    # shorthand parses to the JSON generator form; argument counts are checked
    as_dict = {"type": "generator", "name": "stick", "params": {"n": 3, "v": [0, 1], "b": 4}}
    assert resolve_lattice("stick:3,0,1,4") == lattice_from_dict(as_dict)
    for text in ("rect:1,2,3", "lshape:3,4", "rect:"):
        with pytest.raises(FormatError):
            resolve_lattice(text)


def test_parse_size_expr():
    f = parse_size_expr("n^2")
    assert [f(n) for n in (1, 2, 5)] == [1, 4, 25]
    assert parse_size_expr("2^n")(6) == 64
    assert parse_size_expr("3*n")(5) == 15
    assert parse_size_expr("7")(99) == 7
    with pytest.raises(FormatError):
        parse_size_expr("n!")


def test_resolve_system_shorthand_and_json():
    assert resolve_system("squares").name == "squares"
    assert resolve_system('{"system":"omega_q","q":2}').name == "omega_q:2"
    assert resolve_system("stick:0,1,0.5").lattice(4).bbox[2] == 16  # stick top y = b(4) = 15
    sys_rect = resolve_system('{"system":"rect","w":"n^2","h":"n"}')
    assert len(sys_rect.lattice(3)) == 27
    assert resolve_system("rect:n^2,n").name == sys_rect.name == "rect:n^2xn"
    for text in ('{"system":"omega_q"}', '{"system":"squares","q":2}', "omega_q", "stick:0,1"):
        with pytest.raises(FormatError):
            resolve_system(text)


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_golden_mean_2x2(capsys):
    code, out, _ = run_cli(capsys, "count", "--spec", "golden-mean-h", "--lattice", "rect:2,2")
    assert code == 0
    assert out.split() == ["9", "local", "4"]


def test_count_wedge(capsys):
    code, out, _ = run_cli(capsys, "count", "--spec", "golden-mean-h", "--lattice", "omega_q:2,2")
    assert code == 0
    assert out.split()[0] == "3969"


def test_count_full_shift(capsys):
    code, out, _ = run_cli(capsys, "count", "--spec", "full:2", "--lattice", "rect:3,3")
    assert code == 0
    assert out.split()[0] == "512"


def test_count_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--spec", "golden-mean-h", "--lattice", "rect:4,1",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "8" and data["cells"] == 4


def test_count_extendable_mode(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--spec", "golden-mean-h", "--lattice", "rect:3,3",
        "--mode", "ext:1",
    )
    assert code == 0
    value, mode, cells = out.split()
    assert mode == "extendable" and int(value) == 125  # = local count a_3^3
    code, out, _ = run_cli(
        capsys, "count", "--spec", "golden-mean-h", "--lattice", "rect:2,2",
        "--mode", "ext:15",
    )
    assert code == 0
    assert out == "9 extendable 4\n"


def test_count_budget_exit_code(capsys):
    spec = {"N": 2, "name": "skip", "forbidden": [[[0, 0, 1], [2, 0, 1]]]}
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(spec, fh)
        path = fh.name
    try:
        code, _, err = run_cli(capsys, "count", "--spec", path, "--lattice", "rect:6,5")
        assert code == 3
        assert "budget" in err.lower()
    finally:
        os.unlink(path)
    # 2**1 core patterns fit the budget, one extension search on 3x3 does not
    code, out, err = run_cli(
        capsys, "count", "--spec", "golden-mean-h", "--lattice", "rect:1,1",
        "--mode", "ext:1", "--budget", "4",
    )
    assert code == 3 and out == ""
    assert "budget" in err.lower()


def test_count_parse_error_exit_code(capsys, tmp_path):
    code, _, err = run_cli(capsys, "count", "--spec", "golden-mean-h", "--lattice", "hexagon:1")
    assert code == 2
    assert err
    # missing arguments and malformed lattice files are usage errors, not tracebacks
    argvs = [
        ["count", "--spec", "golden-mean-h", "--lattice", "rect:2"],
        ["count", "--spec", "golden-mean-h", "--lattice", "omega_q:2"],
        ["count", "--spec", "golden-mean-h", "--lattice", "stick:3,0,1"],
        ["entropy-omega", "--spec", "golden-mean-h", "--system", '{"system":"omega_q"}'],
        ["reproduce", "eq1_11", "--q", "1"],
        ["reproduce", "eq1_13", "--q", "0"],
        ["count", "--spec", "golden-mean-h", "--lattice", "rect:3,2,9223372036854775807,0"],
    ]
    for i, text in enumerate((
        '[[0, 0], [1, 0]]',
        '{"type": "points"}',
        '{"type": "points", "points": 5}',
        '{"type": "points", "points": [[0, 0], 5]}',
        '{"type": "generator", "name": ["rect"]}',
        # coordinates, or a run's end one past the last cell, beyond int64
        '{"type": "points", "points": [[1180591620717411303424, 0]]}',
        '{"type": "points", "points": [[9223372036854775807, 0]]}',
    )):
        path = tmp_path / f"lattice{i}.json"
        path.write_text(text)
        argvs.append(["count", "--spec", "golden-mean-h", "--lattice", str(path)])
    for argv in argvs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["count", "--spec", "golden-mean-h", "--lattice", "rect:2,2", "--format", "plot"],
    ["entropy-rect", "--spec", "golden-mean-h", "--table", "3x3", "--format", "text"],
    ["entropy-omega", "--spec", "golden-mean-h", "--system", "squares", "--format", "xml"],
    ["projectional", "--spec", "golden-mean-h", "--v", "1,0", "--format", "text"],
    ["reproduce", "eq1_7", "--format", "json"],
])
def test_format_checked_per_subcommand(capsys, argv):
    # count takes text|csv|json, the entropy commands csv|json|plot, reproduce none
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_entropy_rect_csv(capsys):
    code, out, _ = run_cli(
        capsys, "entropy-rect", "--spec", "golden-mean-h", "--table", "4x3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,log_count,ratio"
    assert len(lines) == 4 * 3 + 2
    first = lines[1].split(",")
    assert first[:2] == ["1", "1"]
    assert float(first[3]) == pytest.approx(math.log(2), rel=1e-12)


def test_entropy_rect_deterministic_output(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for path in (out1, out2):
        assert main([
            "entropy-rect", "--spec", "golden-mean-h", "--table", "6x6",
            "--out", str(path),
        ]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_entropy_omega_plot_format(capsys):
    code, out, _ = run_cli(
        capsys, "entropy-omega", "--spec", "golden-mean-h", "--system", "omega_q:2",
        "--n-range", "1:5", "--format", "plot",
    )
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert [r[0] for r in rows] == ["1", "2", "3", "4", "5"]
    assert all(0.4 < float(r[1]) < 0.7 for r in rows)


def test_entropy_omega_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "entropy-omega", "--spec", "golden-mean-h", "--system", "squares",
        "--n-range", "1:6", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["records"]) == 6
    assert data["estimator_kind"] == "limsup_tail_max"


def test_projectional_vertical(capsys):
    code, out, _ = run_cli(
        capsys, "projectional", "--spec", "golden-mean-h", "--v", "0,1",
        "--n-max", "6", "--format", "plot",
    )
    assert code == 0
    for line in out.strip().splitlines():
        assert float(line.split()[1]) == pytest.approx(math.log(2), rel=1e-12)


def test_projectional_unconstrained_past_frontier_cap(capsys, tmp_path):
    # no hard-square shape fits a diagonal segment, so its local counts are
    # 2**n even past the sweep's frontier cap and the brute-force budget
    spec = tmp_path / "hard-squares.json"
    spec.write_text('{"N": 2, "forbidden": [[[0,0,1],[1,0,1]], [[0,0,1],[0,1,1]]]}')
    code, out, err = run_cli(
        capsys, "projectional", "--spec", str(spec), "--v", "1,1", "--n-max", "30",
        "--format", "json",
    )
    assert code == 0 and err == ""
    data = json.loads(out)
    assert [r["log_count"] for r in data["records"]] == [math.log(2 ** n) for n in range(1, 31)]
    assert data["note"] == "no forbidden shape fits the segment; full-shift counts"


@pytest.mark.parametrize(
    "target,extra",
    [
        ("eq1_7", ["--q", "2", "--n", "6"]),
        ("eq1_10", ["--q", "3", "--n", "2"]),
        ("eq1_11", ["--q", "2"]),
        ("eq1_12", []),
        ("eq1_13", ["--q", "2"]),
        ("eq1_5", ["--q", "2"]),
        ("prop2_1", []),
        ("thm4_2", []),
    ],
)
def test_reproduce_targets_pass(capsys, target, extra):
    code, out, _ = run_cli(capsys, "reproduce", target, *extra)
    assert code == 0
    assert out.strip().splitlines()[-1] == f"PASS {target}"


def test_reproduce_slow_targets_pass(capsys):
    for target in ("lemma3_1", "thm4_1"):
        code, out, _ = run_cli(capsys, "reproduce", target)
        assert code == 0
        assert out.strip().splitlines()[-1] == f"PASS {target}"


# stdout of `sftent reproduce TARGET` at the default --q 2 --n 6 --terms 40
REPRODUCE_GOLDEN = {
    "eq1_5": (
        "fiber product equals brute force for n <= 12: True\n"
        "series = 0.571356788743, horizon ratio = 0.571356796304, diff = 7.56117368717e-09\n"
        "PASS eq1_5\n"
    ),
    "eq1_7": (
        "census weighted total = 64, expected 64\n"
        "multiplicities match closed form: True\n"
        "PASS eq1_7\n"
    ),
    "eq1_10": (
        "closed form = 3646568266365707895170063971261898046767288271545303040000\n"
        "DP count    = 3646568266365707895170063971261898046767288271545303040000\n"
        "PASS eq1_10\n"
    ),
    "eq1_11": (
        "series value = 0.517738811388 (tail bound 1.32386874536e-11)\n"
        "PASS eq1_11\n"
    ),
    "eq1_12": (
        "table minimum = 0.494353765621 at (12, 11)\n"
        "log golden mean = 0.48121182506, upper-bound gap = 0.0131419405611\n"
        "PASS eq1_12\n"
    ),
    "eq1_13": (
        "series value = 0.517738811388 (+/- 1.32386874536e-11)\n"
        "exceeds log golden mean by 0.0365269863284 (needs > 0.02)\n"
        "PASS eq1_13\n"
    ),
    "prop2_1": (
        "golden mean: min margin over log g = 0.0131419405611 at (12, 11)\n"
        "full shift: max deviation from log 2 = 1.11022302463e-16\n"
        "PASS prop2_1\n"
    ),
    "lemma3_1": (
        "squares: {'boundary_ratio': 'vanishing', 'block[2x2]': 'vanishing', "
        "'block[3x3]': 'vanishing', 'block[5x5]': 'vanishing'}\n"
        "PASS lemma3_1\n"
    ),
    "thm4_1": (
        "horizontal length-2 ratio verdict: non_vanishing\n"
        "ratio at n=8 = 0.51773881142, rect upper bound = 0.494353765621, gap = 0.0233850457996\n"
        "PASS thm4_1\n"
    ),
    "thm4_2": (
        "ratio at n=48 = 0.586614600085, target (log g + log 2)/2 = 0.58717950281\n"
        "|difference| = 0.000564902724981 (needs < 0.01)\n"
        "PASS thm4_2\n"
    ),
}


@pytest.mark.parametrize("target", sorted(REPRODUCE_GOLDEN))
def test_reproduce_golden_output_at_defaults(capsys, target):
    assert run_cli(capsys, "reproduce", target) == (0, REPRODUCE_GOLDEN[target], "")


def test_reproduce_eq1_5_golden_output_at_q10(capsys):
    # the horizon is 10^6; the fiber census makes it cheap
    assert run_cli(capsys, "reproduce", "eq1_5", "--q", "10") == (0, (
        "fiber product equals brute force for n <= 12: True\n"
        "series = 0.66539324973, horizon ratio = 0.665393249813, diff = 8.33588753579e-11\n"
        "PASS eq1_5\n"
    ), "")


@pytest.mark.parametrize("target", ["eq1_11", "eq1_13", "eq1_5"])
def test_reproduce_series_past_float_range(capsys, target):
    # q^(terms+1) no longer fits a float; the series stops where it does
    code, out, err = run_cli(capsys, "reproduce", target, "--terms", "1100")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"PASS {target}"
    if target == "eq1_11":
        _, ref, _ = run_cli(capsys, "reproduce", target, "--terms", "1000")
        assert out.split(" (")[0] == ref.split(" (")[0] == "series value = 0.517738811397"


def test_reproduce_huge_q_usage_error(capsys):
    # q**2 (both series) or the horizon q**6 (eq1_5) past the float range is
    # a usage error, not an OverflowError traceback
    for target, q in (("eq1_11", 10**160), ("eq1_13", 10**160), ("eq1_5", 10**60)):
        code, out, err = run_cli(capsys, "reproduce", target, "--q", str(q))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
    code, out, _ = run_cli(capsys, "reproduce", "eq1_5", "--q", str(10**30))
    assert code == 0 and out.splitlines()[-1] == "PASS eq1_5"


def test_reproduce_unknown_target_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "eq9_9"])
    assert exc.value.code == 2


def test_reproduce_failure_exit_code(capsys):
    # a single series term leaves a tail bound far above the convergence
    # requirement, and a value (log 3)/8 below log g, so both experiments
    # honestly fail
    for target in ("eq1_11", "eq1_13"):
        code, out, _ = run_cli(capsys, "reproduce", target, "--terms", "1")
        assert code == 1
        assert out.strip().splitlines()[-1] == f"FAIL {target}"
