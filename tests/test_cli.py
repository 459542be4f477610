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
    ]
    for i, text in enumerate((
        '[[0, 0], [1, 0]]',
        '{"type": "points"}',
        '{"type": "points", "points": 5}',
        '{"type": "points", "points": [[0, 0], 5]}',
        '{"type": "generator", "name": ["rect"]}',
    )):
        path = tmp_path / f"lattice{i}.json"
        path.write_text(text)
        argvs.append(["count", "--spec", "golden-mean-h", "--lattice", str(path)])
    for argv in argvs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")


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


def test_reproduce_unknown_target_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "eq9_9"])
    assert exc.value.code == 2


def test_reproduce_failure_exit_code(capsys):
    # a single series term leaves a tail bound far above the convergence
    # requirement, so the experiment honestly fails
    code, out, _ = run_cli(capsys, "reproduce", "eq1_11", "--terms", "1")
    assert code == 1
    assert out.strip().splitlines()[-1] == "FAIL eq1_11"
