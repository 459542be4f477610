import json
import math
import sys
import time

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
from sftent import count, golden_mean_horizontal, lshape, omega_q, rectangle


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


# sizes at n = 0..5, as the per-factor parser before the one product gave them
SIZE_VALUES = {
    "n": [0, 1, 2, 3, 4, 5], "n^0": [1] * 6, "n^2": [0, 1, 4, 9, 16, 25],
    "3^n": [1, 3, 9, 27, 81, 243], "2^n": [1, 2, 4, 8, 16, 32],
    "2*n^2*3^n": [0, 6, 72, 486, 2592, 12150], "3_0": [30] * 6, "0": [0] * 6,
    "n*n^3": [0, 1, 16, 81, 256, 625], "-2^n": [1, -2, 4, -8, 16, -32], "0^n": [1, 0, 0, 0, 0, 0],
    " 2 * n ": [0, 2, 4, 6, 8, 10], "n^+2": [0, 1, 4, 9, 16, 25], "1^n*4": [4] * 6,
}


def test_parse_size_expr():
    f = parse_size_expr("n^2")
    assert [f(n) for n in (1, 2, 5)] == [1, 4, 25]
    assert parse_size_expr("2^n")(6) == 64
    assert parse_size_expr("3*n")(5) == 15
    assert parse_size_expr("7")(99) == 7
    for text, values in SIZE_VALUES.items():
        f = parse_size_expr(text)
        assert [f(n) for n in range(6)] == values, text
    # the grammar is integer-only (n^-1 is no size); a malformed factor is a FormatError
    for text in ("n!", "4*n^-1", "n^n", "x^n", "n^", "^n", "n^2^3", "", "n*", "2.5", "2^m"):
        with pytest.raises(FormatError):
            parse_size_expr(text)


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


@pytest.mark.parametrize("option, forms, tail", [
    ("--spec", ["golden-mean-h",
                '{"N":2,"name":"golden-mean-h","forbidden":[[[0,0,1],[1,0,1]]]}'],
     ["count", "--lattice", "rect:3,2"]),
    ("--lattice", ["omega_q:2,2", '{"type":"generator","name":"omega_q","params":{"q":2,"n":2}}'],
     ["count", "--spec", "golden-mean-h"]),
    ("--system", ["omega_q:2", '{"system":"omega_q","q":2}'],
     ["entropy-omega", "--spec", "golden-mean-h", "--n-range", "1:3"]),
])
def test_every_input_is_shorthand_inline_json_or_a_file(capsys, tmp_path, option, forms, tail):
    path = tmp_path / "input.json"
    path.write_text(forms[1])
    outputs = set()
    for text in forms + [str(path)]:
        code, out, err = run_cli(capsys, *tail, option, text)
        assert code == 0, err
        outputs.add(out)
    assert len(outputs) == 1


def test_registered_names_shadow_files_and_paths_with_colons_are_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "squares").write_text('{"system":"omega_q","q":2}')
    (tmp_path / "a:b.json").write_text('{"type":"points","points":[[0,0],[3,0]]}')
    assert resolve_system("squares").name == "squares"
    assert resolve_lattice("a:b.json") == lattice_from_dict({"type": "points", "points": [[0, 0], [3, 0]]})
    with pytest.raises(FormatError, match="unknown lattice generator 'c'"):
        resolve_lattice("c:b.json")


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


def _decimal(value: int) -> str:
    """`value` >= 0 in decimal, 1,000 digits at a time (no int-to-str limit)."""
    chunks = []
    while value >= 10**1000:
        value, low = divmod(value, 10**1000)
        chunks.append(f"{low:01000d}")
    return str(value) + "".join(reversed(chunks))


def test_count_prints_counts_past_the_int_digit_limit(capsys):
    # golden mean on 150 x 150 (the axis product) has 4,710 digits, past the
    # 4,300 Python 3.11 converts to str by default: printed in full, in every
    # format, and the limit is back in place afterwards
    digits = _decimal(count(rectangle((0, 0), 150, 150), golden_mean_horizontal()).value)
    assert len(digits) > 4300
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    argv = ["count", "--spec", "golden-mean-h", "--lattice", "rect:150,150"]
    assert run_cli(capsys, *argv) == (0, f"{digits} local 22500\n", "")
    assert run_cli(capsys, *argv, "--format", "csv") == (
        0, f"value,mode,cells\n{digits},local,22500\n", "")
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "") and json.loads(out)["value"] == digits
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


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
        # a 100,001-cell diagonal stick: the sweep and the brute force both
        # refuse, and the message names both
        code, _, err = run_cli(capsys, "count", "--spec", path, "--lattice", "stick:5,1,1,100000")
        assert code == 3
        assert "budget" in err.lower()
        assert err.startswith("budget exceeded: profile sweep: ") and "; brute force: 2**100026 " in err
    finally:
        os.unlink(path)
    # 2**1 core patterns fit the budget, one extension search on 3x3 does not
    code, out, err = run_cli(
        capsys, "count", "--spec", "period-forcing-h", "--lattice", "rect:1,1",
        "--mode", "ext:1", "--budget", "4",
    )
    assert code == 3 and out == ""
    assert "budget" in err.lower()


def test_count_two_axis_sweep_bound_by_its_states(capsys, tmp_path):
    # a 25 x 25 bounding box with few sweep states: counted, not refused
    hard_squares = tmp_path / "hard-squares.json"
    hard_squares.write_text('{"N": 2, "forbidden": [[[0,0,1],[1,0,1]], [[0,0,1],[0,1,1]]]}')
    diagonal = tmp_path / "diagonal.json"
    diagonal.write_text(json.dumps({"type": "points", "points": [[i, i] for i in range(25)]}))
    assert run_cli(capsys, "count", "--spec", str(hard_squares), "--lattice", str(diagonal)) == (
        0, "33554432 local 25\n", "")
    # two diagonal cells far apart: the sweep's layout exceeds the budget at
    # once, the brute force counts the two cells
    for gap in (10**6, 2**40):
        pair = tmp_path / f"pair{gap}.json"
        pair.write_text(json.dumps({"type": "points", "points": [[0, 0], [gap, gap]]}))
        assert run_cli(capsys, "count", "--spec", str(hard_squares), "--lattice", str(pair)) == (
            0, "4 local 2\n", "")
    # a million symbols: the sweep's second step and the brute force both exceed
    # the budget, an exit 3 rather than a MemoryError
    huge = tmp_path / "huge.json"
    huge.write_text('{"N": 1000000, "forbidden": [[[0,0,1],[1,1,1]]]}')
    code, out, err = run_cli(capsys, "count", "--spec", str(huge), "--lattice", "rect:3,3")
    assert code == 3 and out == "" and err.startswith("budget exceeded:")


def test_extendable_count_with_a_safe_symbol_skips_the_search(capsys):
    # 3**14 core patterns: one extension search each took minutes
    start = time.perf_counter()
    assert run_cli(capsys, "count", "--spec", "full:3", "--lattice", "stick:3,0,1,4",
                   "--mode", "ext:1") == (0, "4782969 extendable 14\n", "")
    assert time.perf_counter() - start < 10


def test_extendable_count_builds_no_dilation_for_a_safe_symbol(capsys):
    # a margin of 10**9 would dilate 2 * 10**9 + 1 shifted copies of the runs;
    # past the coordinate range it is still a usage error
    start = time.perf_counter()
    assert run_cli(capsys, "count", "--spec", "golden-mean-h", "--lattice", "rect:2,2",
                   "--mode", f"ext:{10**9}") == (0, "9 extendable 4\n", "")
    assert time.perf_counter() - start < 10
    assert run_cli(capsys, "count", "--spec", "golden-mean-h", "--lattice", "rect:2,2",
                   "--mode", f"ext:{2**63 - 2}") == (
        2, "", "error: lattice coordinates must lie in [-2**63, 2**63 - 1), "
               "got -9223372036854775806..9223372036854775807\n")


def test_extendable_count_near_the_coordinate_range_exits_cleanly(capsys):
    # no safe symbol, so the dilation is built: within the range but too
    # large to hold it is refused (exit 3), past the range a usage error
    for margin in (2**62, 2**60 + 12345):
        code, out, err = run_cli(capsys, "count", "--spec", "period-forcing-h",
                                 "--lattice", "rect:2,2", "--mode", f"ext:{margin}")
        assert (code, out) == (3, "") and err.startswith("budget exceeded: ")
    code, out, err = run_cli(capsys, "count", "--spec", "period-forcing-h",
                             "--lattice", "rect:2,2", "--mode", f"ext:{2**63 - 2}")
    assert (code, out) == (2, "") and err.startswith("error: lattice coordinates must lie in")


@pytest.mark.parametrize("argv, builder", [
    (["reproduce", "eq1_7", "--n", "40"], "reproduce"),
    (["entropy-omega", "--spec", "golden-mean-h", "--system", "omega_q:2", "--n-range", "40:40"],
     "system_entropy"),
    (["count", "--spec", "golden-mean-h", "--lattice", "omega_q:2,45"], "resolve_lattice"),
])
def test_out_of_memory_exit_code(capsys, monkeypatch, argv, builder):
    # an allocation past the machine's memory (4 TiB, 4 TiB and 128 TiB here)
    # is exit 3, not a traceback; the builder raises without allocating
    from sftent import cli
    message = ["Unable to allocate 4.00 TiB for an array"]

    def allocate(*args, **kwargs):
        raise MemoryError(*message)
    if builder == "reproduce":
        monkeypatch.setitem(cli.REPRODUCERS, "eq1_7", allocate)
    else:
        monkeypatch.setattr(cli.entropy if builder == "system_entropy" else cli, builder, allocate)
    assert run_cli(capsys, *argv) == (
        3, "", "budget exceeded: Unable to allocate 4.00 TiB for an array\n")
    message.clear()      # a bare MemoryError
    assert run_cli(capsys, *argv) == (3, "", "budget exceeded: out of memory\n")


def test_stick_past_the_range_is_a_usage_error(capsys):
    # past int64 the stick once came out empty, counting the bare 3 x 3 square
    # with exit 0; neither stick is allocated
    generator = '{"type":"generator","name":"stick","params":{"n":3,"v":%s,"b":%d}}'
    code, out, err = run_cli(capsys, "count", "--spec", "golden-mean-h",
                             "--lattice", generator % ("[1,0]", 2 ** 63))
    assert (code, out) == (2, "")
    assert err.startswith("error: lattice coordinates must lie in [-2**63, 2**63 - 1)")
    code, out, err = run_cli(capsys, "count", "--spec", "golden-mean-h",
                             "--lattice", generator % ("[0,1]", 2 ** 63 - 5))
    assert (code, out) == (2, "") and err.startswith("error: ")
    # a stick length past the float range: once an OverflowError traceback
    n = str(10 ** 160)
    code, out, err = run_cli(capsys, "entropy-omega", "--spec", "golden-mean-h",
                             "--system", "stick:0,1,0.5", "--n-range", f"{n}:{n}")
    assert (code, out) == (2, "")
    assert err == f"error: stick length at n={n} is past the float range\n"


def test_json_integers_are_integers(capsys, tmp_path):
    # floats, bools and strings where JSON input wants an integer are usage
    # errors, not values cut to an int
    specs = ['{"N": 2.7, "forbidden": [[[0,0,1.9],[1,0,"1"]]]}',
             '{"N": 2, "forbidden": [[[0,0,1],[1,0,"1"]]]}',
             '{"N": 2, "forbidden": [[[0,0,1],[1.0,0,1]]]}',
             '{"N": true, "forbidden": []}']
    lattices = ['{"type": "generator", "name": "rect", "params": {"m": 2.9, "n": true}}',
                '{"type": "generator", "name": "rect", "params": {"m": 2, "n": "1"}}',
                '{"type": "generator", "name": "rect", "params": {"m": 2, "n": 1, "origin": [0.5, 0]}}',
                '{"type": "points", "points": [[true, 0]]}']
    argvs = [["entropy-omega", "--spec", "golden-mean-h", "--system", system]
             for system in ('{"system":"omega_q","q":2.5}', '{"system":"omega_q","q":"2"}',
                            '{"system":"stick","v":[0,1],"a_target":"0.5"}',
                            '{"system":"stick","v":[0,1],"a_target":true}')]
    for i, text in enumerate(specs):
        path = tmp_path / f"spec{i}.json"
        path.write_text(text)
        argvs.append(["count", "--spec", str(path), "--lattice", "rect:3,1"])
    for i, text in enumerate(lattices):
        path = tmp_path / f"lattice{i}.json"
        path.write_text(text)
        argvs.append(["count", "--spec", "golden-mean-h", "--lattice", str(path)])
    for argv in argvs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv
    # JSON integers and shorthand decimals still parse
    path = tmp_path / "rect.json"
    path.write_text('{"type": "generator", "name": "rect", "params": {"m": 3, "n": 1, "origin": [-2, 7]}}')
    for lattice in (str(path), "rect:3,1,-2,7"):
        assert run_cli(capsys, "count", "--spec", "golden-mean-h", "--lattice", lattice) == (
            0, "5 local 3\n", "")
    # a_target is a real: a JSON number, or a shorthand decimal
    rows = {run_cli(capsys, "entropy-omega", "--spec", "golden-mean-h", "--system", system,
                    "--n-range", "2:2") for system in ("stick:0,1,0.5", "stick:0,1,.5e0",
                                                       '{"system":"stick","v":[0,1],"a_target":0.5}')}
    assert len(rows) == 1 and rows.pop()[0] == 0


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
        # non-integers and non-primitive directions
        ["count", "--spec", "golden-mean-h", "--lattice", '{"type":"points","points":[[1.7,0]]}'],
        ["count", "--spec", "full:2.0", "--lattice", "rect:2,2"],
        ["entropy-omega", "--spec", "golden-mean-h", "--system", "stick:2,2,0.5"],
        ["projectional", "--spec", "golden-mean-h", "--v", "2,2"],
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
    spec = tmp_path / "spec.json"
    spec.write_text('{"N": 2, "forbidden": [[[0.5, 0, 1], [1.7, 0, 1]]]}')
    argvs.append(["count", "--spec", str(spec), "--lattice", "rect:2,2"])
    system = tmp_path / "system.json"
    system.write_text('["omega_q", 2]')
    argvs.append(["entropy-omega", "--spec", "golden-mean-h", "--system", str(system)])
    for argv in argvs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv
    # a pair of integers names the form it expects and the text it got
    for option, text, form in (("--table", "3x3x3", "MxN"), ("--table", "3", "MxN"),
                               ("--v", "1", "x,y"), ("--v", "1,2,3", "x,y")):
        command = "entropy-rect" if option == "--table" else "projectional"
        code, out, err = run_cli(capsys, command, "--spec", "golden-mean-h", option, text)
        assert (code, out, err) == (2, "", f"error: expected {form}, got {text!r}\n")
    # a --mode past ext: that is no integer names the mode, not int()
    for mode in ("ext:", "ext:x", "ext:1.5"):
        for argv in (["count", "--spec", "golden-mean-h", "--lattice", "rect:2,2"],
                     ["projectional", "--spec", "golden-mean-h", "--v", "1,0"]):
            code, out, err = run_cli(capsys, *argv, "--mode", mode)
            assert (code, out, err) == (
                2, "", f"error: mode must be 'local' or 'ext:M', got {mode!r}\n"), argv


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


def test_entropy_rect_json_and_plot_bytes(capsys):
    # golden mean along x: the count on m x n is a_m ** n, a = 2, 3, 5
    assert run_cli(capsys, "entropy-rect", "--spec", "golden-mean-h", "--table", "3x3",
                   "--format", "json") == (0, (
        '{"argmin":[3,3],"h_r_estimate":0.5364793041447,"log_counts":'
        '[[0.6931471805599453,1.3862943611198906,2.0794415416798357],'
        '[1.0986122886681098,2.1972245773362196,3.295836866004329],'
        '[1.6094379124341003,3.2188758248682006,4.828313737302301]],'
        '"max_height":3,"max_width":3}\n'), "")
    assert run_cli(capsys, "entropy-rect", "--spec", "golden-mean-h", "--table", "3x3",
                   "--format", "plot") == (0, "1 0.69314718056\n2 0.549306144334\n3 0.536479304145\n", "")


def test_projectional_extendable_mode_bytes(capsys):
    # period forcing keeps 2 patterns of each row segment that extend by 1
    assert run_cli(capsys, "projectional", "--spec", "period-forcing-h", "--v", "1,0",
                   "--n-max", "3", "--mode", "ext:1") == (0, (
        "n,size,log_count,ratio\n"
        "1,1,0.69314718056,0.69314718056\n"
        "2,2,0.69314718056,0.34657359028\n"
        "3,3,0.69314718056,0.231049060187\n"
        "# estimate,0.231049060187,kind,limsup_tail_max\n"), "")


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
    # no hard-square shape fits a diagonal segment: the spec restricted to
    # (1, 1) forbids nothing, so the counts on an n x 1 row are 2**n at every
    # n, however large the segment's bounding box
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


def test_projectional_diagonal_pattern_past_frontier_cap(capsys, tmp_path):
    # the spec restricted to (1, 1) forbids 11 along the segment: golden-mean
    # counts by the axis product on an n x 1 row, not by a 2-D route on the
    # segment's n x n bounding box
    spec = tmp_path / "diag.json"
    spec.write_text('{"N": 2, "forbidden": [[[0,0,1],[1,1,1]]]}')
    code, out, err = run_cli(
        capsys, "projectional", "--spec", str(spec), "--v", "1,1", "--n-max", "30",
        "--format", "json",
    )
    assert code == 0 and err == ""
    fib = [1, 2]   # fib[n]: binary strings of length n with no 11
    for _ in range(30):
        fib.append(fib[-1] + fib[-2])
    records = json.loads(out)["records"]
    assert [r["log_count"] for r in records] == [math.log(fib[n]) for n in range(1, 31)]


def test_count_anywhere_in_the_coordinate_range(capsys, tmp_path):
    # the L-triomino spec goes to brute force, which no longer packs coordinates
    spec = tmp_path / "l3.json"
    spec.write_text('{"N": 2, "forbidden": [[[0,0,1],[1,0,1],[0,1,1]], [[0,0,0],[1,0,0],[2,0,0]]]}')
    for lattice in ("rect:3,3", "rect:3,3,4294967296,0"):
        assert run_cli(capsys, "count", "--spec", str(spec), "--lattice", lattice) == (
            0, "185 local 9\n", "")
    # the dilation by 2 would leave int64: an error, not a count on a wrapped ring
    code, out, err = run_cli(
        capsys, "count", "--spec", "golden-mean-h", "--lattice", "rect:3,1,-9223372036854775808,0",
        "--mode", "ext:2",
    )
    assert code == 2 and out == "" and err.startswith("error:")


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
