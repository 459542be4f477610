"""One integer rule at every library entry point: Python and numpy integers
pass; bools, floats and strings raise ValueError instead of being truncated.
Reals follow one rule too: ints and floats pass, bools and strings raise."""

import numpy as np
import pytest

from sftent import (
    FiniteLattice,
    ForbiddenPattern,
    NonPrimitiveVector,
    Pattern,
    SftSpec,
    block_decompose,
    block_residue_size,
    condition_report,
    count,
    count_bruteforce,
    count_extendable,
    count_multiplicative,
    count_multiplicative_bruteforce,
    dilate,
    directional_entropy_max,
    enumerate_admissible,
    fiber_decomposition,
    fibonacci,
    golden_mean_horizontal,
    log_count_multiplicative,
    lshape,
    multiplicative_entropy_series,
    omega_q_entropy_series,
    omega_q_golden_mean_count,
    omega_q_plus,
    projectional_entropy,
    rect_entropy_table,
    rect_system,
    rectangle,
    run_length_class,
    squares,
    staircase,
    stick_augmented,
    stick_system,
    strict_gap_check,
    system_entropy,
    verify_block_gluing,
)
from sftent.counting import admissible_extension_exists
from sftent.entropy import segment
from sftent.formats import FormatError, resolve_system
from sftent.lattice import _real, _require_primitive

GM_H = golden_mean_horizontal()
CELL = rectangle((0, 0), 1, 1)
SQUARE = rectangle((0, 0), 7, 7)

# entry point -> (call taking the integer under test, an integer it accepts)
ENTRY_POINTS = {
    "FiniteLattice point": (lambda v: FiniteLattice([(v, 0)]), 3),
    "translate": (lambda v: CELL.translate((0, v)), 3),
    "rectangle origin": (lambda v: rectangle((v, 0), 1, 1), 3),
    "rectangle width": (lambda v: rectangle((0, 0), v, 1), 3),
    "rectangle height": (lambda v: rectangle((0, 0), 1, v), 3),
    "dilate radius": (lambda v: dilate(CELL, v), 3),
    "extendable margin": (lambda v: count_extendable(CELL, GM_H, v), 1),
    "forbidden offset": (lambda v: ForbiddenPattern.make([((v, 0), 1)]), 3),
    "forbidden symbol": (lambda v: ForbiddenPattern.make([((0, 0), v)]), 3),
    "alphabet size": (lambda v: SftSpec.make(v, []), 3),
    "pattern symbol": (lambda v: Pattern(CELL, (v,)), 3),
    "fixed symbol, brute force": (lambda v: count_bruteforce(CELL, GM_H, fixed={(0, 0): v}), 1),
    "fixed symbol, extension": (lambda v: admissible_extension_exists(CELL, GM_H, {(0, 0): v}), 1),
    "budget, count": (lambda v: count(CELL, GM_H, budget=v), 3),
    "budget, brute force": (lambda v: count_bruteforce(CELL, GM_H, budget=v), 3),
    "budget, extendable": (lambda v: count_extendable(CELL, GM_H, 1, budget=v), 3),
    "budget, enumeration": (lambda v: list(enumerate_admissible(CELL, GM_H, budget=v)), 3),
    "budget, extension": (lambda v: admissible_extension_exists(CELL, GM_H, {(0, 0): 1}, budget=v), 3),
    "budget, multiplicative brute force": (lambda v: count_multiplicative_bruteforce(3, 2, budget=v), 8),
    "segment direction": (lambda v: segment((v, 1), 3), 3),
    "primitive direction": (lambda v: _require_primitive((v, 1)), 3),
    "stick direction": (lambda v: stick_augmented(2, (v, 1), 1), 3),
    "stick length": (lambda v: stick_augmented(2, (0, 1), v), 3),
    "stick system direction": (lambda v: stick_system((v, 1), 0.5).lattice(2), 3),
    "lshape n": (lambda v: lshape(v), 3),
    "staircase n": (lambda v: staircase(v), 3),
    "wedge q": (lambda v: omega_q_plus(v, 2), 3),
    "rect system side": (lambda v: rect_system(lambda n: v, lambda n: n).lattice(2), 3),
    "block size": (lambda v: condition_report(squares(), [2, 3], block_sizes=[(v, 1)]), 3),
    "report m_max": (lambda v: condition_report(squares(), [2, 3], m_max=v), 3),
    "block residue k": (lambda v: block_residue_size(SQUARE, v, 2), 3),
    "block residue l": (lambda v: block_residue_size(SQUARE, 2, v), 3),
    "block decomposition k": (lambda v: block_decompose(SQUARE, v, 2), 3),
    "block decomposition l": (lambda v: block_decompose(SQUARE, 2, v), 3),
    "run length class m": (lambda v: run_length_class(SQUARE, "vertical", v), 3),
    "multiplicative n": (lambda v: count_multiplicative(v, 2), 3),
    "multiplicative q": (lambda v: log_count_multiplicative(10, v), 3),
    "wedge count q": (lambda v: omega_q_golden_mean_count(v, 2), 3),
    "wedge count n": (lambda v: omega_q_golden_mean_count(2, v), 3),
    "fibonacci k": (lambda v: fibonacci(v), 3),
    "fiber decomposition n": (lambda v: fiber_decomposition(v, 2), 3),
    "fiber decomposition q": (lambda v: fiber_decomposition(10, v), 3),
    "multiplicative series q": (lambda v: multiplicative_entropy_series(v, 40), 3),
    "multiplicative series terms": (lambda v: multiplicative_entropy_series(2, v), 3),
    "wedge series q": (lambda v: omega_q_entropy_series(v, 40), 3),
    "wedge series terms": (lambda v: omega_q_entropy_series(2, v), 3),
    "multiplicative brute force n": (lambda v: count_multiplicative_bruteforce(v, 2), 3),
    "multiplicative brute force q": (lambda v: count_multiplicative_bruteforce(10, v), 3),
    "gluing window": (lambda v: verify_block_gluing(GM_H, window=v), 3),
    "gluing extent": (lambda v: verify_block_gluing(GM_H, extent=v), 3),
    "rect table width": (lambda v: rect_entropy_table(GM_H, v, 3), 3),
    "rect table height": (lambda v: rect_entropy_table(GM_H, 3, v), 3),
    "strict gap side": (lambda v: strict_gap_check(GM_H, v, 3), 3),
    "system entropy n_lo": (lambda v: system_entropy(GM_H, squares(), v, 4), 3),
    "system entropy n_hi": (lambda v: system_entropy(GM_H, squares(), 2, v), 3),
    "projectional n_max": (lambda v: projectional_entropy(GM_H, (1, 0), v), 3),
    "directional n_max": (lambda v: directional_entropy_max(GM_H, [(1, 0), (0, 1)], v), 3),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", [1.5, True, "3"], ids=["float", "bool", "str"])
def test_non_integers_raise(entry, bad):
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_numpy_integers_pass(entry):
    call, good = ENTRY_POINTS[entry]
    assert call(np.int64(good)) == call(good)


def test_block_sides_must_fit_int64():
    for call in (lambda k, l: block_residue_size(CELL, k, l), lambda k, l: block_decompose(CELL, k, l),
                 lambda k, l: condition_report(squares(), [2], block_sizes=[(k, l)])):
        for k, l in ((2**63, 1), (1, 2**64), (0, 1)):
            with pytest.raises(ValueError, match="block sides"):
                call(k, l)
    # the largest sides hold no block of a small lattice, and cost nothing
    assert block_residue_size(SQUARE, 2**63 - 1, 2**63 - 1) == 49
    assert block_decompose(SQUARE, 1, 2**63 - 1).beta == 49


def test_budgets_are_integers():
    # a float budget once passed as a number, and a string one raised TypeError
    with pytest.raises(ValueError, match="expected an integer, got 1e\\+30"):
        count_bruteforce(rectangle((0, 0), 3, 3), GM_H, budget=1e30)
    with pytest.raises(ValueError, match="expected an integer, got '100'"):
        admissible_extension_exists(SQUARE, GM_H, {(0, 0): 1}, budget="100")
    assert count_bruteforce(rectangle((0, 0), 3, 3), GM_H, budget=2**9).value == 125


def test_float_point_array_raises():
    with pytest.raises(ValueError):
        FiniteLattice(np.array([[1.7, 0.0]]))
    assert FiniteLattice(np.array([[1, 0]], dtype=np.int32)) == FiniteLattice([(1, 0)])


def test_brute_force_and_extension_agree_on_a_half_symbol():
    # at the parent brute force counted 0 here while the extension search said True
    for call in (lambda f: count_bruteforce(CELL, GM_H, fixed=f),
                 lambda f: admissible_extension_exists(CELL, GM_H, f)):
        with pytest.raises(ValueError, match="expected an integer, got 0.5"):
            call({(0, 0): 0.5})


def test_membership_compares_points():
    rect = rectangle((0, 0), 2, 1)
    assert (1.5, 0) not in rect
    assert (1.0, 0.0) in rect and (np.int64(1), 0) in rect
    pattern = Pattern(rect, (0, 1))
    assert pattern.symbol((1.0, 0)) == 1
    with pytest.raises(KeyError):
        pattern.symbol((1.9, 0))
    # float keys still pin the cell they equal
    assert count_bruteforce(rect, GM_H, fixed={(1.0, 0.0): 1}).value == 1


def test_one_primitive_direction_check():
    for call in (lambda v: stick_augmented(2, v, 1), lambda v: stick_system(v, 0.5),
                 lambda v: directional_entropy_max(GM_H, [(1, 0), v], 4)):
        for v in [(2, 2), (0, 0), (0, 3)]:
            with pytest.raises(NonPrimitiveVector):
                call(v)
    assert issubclass(NonPrimitiveVector, ValueError)


def test_one_real_rule():
    # ints and floats (numpy ones too) pass as floats; bools, strings and
    # ints past the float range raise, in the library as in JSON input
    for good in (0.5, 1, np.float64(0.25), np.float32(0.5), np.int64(1)):
        assert _real(good) == float(good) and type(_real(good)) is float
    for bad in (True, False, np.bool_(True), "0.5", None, 10 ** 400):
        with pytest.raises(ValueError, match="expected a real number"):
            _real(bad)
        with pytest.raises(ValueError):
            stick_system((0, 1), bad)
    for text in ("true", '"0.5"', "null", "1" + "0" * 400):
        with pytest.raises(FormatError):
            resolve_system(f'{{"system": "stick", "v": [0, 1], "a_target": {text}}}')
    assert stick_system((0, 1), 1).lattice(3) == stick_system((0, 1), 1.0).lattice(3)
