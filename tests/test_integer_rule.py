"""One integer rule at every library entry point: Python and numpy integers
pass; bools, floats and strings raise ValueError instead of being truncated."""

import numpy as np
import pytest

from sftent import (
    FiniteLattice,
    ForbiddenPattern,
    NonPrimitiveVector,
    Pattern,
    SftSpec,
    condition_report,
    count_bruteforce,
    count_extendable,
    count_multiplicative,
    dilate,
    directional_entropy_max,
    golden_mean_horizontal,
    log_count_multiplicative,
    omega_q_golden_mean_count,
    omega_q_plus,
    rect_system,
    rectangle,
    squares,
    stick_augmented,
    stick_system,
    verify_block_gluing,
)
from sftent.counting import admissible_extension_exists
from sftent.entropy import segment
from sftent.lattice import _require_primitive

GM_H = golden_mean_horizontal()
CELL = rectangle((0, 0), 1, 1)

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
    "segment direction": (lambda v: segment((v, 1), 3), 3),
    "primitive direction": (lambda v: _require_primitive((v, 1)), 3),
    "stick direction": (lambda v: stick_augmented(2, (v, 1), 1), 3),
    "stick length": (lambda v: stick_augmented(2, (0, 1), v), 3),
    "stick system direction": (lambda v: stick_system((v, 1), 0.5).lattice(2), 3),
    "wedge q": (lambda v: omega_q_plus(v, 2), 3),
    "rect system side": (lambda v: rect_system(lambda n: v, lambda n: n).lattice(2), 3),
    "block size": (lambda v: condition_report(squares(), [2, 3], block_sizes=[(v, 1)]), 3),
    "multiplicative n": (lambda v: count_multiplicative(v, 2), 3),
    "multiplicative q": (lambda v: log_count_multiplicative(10, v), 3),
    "wedge count q": (lambda v: omega_q_golden_mean_count(v, 2), 3),
    "gluing window": (lambda v: verify_block_gluing(GM_H, window=v), 3),
    "gluing extent": (lambda v: verify_block_gluing(GM_H, extent=v), 3),
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
