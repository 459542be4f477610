"""Shift-of-finite-type specifications, finite patterns, local admissibility.

A spec is an alphabet size N plus a finite list of forbidden patterns, each a
symbol assignment on a finite shape.  A pattern on a finite lattice is locally
admissible when no forbidden pattern occurs at any placement of its shape that
lies fully inside the pattern's support.  Placements are read from the
lattice's row runs by :func:`sftent.lattice._placement_runs`, so they hold
for any coordinates in the lattice's range [-2**63, 2**63 - 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import SymbolOutOfRange
from .lattice import FiniteLattice, Point, _cells, _integer, _pair, _placement_runs


@dataclass(frozen=True)
class ForbiddenPattern:
    """A symbol assignment on a finite shape, canonicalised to min x = min y = 0."""

    cells: tuple[tuple[Point, int], ...]

    @staticmethod
    def make(cells: Iterable[tuple[tuple[int, int], int]]) -> "ForbiddenPattern":
        items = [(_pair(p), _integer(s)) for p, s in cells]
        if not items:
            raise ValueError("forbidden pattern must have at least one cell")
        offsets = [p for p, _ in items]
        if len(set(offsets)) != len(offsets):
            raise ValueError("forbidden pattern offsets must be distinct")
        mx = min(x for x, _ in offsets)
        my = min(y for _, y in offsets)
        moved = sorted(
            ((Point(x - mx, y - my), s) for (x, y), s in items),
            key=lambda cs: (cs[0].y, cs[0].x),
        )
        return ForbiddenPattern(tuple(moved))

    @cached_property
    def shape(self) -> FiniteLattice:
        return FiniteLattice([p for p, _ in self.cells])

    @cached_property
    def extent(self) -> tuple[int, int]:
        """(max dx, max dy) over the canonical offsets."""
        return (
            max(p.x for p, _ in self.cells),
            max(p.y for p, _ in self.cells),
        )

    def transpose(self) -> "ForbiddenPattern":
        return ForbiddenPattern.make([((p.y, p.x), s) for p, s in self.cells])


@dataclass(frozen=True)
class SftSpec:
    """Alphabet 0..N-1 plus a deduplicated list of forbidden patterns."""

    alphabet_size: int
    forbidden: tuple[ForbiddenPattern, ...]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "alphabet_size", _integer(self.alphabet_size))
        if self.alphabet_size < 2:
            raise ValueError("alphabet size must be >= 2")
        for pat in self.forbidden:
            for _, s in pat.cells:
                if not 0 <= s < self.alphabet_size:
                    raise SymbolOutOfRange(
                        f"symbol {s} outside alphabet 0..{self.alphabet_size - 1}"
                    )

    @staticmethod
    def make(alphabet_size: int, forbidden: Iterable, name: str = "") -> "SftSpec":
        pats = [p if isinstance(p, ForbiddenPattern) else ForbiddenPattern.make(p) for p in forbidden]
        unique = sorted(set(pats), key=lambda p: p.cells)
        return SftSpec(alphabet_size, tuple(unique), name)

    # -- structural predicates for the counting engines ---------------------

    @cached_property
    def pure_axis(self) -> str | None:
        """'horizontal' / 'vertical' when each forbidden pattern is one cell or
        two adjacent cells along that axis: the axis product's precondition."""
        for axis, name in ((0, "horizontal"), (1, "vertical")):
            if all(p.extent[axis] <= 1 and p.extent[1 - axis] == 0 for p in self.forbidden):
                return name
        return None

    @cached_property
    def forbidden_diameter(self) -> int:
        """Max Chebyshev extent of any forbidden shape (0 for a full shift)."""
        if not self.forbidden:
            return 0
        return max(max(p.extent) for p in self.forbidden)

    @cached_property
    def safe_symbols(self) -> tuple[int, ...]:
        """Symbols that occur in no forbidden pattern (padding with one can
        never complete a forbidden occurrence)."""
        used = {s for p in self.forbidden for _, s in p.cells}
        return tuple(s for s in range(self.alphabet_size) if s not in used)

    def transpose(self) -> "SftSpec":
        return SftSpec.make(
            self.alphabet_size,
            [p.transpose() for p in self.forbidden],
            name=self.name + "^T" if self.name else "",
        )


@dataclass(frozen=True)
class Pattern:
    """A total symbol assignment on a finite support.

    Symbols are stored aligned with the support's canonical point order.
    """

    support: FiniteLattice
    symbols: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(map(_integer, self.symbols)))
        if len(self.symbols) != len(self.support):
            raise ValueError("symbol tuple must match the support size")

    @staticmethod
    def from_dict(assignment: dict) -> "Pattern":
        support = FiniteLattice(assignment.keys())
        return Pattern(support, tuple(assignment[p] for p in support))

    @cached_property
    def _by_point(self) -> dict:
        return {(p.x, p.y): s for p, s in zip(self.support, self.symbols)}

    def symbol(self, point) -> int:
        x, y = point        # looked up by equality, as dict keys are
        return self._by_point[(x, y)]

    def translate(self, v) -> "Pattern":
        moved = self.support.translate(v)
        return Pattern(moved, self.symbols)  # canonical order is translation-invariant

    def transpose(self) -> "Pattern":
        return Pattern.from_dict({(y, x): s for (x, y), s in self._by_point.items()})


@dataclass(frozen=True)
class CountResult:
    """Exact pattern count; `mode` is "extendable" exactly when `margin` is set."""

    value: int
    lattice_size: int
    margin: int | None = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("count cannot be negative")

    @property
    def mode(self) -> str:
        return "local" if self.margin is None else "extendable"


# ---------------------------------------------------------------------------
# builtin specs
# ---------------------------------------------------------------------------


def golden_mean_horizontal() -> SftSpec:
    """Binary spec forbidding two horizontally adjacent 1s."""
    return SftSpec.make(2, [[((0, 0), 1), ((1, 0), 1)]], name="golden-mean-h")


def golden_mean_vertical() -> SftSpec:
    """Binary spec forbidding two vertically adjacent 1s."""
    return SftSpec.make(2, [[((0, 0), 1), ((0, 1), 1)]], name="golden-mean-v")


def full_shift(alphabet_size: int = 2) -> SftSpec:
    """No constraints at all."""
    return SftSpec.make(alphabet_size, [], name=f"full:{alphabet_size}")


def period_forcing_horizontal() -> SftSpec:
    """Binary spec forbidding both 00 and 11 horizontally: rows must alternate."""
    return SftSpec.make(
        2,
        [[((0, 0), 1), ((1, 0), 1)], [((0, 0), 0), ((1, 0), 0)]],
        name="period-forcing-h",
    )


# ---------------------------------------------------------------------------
# placements and admissibility
# ---------------------------------------------------------------------------


def placements(shape: FiniteLattice, lat: FiniteLattice) -> list[Point]:
    """Translation vectors v with shape + v fully inside lat, canonical order;
    like points, vectors lie in [-2**63, 2**63 - 1)."""
    x, y = _cells(_placement_runs(tuple(shape), lat))
    return [Point(*v) for v in zip(x.tolist(), y.tolist())]


def forbidden_occurrences(lat: FiniteLattice, spec: SftSpec):
    """Precompute, per forbidden pattern, the cell-index tuples of each placement.

    Returns (indices, symbols) pairs where `indices` point into the lattice's
    canonical point order, for the admissibility check; the counting engines
    compile their checks once per shape instead.
    """
    index_of = {(p.x, p.y): i for i, p in enumerate(lat)}
    out = []
    for pat in spec.forbidden:
        offsets, syms = zip(*pat.cells)
        x, y = _cells(_placement_runs(offsets, lat))
        out += [(tuple(index_of[(px + vx, py + vy)] for px, py in offsets), syms)
                for vx, vy in zip(x.tolist(), y.tolist())]
    return out


def is_locally_admissible(pattern: Pattern, spec: SftSpec) -> bool:
    """True iff no forbidden pattern occurs fully inside the pattern's support."""
    for s in pattern.symbols:
        if not 0 <= s < spec.alphabet_size:
            raise SymbolOutOfRange(
                f"symbol {s} outside alphabet 0..{spec.alphabet_size - 1}"
            )
    for idx, syms in forbidden_occurrences(pattern.support, spec):
        if all(pattern.symbols[i] == s for i, s in zip(idx, syms)):
            return False
    return True
