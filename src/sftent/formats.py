"""File formats: lattice literals, spec files, system descriptions.

Lattice files are JSON: either an explicit point list
``{"type": "points", "points": [[x, y], ...]}`` or a named generator
``{"type": "generator", "name": ..., "params": {...}}``.  Spec files are
``{"N": 2, "name": ..., "forbidden": [[[dx, dy, symbol], ...], ...]}``.
System descriptions are ``{"system": "omega_q", "q": 2}`` and friends, with
rectangle sides given in a small expression grammar over n (integer
constants, n, n^2, 2^n, and products thereof).
"""

from __future__ import annotations

import json
import re
from typing import Callable

from .lattice import FiniteLattice, rectangle
from .sft import BUILTIN_SPECS, SftSpec, full_shift
from .systems import (
    ExpandingSystem,
    lshape,
    lshape_system,
    omega_q,
    omega_q_plus,
    omega_q_system,
    rect_system,
    squares,
    staircase,
    staircase_system,
    stick_augmented,
    stick_system,
)


class FormatError(ValueError):
    """Malformed lattice/spec/system description."""


def real_text(x: float) -> str:
    """A real as sftent prints it: 12 significant digits."""
    return format(x, ".12g")


# ---------------------------------------------------------------------------
# named generators: shorthand and JSON parse to one parameter dict
# ---------------------------------------------------------------------------


def _integer(value) -> int:
    """A JSON integer; bools, floats, strings and the rest raise FormatError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise FormatError(f"expected an integer, got {value!r}")


def _pair(value) -> tuple[int, int]:
    try:
        x, y = value
        return _integer(x), _integer(y)
    except (TypeError, ValueError):
        raise FormatError(f"expected a pair of integers, got {value!r}") from None


# parameter name -> converter for every generator; pairs take two shorthand
# numbers, and a real is a float or an integer
_CONVERT: dict[str, Callable] = {**dict.fromkeys("mnqb", _integer), "origin": _pair, "v": _pair,
                                 "a_target": lambda v: v if isinstance(v, float) else float(_integer(v)),
                                 "w": str, "h": str}


def _build(registry: dict, kind: str, name, params: dict):
    """Build `name` from `registry` out of its parameter dict (shorthand or JSON)."""
    if not isinstance(name, str) or name not in registry:
        raise FormatError(f"unknown {kind} {name!r}")
    build, fields, defaults = registry[name]
    try:
        args = {f: _CONVERT[f](params[f]) if f in params else defaults[f] for f in fields}
        ok = set(params) <= set(fields)
    except (KeyError, TypeError, ValueError):
        ok = False
    if not ok:
        raise FormatError(f"{kind} {name!r} takes ({', '.join(fields)}), got {params!r}")
    return build(**args)


def _shorthand(text: str, registry: dict) -> tuple[str, dict]:
    """'name:a,b,...' -> (name, parameter dict); pair parameters take two numbers."""
    name, _, rest = text.partition(":")
    tokens, params = rest.split(",") if rest else [], {}
    # tokens int() reads as decimal integers become ints, decimal reals floats
    tokens = [int(t) if re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", t) else float(t)
              if re.fullmatch(r"\s*[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\s*", t) else t for t in tokens]
    for field in registry[name][1] if name in registry else ():
        if tokens:
            width = 2 if _CONVERT[field] is _pair else 1
            params[field] = tokens[0] if width == 1 else tokens[:2]
            tokens = tokens[width:]
    if tokens:
        params["extra arguments"] = tokens      # rejected by _build
    return name, params


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

# generator name -> (builder, parameters in shorthand order, defaults)
_LATTICES: dict[str, tuple] = {
    "rect": (lambda m, n, origin: rectangle(origin, m, n), ("m", "n", "origin"), {"origin": (0, 0)}),
    "omega_q": (omega_q, ("q", "n"), {}),
    "omega_q_plus": (omega_q_plus, ("q", "n"), {}),
    "lshape": (lshape, ("n",), {}),
    "staircase": (staircase, ("n",), {}),
    "stick": (stick_augmented, ("n", "v", "b"), {"v": (0, 1)}),
}


def lattice_from_dict(data: dict) -> FiniteLattice:
    if not isinstance(data, dict):
        raise FormatError(f"a lattice must be a JSON object, got {data!r}")
    kind = data.get("type")
    if kind == "points":
        pts = data.get("points")
        if not isinstance(pts, (list, tuple)):
            raise FormatError(f"lattice 'points' must be a list of integer pairs, got {pts!r}")
        return FiniteLattice([_pair(p) for p in pts])
    if kind == "generator":
        return _build(_LATTICES, "lattice generator", data.get("name"), data.get("params", {}))
    raise FormatError(f"lattice type must be 'points' or 'generator', got {kind!r}")


def lattice_to_dict(lat: FiniteLattice) -> dict:
    return {"type": "points", "points": [[p.x, p.y] for p in lat]}


def load_lattice(path: str) -> FiniteLattice:
    with open(path) as fh:
        return lattice_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


def spec_from_dict(data: dict) -> SftSpec:
    try:
        n = _integer(data["N"])
        forbidden = [
            [((_integer(dx), _integer(dy)), _integer(sym)) for dx, dy, sym in pattern]
            for pattern in data.get("forbidden", [])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed spec: {exc}") from exc
    return SftSpec.make(n, forbidden, name=str(data.get("name", "")))


def spec_to_dict(spec: SftSpec) -> dict:
    return {
        "N": spec.alphabet_size,
        "name": spec.name,
        "forbidden": [
            [[p.x, p.y, s] for p, s in pattern.cells] for pattern in spec.forbidden
        ],
    }


def load_spec(path: str) -> SftSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))


def resolve_spec(text: str) -> SftSpec:
    """Builtin name ('golden-mean-h', 'full:N', ...) or a spec file path."""
    if text in BUILTIN_SPECS:
        return BUILTIN_SPECS[text]()
    if text.startswith("full:"):
        return full_shift(int(text.split(":", 1)[1]))
    return load_spec(text)


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------


def parse_size_expr(text: str) -> Callable[[int], int]:
    """Tiny grammar: products of integer constants, n, n^k, and 2^n."""
    factors = str(text).replace(" ", "").split("*")

    def parse_factor(tok: str) -> Callable[[int], int]:
        if tok == "n":
            return lambda n: n
        if "^" in tok:
            base, exp = tok.split("^", 1)
            if base == "n":
                k = int(exp)
                if k < 0:
                    raise FormatError(f"size expression exponents must be >= 0, got {tok!r}")
                return lambda n: n ** k
            if exp == "n":
                b = int(base)
                return lambda n: b ** n
            raise FormatError(f"unsupported size expression factor {tok!r}")
        try:
            c = int(tok)
        except ValueError as exc:
            raise FormatError(f"unsupported size expression factor {tok!r}") from exc
        return lambda n: c

    parsed = [parse_factor(tok) for tok in factors]

    def evaluate(n: int) -> int:
        out = 1
        for f in parsed:
            out *= f(n)
        return out

    return evaluate


# system name -> (builder, parameters in shorthand order, defaults)
_SYSTEMS: dict[str, tuple] = {
    "squares": (squares, (), {}),
    "omega_q": (omega_q_system, ("q",), {}),
    "lshape": (lshape_system, (), {}),
    "staircase": (staircase_system, (), {}),
    "stick": (stick_system, ("v", "a_target"), {"v": (0, 1)}),
    "rect": (lambda w, h: rect_system(parse_size_expr(w), parse_size_expr(h), name=f"rect:{w}x{h}"),
             ("w", "h"), {}),
}


def system_from_dict(data: dict) -> ExpandingSystem:
    params = {k: v for k, v in data.items() if k != "system"}
    return _build(_SYSTEMS, "system", data.get("system"), params)


def resolve_system(text: str) -> ExpandingSystem:
    """JSON object string, or shorthand like 'squares' / 'omega_q:2'."""
    text = text.strip()
    if text.startswith("{"):
        return system_from_dict(json.loads(text))
    name, params = _shorthand(text, _SYSTEMS)
    return system_from_dict({"system": name, **params})


def resolve_lattice(text: str) -> FiniteLattice:
    """Shorthand like 'rect:3,2' / 'omega_q:2,2', or a lattice file path."""
    if ":" in text:
        name, params = _shorthand(text, _LATTICES)
        return lattice_from_dict({"type": "generator", "name": name, "params": params})
    return load_lattice(text)
