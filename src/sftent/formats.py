"""Specs, lattices and systems given as text, by one grammar (:func:`_resolve`).

Text starting with ``{`` is inline JSON.  ``name`` or ``name:a,b,...`` is
shorthand when the name is registered, as is other text with a ``:`` naming
no existing file (an unknown name); the rest is a JSON file path.  Lattice
JSON is ``{"type": "points", "points": [[x, y], ...]}`` or
``{"type": "generator", "name": ..., "params": {...}}``, spec JSON
``{"N": 2, "name": ..., "forbidden": [[[dx, dy, symbol], ...], ...]}`` and
system JSON ``{"system": "omega_q", "q": 2}`` and friends.  Rectangle sides
are ``*``-products of factors c, n, n^k (k >= 0) and b^n (integers c, b).
Integers and reals follow the package's rules, ``sftent.lattice._integer`` and ``_real``.
"""

from __future__ import annotations

import json
import math
import os
import re
from typing import Callable

from .lattice import FiniteLattice, _integer, _pair, _real, rectangle
from .sft import (SftSpec, full_shift, golden_mean_horizontal, golden_mean_vertical,
                  period_forcing_horizontal)
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


# parameter name -> converter for every generator; pairs take two shorthand
# numbers, and a real is a float or an integer
_CONVERT: dict[str, Callable] = {**dict.fromkeys("mnqbN", _integer), "origin": _pair, "v": _pair,
                                 "a_target": _real, "w": str, "h": str}


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


_INT = r"[+-]?\d+(?:_\d+)*"        # a decimal integer as int() reads it


def _shorthand(text: str, registry: dict) -> tuple[str, dict]:
    """'name:a,b,...' -> (name, parameter dict); pair parameters take two numbers."""
    name, _, rest = text.partition(":")
    name = name.strip()
    tokens, params = rest.split(",") if rest else [], {}
    # tokens int() reads as decimal integers become ints, decimal reals floats
    tokens = [int(t) if re.fullmatch(rf"\s*{_INT}\s*", t) else float(t)
              if re.fullmatch(r"\s*[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\s*", t) else t for t in tokens]
    for field in registry[name][1] if name in registry else ():
        if tokens:
            width = 2 if _CONVERT[field] is _pair else 1
            params[field] = tokens[0] if width == 1 else tokens[:2]
            tokens = tokens[width:]
    if tokens:
        params["extra arguments"] = tokens      # rejected by _build
    return name, params


def _resolve(text: str, registry: dict, kind: str, from_dict: Callable):
    """Inline JSON, shorthand from `registry`, or a JSON file read by `from_dict`."""
    if text.lstrip().startswith("{"):
        return from_dict(json.loads(text))
    name, params = _shorthand(text, registry)
    if name in registry or (":" in text and not os.path.exists(text)):
        return _build(registry, kind, name, params)
    with open(text) as fh:
        return from_dict(json.load(fh))


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
        try:
            return FiniteLattice(pts)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    if kind == "generator":
        return _build(_LATTICES, "lattice generator", data.get("name"), data.get("params", {}))
    raise FormatError(f"lattice type must be 'points' or 'generator', got {kind!r}")


def lattice_to_dict(lat: FiniteLattice) -> dict:
    return {"type": "points", "points": [[p.x, p.y] for p in lat]}


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


def spec_from_dict(data: dict) -> SftSpec:
    try:
        forbidden = [[((dx, dy), s) for dx, dy, s in pattern] for pattern in data.get("forbidden", [])]
        return SftSpec.make(data["N"], forbidden, name=str(data.get("name", "")))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed spec: {exc}") from exc


def spec_to_dict(spec: SftSpec) -> dict:
    return {
        "N": spec.alphabet_size,
        "name": spec.name,
        "forbidden": [
            [[p.x, p.y, s] for p, s in pattern.cells] for pattern in spec.forbidden
        ],
    }


# spec name -> (builder, parameters in shorthand order, defaults)
_SPECS: dict[str, tuple] = {
    "golden-mean-h": (golden_mean_horizontal, (), {}),
    "golden-mean-v": (golden_mean_vertical, (), {}),
    "period-forcing-h": (period_forcing_horizontal, (), {}),
    "full": (lambda N: full_shift(N), ("N",), {}),
}


def resolve_spec(text: str) -> SftSpec:
    """A builtin ('golden-mean-h', 'full:N', ...), inline JSON or a spec file."""
    return _resolve(text, _SPECS, "spec", spec_from_dict)


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------


def parse_size_expr(text: str) -> Callable[[int], int]:
    """A size expression as a function of n: a '*'-product of factors, each an
    integer c, n, n^k (k >= 0) or b^n (any integer b)."""
    factors = []                        # (c, k, b): the factor c * n**k * b**n
    for tok in "".join(str(text).split()).split("*"):
        m = re.fullmatch(rf"({_INT})|n|n\^({_INT})|({_INT})\^n", tok)
        if m is None or int(m[2] or 0) < 0:
            raise FormatError(f"size expression factors are c, n, n^k (k >= 0) or b^n, got {tok!r}")
        c, k, b = m.groups()
        factors.append((int(c or 1), 1 if tok == "n" else int(k or 0), int(b or 1)))
    return lambda n: math.prod(c * n ** k * b ** n for c, k, b in factors)


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
    if not isinstance(data, dict):
        raise FormatError(f"a system must be a JSON object, got {data!r}")
    params = {k: v for k, v in data.items() if k != "system"}
    return _build(_SYSTEMS, "system", data.get("system"), params)


def resolve_system(text: str) -> ExpandingSystem:
    """Shorthand like 'squares' / 'omega_q:2', inline JSON or a system file."""
    return _resolve(text, _SYSTEMS, "system", system_from_dict)


def resolve_lattice(text: str) -> FiniteLattice:
    """Shorthand like 'rect:3,2' / 'omega_q:2,2', inline JSON or a lattice file."""
    return _resolve(text, _LATTICES, "lattice generator", lattice_from_dict)
