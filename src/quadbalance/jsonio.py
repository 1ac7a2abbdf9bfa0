"""JSON parsing and formatting at the package boundary.

Vertices and variables are 1-based in every JSON document and error message
here; everything behind this module is 0-based.  Three input shapes are
accepted and told apart by their keys: a monomial ideal ("n"/"generators"),
a simplicial complex ("vertices"/"facets"), and a graph ("vertices"/"edges")
which is read as its independence complex.
"""

from __future__ import annotations

import json

from .errors import InputError
from .monomials import MonomialIdeal
from .simplicial import SimplicialComplex, independence_complex


def parse_json_text(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"bad JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (RecursionError, ValueError) as exc:
        # nesting too deep for the decoder, or an integer literal longer
        # than the interpreter converts
        raise InputError(f"bad JSON: {exc}") from exc


def _require(obj: dict, key: str, kind: str):
    if key not in obj:
        raise InputError(f'{kind} JSON needs the key "{key}"')
    return obj[key]


# the most variables ("n") or vertices an input may declare; every exact
# computation here is exponential long before this, and the cap keeps a
# tiny file from asking for an n-sized allocation per generator or facet
MAX_VARIABLES = 1000


def _count(obj: dict, key: str, kind: str, minimum: int) -> int:
    value = _require(obj, key, kind)
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or not minimum <= value <= MAX_VARIABLES
    ):
        raise InputError(f'"{key}" must be an integer in {minimum}..{MAX_VARIABLES}')
    return value


def ideal_from_obj(obj: dict) -> MonomialIdeal:
    n = _count(obj, "n", "ideal", 1)
    gens = _require(obj, "generators", "ideal")
    if not isinstance(gens, list) or any(not isinstance(s, str) for s in gens):
        raise InputError('"generators" must be a list of monomial strings')
    return MonomialIdeal.from_strings(n, gens)


def _vertex_list(raw, n: int, what: str) -> tuple:
    if not isinstance(raw, list) or any(
        not isinstance(v, int) or isinstance(v, bool) for v in raw
    ):
        raise InputError(f"{what} must be a list of integers, got {raw!r}")
    for v in raw:
        if not 1 <= v <= n:
            raise InputError(f"vertex {v} in {what} is out of range 1..{n}")
    if len(set(raw)) != len(raw):
        raise InputError(f"{what} repeats a vertex")
    return tuple(v - 1 for v in raw)


def complex_from_obj(obj: dict) -> SimplicialComplex:
    n = _count(obj, "vertices", "complex", 0)
    facets = _require(obj, "facets", "complex")
    if not isinstance(facets, list):
        raise InputError('"facets" must be a list of vertex lists')
    faces = [
        frozenset(_vertex_list(f, n, f"facet {i + 1}")) for i, f in enumerate(facets)
    ]
    return SimplicialComplex.from_faces(n, faces)


def graph_complex_from_obj(obj: dict) -> SimplicialComplex:
    n = _count(obj, "vertices", "graph", 0)
    edges = _require(obj, "edges", "graph")
    if not isinstance(edges, list):
        raise InputError('"edges" must be a list of vertex pairs')
    pairs = []
    for i, e in enumerate(edges):
        pair = _vertex_list(e, n, f"edge {i + 1}")
        if len(pair) != 2:
            raise InputError(f"edge {i + 1} must have exactly two endpoints")
        pairs.append(pair)
    return independence_complex(n, pairs)


def load_input_obj(obj):
    """Detect the input shape; returns ("ideal", MonomialIdeal) or ("complex", ...)."""
    if not isinstance(obj, dict):
        raise InputError("the top-level JSON value must be an object")
    if "facets" in obj:
        return "complex", complex_from_obj(obj)
    if "edges" in obj:
        return "complex", graph_complex_from_obj(obj)
    if "generators" in obj:
        return "ideal", ideal_from_obj(obj)
    raise InputError(
        'cannot tell what this is: expected "facets" (complex), '
        '"edges" (graph), or "generators" (ideal)'
    )


def ideal_to_obj(ideal: MonomialIdeal) -> dict:
    return {"n": ideal.n, "generators": ideal.generator_strings()}


def complex_to_obj(cx: SimplicialComplex) -> dict:
    return {
        "vertices": cx.n_vertices,
        "facets": sorted(sorted(v + 1 for v in f) for f in cx.facets),
    }


def canonical_json(obj) -> str:
    """One canonical byte representation per report: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
