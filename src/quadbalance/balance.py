"""Rebuild a Cohen-Macaulay flag complex as a balanced one, h-vector intact.

Pipeline: take the Stanley-Reisner ideal of the input, read off its height g,
build an Artinian quotient of K[x1..xg] containing all g squares whose
Hilbert function is the h-vector, polarize it, and return the complex of the
polarized ideal.  Each polarization class has exactly two members (every
variable's square is present), and coloring both members of class i with
color i+1 is automatically proper: the class pair itself is a non-face.

The two h-vectors are compared as polynomials.  The output complex has g+1
h-entries while the input has depth+1, so when those lengths differ the
shorter vector is read with trailing zeros; the values agree degree by
degree, which is what "the same h-vector" can mean across dimensions.

Every claim is checked, not trusted: flagness and Cohen-Macaulayness of the
input up front, then h-vector equality, properness of the coloring, and
Cohen-Macaulayness of the output before the report is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .covers import height
from .errors import InputError, NotCohenMacaulayError
from .fields import QQ
from .hilbert import HilbertData, poly_mul, poly_trim, one_minus_t_power, window_from_numerator
from .homology import CMCertificate, is_cohen_macaulay
from .lpp import LppTarget, construct_lex_plus_powers
from .monomials import MonomialIdeal, polarize
from .simplicial import (
    SimplicialComplex,
    check_balanced,
    complex_of_ideal,
    h_vector,
    minimal_non_faces,
    stanley_reisner,
)


@dataclass(frozen=True)
class BalanceReport:
    source: SimplicialComplex
    h_source: tuple
    g: int
    artinian: MonomialIdeal
    polarized: MonomialIdeal
    classes: tuple
    result: SimplicialComplex
    coloring: tuple
    h_result: tuple
    cm_source: CMCertificate
    cm_result: CMCertificate
    field_name: str


def _same_h(a, b) -> bool:
    return poly_trim(a) == poly_trim(b)


def balance(
    cx: SimplicialComplex, field=QQ, max_degree: int | None = None
) -> BalanceReport:
    """Balanced Cohen-Macaulay companion of a Cohen-Macaulay flag complex."""
    if cx.is_void():
        raise InputError("the void complex has no h-vector")
    bad = next((m for m in minimal_non_faces(cx) if len(m) != 2), None)
    if bad is not None:
        raise InputError(
            "not a flag complex: minimal non-face "
            f"{{{', '.join(str(v + 1) for v in sorted(bad))}}} has size {len(bad)}"
        )
    cm_source = is_cohen_macaulay(cx, field)
    if not cm_source:
        face, degree, betti = cm_source.witness
        raise NotCohenMacaulayError(
            f"link of {{{', '.join(str(v + 1) for v in face)}}} has reduced homology "
            f"of rank {betti} in degree {degree} over {cm_source.field_name}",
            witness=cm_source.witness,
        )
    h = h_vector(cx)
    ideal = stanley_reisner(cx)
    if ideal.is_zero():
        # full simplex: already balanced, every vertex in its own color class
        trivial = MonomialIdeal(0, ())
        coloring = tuple(range(1, cx.n_vertices + 1))
        verified = check_balanced(cx, coloring)
        if verified is None:
            raise RuntimeError("internal error: simplex coloring rejected")
        return BalanceReport(
            cx, h, 0, trivial, trivial, (), cx, verified, h, cm_source, cm_source, field.name
        )
    g = height(ideal)
    h_poly = poly_trim(h)
    numerator = poly_mul(h_poly, one_minus_t_power(g))
    target = HilbertData(g, window_from_numerator(numerator, g, len(h_poly)), numerator)
    built = construct_lex_plus_powers(LppTarget(g, (2,) * g, target), max_degree)
    if not built.series_equal:
        raise NotCohenMacaulayError(
            f"h-vector {tuple(h)} is not the Hilbert function of any "
            "powers-plus-lex quotient; the input cannot be Cohen-Macaulay"
        )
    polarized, classes = polarize(built.ideal)
    result = complex_of_ideal(polarized)
    coloring = [0] * polarized.n
    for i, cls in enumerate(classes):
        for v in cls:
            coloring[v] = i + 1
    verified = check_balanced(result, tuple(coloring))
    if verified is None:
        raise RuntimeError("internal error: polarization coloring is improper")
    h_result = h_vector(result)
    if not _same_h(h, h_result):
        raise RuntimeError(
            f"internal error: h-vector changed, {tuple(h)} became {tuple(h_result)}"
        )
    cm_result = is_cohen_macaulay(result, field)
    if not cm_result:
        raise RuntimeError("internal error: balanced companion is not Cohen-Macaulay")
    return BalanceReport(
        cx,
        h,
        g,
        built.ideal,
        polarized,
        tuple(classes),
        result,
        verified,
        h_result,
        cm_source,
        cm_result,
        field.name,
    )
