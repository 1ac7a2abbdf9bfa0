"""Rebuild a Cohen-Macaulay flag complex as a balanced one, h-vector intact.

Pipeline: read off the height g of the input's Stanley-Reisner ideal,
build an Artinian quotient of K[x1..xg] containing all g squares whose
Hilbert function is the h-vector (series numerator h(t)(1-t)^g over
(1-t)^g), polarize it, and return the complex of the polarized ideal.  The
minimal primes of the Stanley-Reisner ideal are the complements of the
facets (Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 1.7), so
g = n - dim - 1 and no ideal is built to find it.  Each polarization class
has exactly two members (every variable's square is present), and coloring
both members of class i with color i+1 is automatically proper: the class
pair itself is a non-face.

The two h-vectors are compared as polynomials.  The output complex has g+1
h-entries while the input has depth+1, so when those lengths differ the
shorter vector is read with trailing zeros; the values agree degree by
degree, which is what "the same h-vector" can mean across dimensions.

The output is Cohen-Macaulay over every field by construction, so it is
not tested: the Artinian quotient is, and so is its polarization, which
reduces to it modulo a regular sequence of variable differences
(Herzog-Hibi, Monomial Ideals, GTM 260, Sec. 1.6).  The link test counts
every face of a Cohen-Macaulay complex, the empty face included, so the
output's certificate is (True, field, sum of the f-vector).  Everything
else is checked, not trusted: flagness and Cohen-Macaulayness of the
input up front, then h-vector equality and properness of the coloring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, NotCohenMacaulayError, UnattainableTargetError
from .fields import QQ
from .hilbert import one_minus_t_power, poly_mul, poly_trim
from .homology import CMCertificate, is_cohen_macaulay
from .lpp import construct_lex_plus_powers
from .monomials import MonomialIdeal, polarize
from .simplicial import (
    SimplicialComplex,
    check_balanced,
    complex_of_ideal,
    f_vector,
    h_vector,
    minimal_non_faces,
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


def balance(cx: SimplicialComplex, field=QQ, max_degree: int | None = None) -> BalanceReport:
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
    g = cx.n_vertices - cx.dim - 1
    if g == 0:
        # full simplex: already balanced, every vertex in its own color class
        trivial = MonomialIdeal(0, ())
        coloring = tuple(range(1, cx.n_vertices + 1))
        verified = check_balanced(cx, coloring)
        if verified is None:
            raise RuntimeError("internal error: simplex coloring rejected")
        return BalanceReport(
            cx, h, 0, trivial, trivial, (), cx, verified, h, cm_source, cm_source, field.name
        )
    numerator = poly_mul(h, one_minus_t_power(g))
    built = construct_lex_plus_powers(g, g, numerator, max_degree)
    if not built.series_equal:
        raise UnattainableTargetError(
            f"no powers-plus-lex quotient matched the h-vector {tuple(h)} "
            f"within degree {built.top_degree}"
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
    cm_result = CMCertificate(True, field.name, sum(f_vector(result)))
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
