"""Report dictionaries for the command-line subcommands, and their recheck.

Every report is a plain dict of JSON scalars carrying a "kind" tag and a
full echo of its input, so it can be re-derived from the JSON alone.
``verify_report`` does exactly that: it reruns the cheap validity checks
(memberships, ranks, series and h-vector equalities, coloring properness,
Cohen-Macaulayness) and then demands byte-identical reproduction of the
whole report.  The computations are deterministic, so reproduction catches
tampering even when the tampered value would still be mathematically valid,
e.g. a coefficient replaced by another workable one or a reseeded run.

``verify egh`` rebuilds the companion once, before its checks, and compares
the stated generator list with the rebuilt strings.  A list equal to them is
checked on the rebuilt exponent tuples, which are what it parses to; only a
list that differs is parsed, string by string, with the parser's messages.
The rebuild stops once it holds more picks than the stated list has
generators (past a small floor), so a short forged list bounds its work.

``verify balance`` runs the link test on the source, and on the stated
result only where the polarization check has not settled it: a result that
check ties to an Artinian ideal in g >= 1 variables is Cohen-Macaulay by
the theorem ``balance`` relies on, so its ``cm_result`` check reads the
stated flag.
"""

from __future__ import annotations

from .balance import balance
from .covers import is_minimal_prime, smallest_minimal_prime
from .errors import (
    InputError,
    NotCohenMacaulayError,
    RegularSequenceNotFoundError,
    UnattainableTargetError,
)
from .fields import parse_field_spec
from .hilbert import _stable_numerator, pole_order, poly_trim, series_numerator
from .homology import depth_and_pd, is_cohen_macaulay
from .jsonio import canonical_json, complex_from_obj, complex_to_obj, ideal_from_obj, ideal_to_obj
from .lpp import _ZERO_SOURCE, egh_for_quadratic, missing_square
from .monomials import MonomialIdeal, _require_quadratic, parse_monomial, polarize
from .regseq import (MAX_PRIME_SIZE, certify_transversal_ranks, find_regular_sequence,
                     product_outside_ideal)
from .simplicial import (
    SimplicialComplex,
    check_balanced,
    complex_of_ideal,
    f_vector,
    h_vector,
    is_flag,
)


# regseq seeds a report may carry; the CLI accepts the same range
SEED_RANGE = (0, 2**64)


def field_spec_name(field) -> str:
    """The --field spelling of a coefficient field: "q" or "p:<prime>"."""
    return "q" if field.name == "Q" else f"p:{field.p}"


def _get(obj: dict, key: str):
    if not isinstance(obj, dict):
        raise InputError(f'expected a JSON object holding "{key}", got {type(obj).__name__}')
    if key not in obj:
        raise InputError(f'report is missing the key "{key}"')
    return obj[key]


def _typed(obj: dict, key: str, kind: type, what: str):
    value = _get(obj, key)
    if not isinstance(value, kind):
        raise InputError(f'"{key}" must be {what}, got {type(value).__name__}')
    return value


def _witness_obj(witness):
    if witness is None:
        return None
    face, degree, betti = witness
    return {"face": [v + 1 for v in face], "degree": degree, "betti": betti}


def _cm_obj(cert) -> dict:
    return {"cm": bool(cert), "faces_checked": cert.faces_checked}


# ---------------------------------------------------------------------------
# builders


def analyze_report(cx: SimplicialComplex, field) -> dict:
    if cx.is_void():
        raise InputError("the void complex has nothing to analyze")
    cert = is_cohen_macaulay(cx, field)
    return {
        "kind": "analyze",
        "field": field_spec_name(field),
        "complex": complex_to_obj(cx),
        "dim": cx.dim,
        "f_vector": list(f_vector(cx)),
        "h_vector": list(h_vector(cx)),
        "height": cx.n_vertices - cx.dim - 1,
        "flag": is_flag(cx),
        "cm": bool(cert),
        "faces_checked": cert.faces_checked,
        "cm_witness": _witness_obj(cert.witness),
    }


def regseq_report(ideal: MonomialIdeal, field, seed: int, prime=None) -> dict:
    cert = find_regular_sequence(ideal, seed=seed, field=field, prime=prime)
    forms = []
    for p, form in zip(cert.prime, cert.forms):
        coefficients = {f"x{v + 1}": int(c) for v, c in enumerate(form) if c}
        forms.append({"times_variable": p + 1, "coefficients": coefficients})
    return {
        "kind": "regseq",
        "field": field_spec_name(field),
        "ideal": ideal_to_obj(ideal),
        "seed": seed,
        "prime": [p + 1 for p in cert.prime],
        "forms": forms,
        "subsets_checked": cert.subsets_checked,
        "attempts": cert.attempts,
    }


def _result_pd(companion: MonomialIdeal, budget):
    """pd of the companion the walk built, read off its generators: None
    when its polarized support exceeds the budget, as ``depth_and_pd``
    would refuse it, else m over every field, the largest 1-based index of
    a variable dividing a minimal generator.

    The walk's I contains Q = (x1^2, ..., xg^2), and in each degree its
    image in A = S/Q is a lex segment (see ``lpp``): for u in I nonzero in
    A, x_i dividing u and j < i, x_j u / x_i is lex above u, so it is in I
    unless it is 0 in A, that is in Q (Eliahou-Kervaire, J. Algebra 129,
    1990, with the squares of Mermin-Peeva-Stillman, Adv. Math. 217,
    2008).  Some minimal generator divides x_g^2, so m >= g.  No variable
    past x_m divides a generator, so x_{m+1}, ..., x_n is a regular
    sequence on S/I and depth S/I = (n - m) + depth R, with
    R = k[x1..xm]/(I n k[x1..xm]).
    If m = g, every x_i^2 of R is in I, so R is Artinian and depth R = 0.
    If m > g, take a minimal generator u divisible by x_m, so no square of
    Q divides it and it is nonzero in A, and w = u/x_m.  No generator
    divides w, as u is minimal, so w is nonzero in R, while x_m w = u and,
    for j < m, x_j w = x_j u / x_m lie in I.  So w spans socle in R and
    depth R = 0 again.  pd S/I = m by Auslander-Buchsbaum.

    The argument needs the walk's lex segments, so a stated list never
    comes here.  The budget keeps ``"pd_result": null`` where the Hochster
    walk would have been refused, so the bytes do not depend on the method.
    """
    tops = list(map(max, zip(*companion.generators)))
    if sum(tops) > budget:
        return None
    return max((v for v, top in enumerate(tops, 1) if top), default=0)


def egh_report(ideal: MonomialIdeal, field, max_degree=None, budget: int = 16) -> dict:
    _require_quadratic(ideal, _ZERO_SOURCE)  # then the budget, then the walk
    pd_source = depth_and_pd(ideal, field, budget)[1]
    rep = egh_for_quadratic(ideal, max_degree)
    return _egh_obj(ideal, field, rep, rep.ideal.generator_strings(), pd_source, budget)


def _egh_obj(ideal: MonomialIdeal, field, rep, generators: list, pd_source, budget) -> dict:
    return {
        "kind": "egh",
        "field": field_spec_name(field),
        "ideal": ideal_to_obj(ideal),
        "powers": rep.g,
        "generators": generators,
        "series_equal": rep.series_equal,
        "picked_by_degree": {str(d): c for d, c in sorted(rep.picked_by_degree.items())},
        "pd_source": pd_source,
        # a minimal generator of degree D polarizes to D variables, so past
        # the budget in degree the support is too, and _result_pd's zip of
        # every column is skipped
        "pd_result": None if rep.top_degree > budget else _result_pd(rep.ideal, budget),
    }


def balance_report(cx: SimplicialComplex, field, max_degree=None) -> dict:
    rep = balance(cx, field, max_degree)
    return {
        "kind": "balance",
        "field": field_spec_name(field),
        "complex": complex_to_obj(rep.source),
        "h_source": list(rep.h_source),
        "g": rep.g,
        "artinian_ideal": ideal_to_obj(rep.artinian),
        "polarized_ideal": ideal_to_obj(rep.polarized),
        "classes": [[v + 1 for v in cls] for cls in rep.classes],
        "result": complex_to_obj(rep.result),
        "coloring": list(rep.coloring),
        "h_result": list(rep.h_result),
        "cm_source": _cm_obj(rep.cm_source),
        "cm_result": _cm_obj(rep.cm_result),
    }


# ---------------------------------------------------------------------------
# verification

_CAUGHT = (InputError, NotCohenMacaulayError, UnattainableTargetError,
           RegularSequenceNotFoundError, RuntimeError)

# the stable-ideal checks cost more than the reproduction they would back
# up on a long list; past this many generators verify leans on reproduction
_SERIES_RECHECK_CAP = 3000
# verify's companion rebuild may hold this many exponent entries (picks
# times n) whatever the stated list's length: a list refused within it still
# gets the reproduction's full list of differing keys
_REBUILD_FLOOR = 2**18
_SERIES_DIFFER = "Hilbert series of source and result differ"
_NOT_STABLE = (
    "the result is not the minimal generating set of a stable ideal containing "
    "the squares; series not rechecked"
)


class _Checker:
    def __init__(self):
        self.failures: list = []
        self.names: list = []

    def run(self, name: str, fn):
        self.names.append(name)
        try:
            ok, detail = fn()
        except _CAUGHT as exc:
            ok, detail = False, str(exc)
        if not ok:
            self.failures.append({"check": name, "detail": detail})


def _same_report(given: dict, rebuilt: dict):
    if canonical_json(given) == canonical_json(rebuilt):
        return True, ""
    differing = sorted(
        k
        for k in set(given) | set(rebuilt)
        if canonical_json(given.get(k)) != canonical_json(rebuilt.get(k))
    )
    return False, f"re-derivation differs in: {', '.join(differing)}"


def _parse_forms(obj: dict, n: int, prime0) -> tuple:
    raw = _get(obj, "forms")
    if not isinstance(raw, list) or len(raw) != len(prime0):
        raise InputError("need exactly one form per prime position")
    index = {f"x{v + 1}": v for v in range(n)}
    forms = []
    for j, entry in enumerate(raw):
        if _get(entry, "times_variable") != prime0[j] + 1:
            raise InputError(
                f"form {j + 1} multiplies x{entry.get('times_variable')}, "
                f"expected x{prime0[j] + 1}"
            )
        coeffs = [0] * n
        for name, value in _typed(entry, "coefficients", dict, "an object").items():
            if name not in index:
                raise InputError(f"bad coefficient key {name!r}")
            if not isinstance(value, int) or isinstance(value, bool):
                raise InputError(f"coefficient {name} must be an integer")
            coeffs[index[name]] = value
        forms.append(tuple(coeffs))
    return tuple(forms)


def _verify_regseq(obj: dict, checker: _Checker, budget, max_degree):
    ideal = ideal_from_obj(_get(obj, "ideal"))
    field = parse_field_spec(str(_get(obj, "field")))
    raw_prime = _get(obj, "prime")
    if (
        not isinstance(raw_prime, list)
        or any(not isinstance(p, int) or isinstance(p, bool) for p in raw_prime)
        or any(not 1 <= p <= ideal.n for p in raw_prime)
        or len(set(raw_prime)) != len(raw_prime)
    ):
        raise InputError('"prime" must list distinct 1-based variable indices')
    seed = _int_field(obj, "seed", *SEED_RANGE)
    prime0 = tuple(p - 1 for p in raw_prime)
    forms = _parse_forms(obj, ideal.n, prime0)
    g = len(prime0)

    def height_check():
        prime = frozenset() if ideal.is_zero() else smallest_minimal_prime(ideal, MAX_PRIME_SIZE)
        if prime is None:
            return False, f"the height exceeds the hard cap g <= {MAX_PRIME_SIZE}"
        return g == len(prime), f"prime has size {g}, height is {len(prime)}"

    checker.run("height", height_check)
    checker.run(
        "minimal_prime",
        lambda: (
            is_minimal_prime(ideal, prime0),
            "the stated prime is not a minimal prime of the ideal",
        ),
    )

    def membership():
        escaped = product_outside_ideal(ideal, prime0, forms, field)
        if escaped is None:
            return True, ""
        p, v = escaped
        return False, f"x{p + 1}*x{v + 1} is outside the ideal"

    checker.run("membership", membership)

    def ranks():
        cert = certify_transversal_ranks(prime0, forms, field)
        if not cert.ok:
            subset = [prime0[j] + 1 for j in cert.failing_subset]
            return False, f"rank deficient at subset A = {subset}"
        if cert.subsets_checked != _get(obj, "subsets_checked"):
            return False, (
                f"checked {cert.subsets_checked} subsets, "
                f"report claims {obj['subsets_checked']}"
            )
        return True, ""

    checker.run("ranks", ranks)
    checker.run(
        "reproduction",
        lambda: _same_report(obj, regseq_report(ideal, field, seed, prime=prime0)),
    )


def _int_field(obj: dict, key: str, low: int, high: int) -> int:
    value = _get(obj, key)
    if not isinstance(value, int) or isinstance(value, bool) or not low <= value <= high:
        raise InputError(f'"{key}" must be an integer in {low}..{high}, got {value!r}')
    return value


def _verify_egh(obj: dict, checker: _Checker, budget, max_degree):
    ideal = ideal_from_obj(_get(obj, "ideal"))
    field = parse_field_spec(str(_get(obj, "field")))
    g = _int_field(obj, "powers", 0, ideal.n)
    raw = _typed(obj, "generators", list, "a list of monomial strings")
    # the series and reproduction checks share one companion build, and its
    # strings are formatted once; a build that fails leaves its message for
    # them to report.  A companion with more picks than the stated list has
    # generators cannot equal it, so the build stops there, or at the floor
    # if that is later
    picks = max(len(raw), _REBUILD_FLOOR // max(ideal.n, 1))
    companion = rebuilt = unbuilt = None
    try:
        companion = egh_for_quadratic(ideal, max_degree, picks)
        rebuilt = companion.ideal.generator_strings()
    except _CAUGHT as exc:
        unbuilt = str(exc)
    if raw == rebuilt:
        # parse_monomial inverts format_monomial, so these are the tuples
        # the stated strings parse to
        gens = companion.ideal.generators
    else:
        gens = [parse_monomial(s, ideal.n) for s in raw]
    # each check below costs at least the source's degrees: refuse first
    _require_quadratic(ideal, _ZERO_SOURCE)

    def height_check():
        h = pole_order(series_numerator(ideal))  # the pivot recursion's, not the walk's
        return g == h, f"powers {g} != height {h}"

    checker.run("height", height_check)

    def squares():
        i = missing_square(gens, ideal.n, g)
        if i is None:
            return True, ""
        return False, f"x{i + 1}^2 is not in the result"

    checker.run("squares", squares)

    def series():
        if _get(obj, "series_equal") is not True:
            return False, "the report does not claim series equality"
        if len(gens) > _SERIES_RECHECK_CAP:
            # the reproduction check below re-derives the whole construction,
            # whose own termination argument certifies the series
            return True, ""
        if unbuilt is not None:
            # a rebuild refused under --max-degree fails here as in reproduction
            return False, unbuilt
        # the stated tuples, not the rebuilt ones: the formula's checks
        # must not trust the construction they recheck
        stated = _stable_numerator(gens, ideal.n, g)
        if stated is None:
            return False, _NOT_STABLE
        source = {d: a for d, a in enumerate(series_numerator(ideal)) if a}
        return stated == source, _SERIES_DIFFER

    checker.run("series", series)

    def reproduction():
        if unbuilt is not None:
            return False, unbuilt
        pd_source = depth_and_pd(ideal, field, budget)[1]
        return _same_report(obj, _egh_obj(ideal, field, companion, rebuilt, pd_source, budget))

    checker.run("reproduction", reproduction)


def _verify_balance(obj: dict, checker: _Checker, budget, max_degree):
    cx = complex_from_obj(_get(obj, "complex"))
    field = parse_field_spec(str(_get(obj, "field")))
    result = complex_from_obj(_get(obj, "result"))
    g = _int_field(obj, "g", 0, cx.n_vertices)
    hs, hr = (tuple(_typed(obj, key, list, "a list")) for key in ("h_source", "h_result"))
    cm_source, cm_result = (_get(_get(obj, key), "cm") for key in ("cm_source", "cm_result"))

    # the cm_source check and the reproduction share the certificate that
    # the source keeps.  by_theorem is set by a passing polarization check
    # when the result is the complex of the polarization of a proper ideal
    # of K[x1..xg] holding all g squares: that ideal is Artinian, so the
    # result is Cohen-Macaulay over every field, as in balance.py's module
    # docstring, and the cm_result check tests it only otherwise
    by_theorem = False

    checker.run("flag", lambda: (is_flag(cx), "input complex is not flag"))
    checker.run(
        "cm_source",
        lambda: (
            bool(is_cohen_macaulay(cx, field)) and cm_source is True,
            "input complex is not Cohen-Macaulay over the stated field",
        ),
    )

    def heights():
        actual = cx.n_vertices - cx.dim - 1
        return actual == g, f"stated g = {g}, Stanley-Reisner height = {actual}"

    checker.run("height", heights)

    def h_vectors():
        if h_vector(cx) != hs:
            return False, "h_source does not match the input complex"
        if h_vector(result) != hr:
            return False, "h_result does not match the result complex"
        if poly_trim(hs) != poly_trim(hr):
            return False, f"h-vectors differ as polynomials: {hs} vs {hr}"
        return True, ""

    checker.run("h_vectors", h_vectors)

    def polarization():
        nonlocal by_theorem
        art_obj = _get(obj, "artinian_ideal")
        if g == 0:
            ok = art_obj == {"n": 0, "generators": []} and result.facets == cx.facets
            return ok, "trivial case must return the input unchanged"
        artinian = ideal_from_obj(art_obj)
        # polarizing allocates an entry per new variable and generator, at
        # least the polarized support: refuse one the result cannot hold
        support = sum(map(max, zip(*artinian.generators)))
        if support > result.n_vertices:
            return False, (
                f"the Artinian ideal's polarized support {support} exceeds "
                f"the result's {result.n_vertices} vertices"
            )
        polarized, classes = polarize(artinian)
        if ideal_to_obj(polarized) != _get(obj, "polarized_ideal"):
            return False, "polarized ideal does not match the Artinian ideal"
        if [[v + 1 for v in cls] for cls in classes] != _get(obj, "classes"):
            return False, "polarization classes do not match"
        i = missing_square(artinian.generators, artinian.n, g)
        if i is not None:
            return False, f"x{i + 1}^2 is missing from the Artinian ideal"
        rebuilt = complex_of_ideal(polarized)
        if rebuilt.facets != result.facets or rebuilt.n_vertices != result.n_vertices:
            return False, "result complex is not the complex of the polarized ideal"
        by_theorem = artinian.n == g and not result.is_void()
        return True, ""

    checker.run("polarization", polarization)
    def balanced():
        colors = _get(obj, "coloring")
        if not isinstance(colors, list) or any(
            not isinstance(c, int) or isinstance(c, bool) for c in colors
        ):
            return False, "coloring must be a list of integers"
        return (
            check_balanced(result, tuple(colors)) is not None,
            "stated coloring is not proper",
        )

    checker.run("balanced", balanced)
    checker.run(
        "cm_result",
        lambda: (
            (by_theorem or bool(is_cohen_macaulay(result, field))) and cm_result is True,
            "result complex is not Cohen-Macaulay over the stated field",
        ),
    )
    checker.run(
        "reproduction",
        lambda: _same_report(obj, balance_report(cx, field, max_degree)),
    )


def _verify_analyze(obj: dict, checker: _Checker, budget, max_degree):
    cx = complex_from_obj(_get(obj, "complex"))
    field = parse_field_spec(str(_get(obj, "field")))
    checker.run(
        "reproduction", lambda: _same_report(obj, analyze_report(cx, field))
    )


_VERIFIERS = {
    "analyze": _verify_analyze,
    "regseq": _verify_regseq,
    "egh": _verify_egh,
    "balance": _verify_balance,
}


def verify_report(obj, budget: int = 16, max_degree=None) -> dict:
    """Recheck an emitted report from its JSON alone.

    Returns a verdict dict; "ok" is True only when every validity check
    passes and the report is reproduced byte for byte.
    """
    if not isinstance(obj, dict):
        raise InputError("a report must be a JSON object")
    kind = _get(obj, "kind")
    # a list or object kind is unhashable: refuse it before the lookup
    handler = _VERIFIERS.get(kind) if isinstance(kind, str) else None
    if handler is None:
        known = ", ".join(sorted(_VERIFIERS))
        raise InputError(f'cannot verify kind "{kind}"; expected one of: {known}')
    checker = _Checker()
    handler(obj, checker, budget, max_degree)
    return {
        "kind": "verify",
        "target_kind": kind,
        "ok": not checker.failures,
        "checks_run": checker.names,
        "failures": checker.failures,
    }
