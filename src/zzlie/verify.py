"""Windowed and symbolic verification of the defining identities.

The windowed checks sweep every basis pair/triple with |i|, |j| <= W and
compare exactly; a check "passes" iff its report carries no witnesses.  Every
windowed check, ``virmodules.check_module_axiom`` too, runs through the one
row driver ``ViolationReport.sweep``: it hands the driver each row of cases
as its size and its suspects, the cases that one comprehension over the row
could not show to pass.  That pass need only be sound.  The driver runs the
check's exact per-case ``defect``, the only code that builds a witness, on
the suspects alone, and stops at ``MAX_WITNESSES`` (20) witnesses.  The
diagonal-isomorphism search hands its ``numerators`` rows to
``propagate_scalars`` as rows of multiplicative equations, the rows of the
unit seeds (1, 0) and (0, 1) first.

The symbolic checks expand the Jacobi sum with all index components and
parameters as polynomial symbols, proving the identity for every value at
once.  They run the kernel's rule, ``algebras._closed_form`` (the row
``_closed_row`` at the right index), with symbolic weights: ``d`` (and so
``vir``, its beta = 0 case), the block families' generic region and, as
D(alpha, -1), the c/cbar generic region.  The c/cbar factorial regions (a
falling factorial of symbolic length) and the block families' punctures,
half-planes and central terms remain window-checked.

An algebra here is duck-typed.  The windowed checks read ``in_domain(i,
j)``, which alone decides whether an index is valid; ``raw_terms(a, b)``,
the bracket as raw ``(key, numerator)`` terms (key ``(i, j)`` for L,
"C1"/"C2" for a central generator; numerator an int, or an int-coefficient
``MultiPoly`` for a symbolic centre), with ``DomainError`` for an input
``in_domain`` refuses; ``den``, the one positive int every numerator is
over; and ``central_degrees()``, each present central generator's degree.
L terms may lie outside the domain: the Jacobi kernel owns the in-domain
filter of outer targets.  Two row forms are optional, each with the
``DomainError`` for ``a``: ``raw_row(a, idxs)``, the ``raw_terms`` of
[L_a, L_w] for each w of ``idxs``, and ``numerators(a, idxs)``, each one's
numerator at the one key of its degree a + w, 0 when empty.  ``idxs`` is an
``algebras.Window``, a list of distinct pairs with their positions and runs,
or any sequence of distinct pairs; the checks pass the window of one
``window_grid`` call, built inside the call that reads it.  Antisymmetry
and grading read a raw-term row per left index (``raw_row``, else a
``raw_terms`` call per entry), Jacobi ``numerators`` rows, else
``_term_row`` rows read off the raw-term rows; the diagonal-isomorphism
search needs ``numerators``.  ``QuotientC`` gives all but ``raw_row`` and
borrows ``AlgebraSpec.basis_bracket``.

The Jacobi kernel decides a triple of a graded algebra by one number: its
three cyclic terms share a key, so with c_pq the numerator of [x_p, x_q]
and v_pq[r] that of [x_p + x_q, x_r], it passes iff c_pq·v_pq[r] +
c_qr·v_qr[p] + c_rp·v_rp[q] is zero, an int once ``_kronecker`` has made
the polynomial entries ints, wherever they sit, when a central one is
found.  The numbers sit in numeric rows by window position, one per window
index and one per in-domain, non-central index sum outside the window,
found as sums of ``algebras.window_grid`` codes; each pair's row is read
from a list over the degree box at its code sum plus one offset, as
grading reads each pair's key.  A sweep row is one left index p;
its pass decides every p <= q <= r from ``view[p]``, the tails
``view[q][q:]`` and the column of p.  Only a triple whose number is
nonzero, and every triple of a misgraded algebra (a None row leaves no
view; every ``AlgebraSpec`` is graded), reaches the keyed ``defect``: it
sums the cyclic terms by basis key through ``raw_terms``, bracketing again
each in-domain L key, and its witness, at the index triple, carries the
true coefficient sum / den².
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress
from operator import neg

from .algebras import (
    AlgebraSpec, BasisElement, Element, Window, _closed_form, domain_index, window_grid,
)
from .linsolve import propagate_scalars
from .poly import accumulate, symbol

__all__ = [
    "ViolationReport",
    "check_antisymmetry",
    "check_jacobi",
    "check_grading",
    "symbolic_jacobi",
    "symbolic_jacobi_D",
    "symbolic_jacobi_block",
    "QuotientC",
    "find_diagonal_isomorphism",
]

MAX_WITNESSES = 20


@dataclass
class ViolationReport:
    check: str
    checked_count: int
    witnesses: list = field(default_factory=list)

    @classmethod
    def sweep(cls, check, rows, defect):
        """Run ``defect(*case)`` on every suspect of every row and report what it finds.

        ``rows`` yields, in sweep order, ``(size, suspects)``: a row's
        number of cases and, in row order, ``(offset, case)`` for each case
        its pass could not show to pass.  A case left out must truly pass.
        ``defect`` returns a case's witness details (empty when it passes);
        each becomes one witness at that case.  The sweep stops at
        ``MAX_WITNESSES`` witnesses, and ``checked_count`` counts the cases
        up to and including the one that gave the last, else every case.
        """
        witnesses = []
        count = 0
        for size, suspects in rows:
            for offset, case in suspects:
                for detail in defect(*case):
                    witnesses.append((case, detail))
                    if len(witnesses) == MAX_WITNESSES:
                        return cls(check, count + offset + 1, witnesses)
            count += size
        return cls(check, count, witnesses)

    @property
    def ok(self):
        return not self.witnesses

    def to_json(self):
        return {
            "check": self.check,
            "checked_count": self.checked_count,
            "witnesses": [
                {
                    # algebra witnesses sit at index pairs, module witnesses at ints
                    "at": [list(t) if isinstance(t, tuple) else t for t in at],
                    "detail": repr(detail),
                }
                for at, detail in self.witnesses
            ],
        }


def _row_source(alg):
    """``raw_row(a, idxs)``: the algebra's own, else one ``raw_terms`` call per entry."""
    return getattr(alg, "raw_row", None) or (lambda a, idxs: [alg.raw_terms(a, w) for w in idxs])


def check_antisymmetry(alg, window):
    """Witness every ordered pair with [a,b] != -[b,a]; a row is one left index.

    The row pass is symmetric in the pair, so row p of the table of raw rows
    meets column p at q >= p, the diagonal included, and takes each failing
    q < p as the mirror of row q's failing p, as if it read every ordered pair.
    """
    idxs = window_grid(alg, window)
    raw, den, n, row = alg.raw_terms, alg.den, len(idxs), _row_source(alg)
    table = [row(a, idxs) for a in idxs]

    def defect(a, b):
        bad = accumulate(dict(raw(a, b)), raw(b, a))
        return (Element.from_raw(bad.items(), den),) if bad else ()

    # a pair passes the row's pass when both brackets are empty, or one term
    # each at one key with numerators summing to zero
    def rows():
        mirrors = [[] for _ in idxs]  # mirrors[q]: each p < q whose row found q
        for p, (a, xs, ys) in enumerate(zip(idxs, table, zip(*table))):
            found = [q for q, x, y in zip(range(p, n), xs[p:], ys[p:])
                     if not (len(x) == len(y) < 2
                             and (not x or x[0][0] == y[0][0] and not x[0][1] + y[0][1]))]
            suspects = mirrors[p] + found
            for q in found:
                mirrors[q].append(p)
            yield n, [(q, (a, idxs[q])) for q in suspects]

    return ViolationReport.sweep("antisymmetry", rows(), defect)


def _term_row(row, central, a, idxs):
    """``row(a, idxs)`` as numerators, None unless each entry is empty or one term at its key.

    The key of degree t is ``central.get(t, t)``: the central generator there, else t.
    """
    entries = list(zip(row(a, idxs), [(a[0] + w[0], a[1] + w[1]) for w in idxs]))
    if all(not terms or len(terms) == 1 and terms[0][0] == central.get(t, t)
           for terms, t in entries):
        return [terms[0][1] if terms else 0 for terms, _ in entries]
    return None


def _kronecker(values):
    """``values`` with each MultiPoly entry (int coefficients) made an int.

    Symbol s_k goes to B^(E^k).  With D the top exponent and M the top |int|
    entry or polynomial entry's sum of |coefficients|, a triple's number has
    exponents at most 2D < E = 2D + 1 and coefficients at most 3M² < B/2, so
    its monomials go to distinct powers of B and the lowest nonzero c_e of
    its image Σ c_e·B^e leaves B^e·(c_e + B·K) != 0: 0 iff the number is 0.
    Only the rows holding a polynomial entry, wherever it sits, are rebuilt;
    the all-int rows give M by their max and min.
    """
    mixed = {t: row for t, row in values.items() if not all(map(int.__instancecheck__, row))}
    clean = [row for t, row in values.items() if t not in mixed]
    polys = [x.terms for row in mixed.values() for x in row if x.__class__ is not int]
    exps = [(s, d) for terms in polys for mono in terms for s, d in mono]
    m = max(chain(map(max, clean), map(neg, map(min, clean)),
                  map(abs, filter(int.__instancecheck__, chain.from_iterable(mixed.values()))),
                  (sum(abs(c.numerator) for c in terms.values()) for terms in polys)))
    bits, e = 2 * m.bit_length() + 3, 2 * max((d for _, d in exps), default=0) + 1  # 2^bits > 6M²
    shift = {s: bits * e ** k for k, s in enumerate(sorted({s for s, _ in exps}))}
    values.update({t: [x if x.__class__ is int else sum(c.numerator << sum(
                           shift[s] * d for s, d in mono) for mono, c in x.terms.items()) for x in row]
                   for t, row in mixed.items()})
    return values


def check_jacobi(alg, window):
    """Sweep unordered basis triples; witness each nonzero cyclic sum.

    Runs the one kernel of the module docstring, on rows from ``numerators``
    when the algebra has it and read off its raw-term rows otherwise.  With
    symbolic central parameters a triple passes only if its sum is the zero
    polynomial, which certifies the cocycle identity for every parameter
    value at once (``_kronecker`` makes the entries ints).  Index sums are
    ``window_grid`` codes, and each pair's row is read from the box by offset.
    Row p holds each p <= q <= r at start(q) + r - q, start(q) = (q-p)n -
    (q(q-1) - p(p-1))/2.
    """
    idxs = window_grid(alg, window)
    codes, offset, keys, pos = idxs.codes, idxs.offset, idxs.keys, idxs.pos
    raw, den2, n = alg.raw_terms, alg.den ** 2, len(idxs)
    central = {deg: key for key, deg in alg.central_degrees().items()}
    row = getattr(alg, "numerators", None) or partial(_term_row, _row_source(alg), central)
    # a numeric row per window index and per in-domain, non-central index
    # sum outside the window, found by code; a None row (misgraded) leaves no view
    sums = {c + d for k, c in enumerate(codes) for d in codes[k:]}.difference(codes)
    outer = [t for s in sums if (t := keys[offset + s]).__class__ is tuple and alg.in_domain(*t)]
    values = {t: row(t, idxs) for t in [*idxs, *outer]}
    graded = None not in values.values()
    if graded and any(values[t][pos[w]].__class__ is not int for d in central for t in values
                      if (w := (d[0] - t[0], d[1] - t[1])) in pos):
        values = _kronecker(values)

    def keyed(a, b, c):
        acc = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for t, coeff in raw(x, y):
                if not isinstance(t, str) and alg.in_domain(*t):
                    accumulate(acc, raw(t, z), coeff)
        return (Element.from_raw(acc.items(), den2),) if acc else ()

    # view[p][q]: (numerator of [x_p, x_q], numeric row of x_p + x_q) when
    # that index sum has a row, else (0, a row of zeros); rows by box offset
    zeros, grid = (0, [0] * n), [values.get(t) for t in keys]
    view = graded and [
        [(c, v) if (v := grid[base + d]) else zeros for d, c in zip(codes, values[a])]
        for a, base in zip(idxs, [offset + c for c in codes])
    ]
    columns = view and list(zip(*view))
    tails = view and [v[q:] for q, v in enumerate(view)]

    def cases():
        for p in range(n):
            qrs = [(q, r) for q, (c, u) in enumerate(view[p][p:], p)
                   for r, (d, v), (e, x) in zip(range(q, n), tails[q], columns[p][q:])
                   if c * u[r] + d * v[p] + e * x[q]
                   ] if view else [(q, r) for q in range(p, n) for r in range(q, n)]
            yield (n - p) * (n - p + 1) // 2, [
                ((q - p) * n - (q * (q - 1) - p * (p - 1)) // 2 + r - q,
                 (idxs[p], idxs[q], idxs[r])) for q, r in qrs]

    return ViolationReport.sweep("jacobi", cases(), keyed)


def check_grading(alg, window):
    """Every L term must sit at the index sum; central terms at their degree.

    A row is one left index.  A pair passes its pass when it is empty or one
    term at the key that its code sum reads off the ``window_grid`` box.
    """
    idxs = window_grid(alg, window)
    codes, offset, keys = idxs.codes, idxs.offset, idxs.keys
    raw, n, row = alg.raw_terms, len(idxs), _row_source(alg)
    central = alg.central_degrees()

    def defect(a, b):
        total = (a[0] + b[0], a[1] + b[1])
        return [BasisElement.of(key) for key, _ in raw(a, b)
                if (central.get(key) if isinstance(key, str) else key) != total]

    rows = (
        (n, [(q, (a, b)) for q, (b, d, terms) in enumerate(zip(idxs, codes, row(a, idxs)))
             if terms and (len(terms) > 1 or terms[0][0] != keys[base + d])])
        for a, base in zip(idxs, [offset + c for c in codes])
    )
    return ViolationReport.sweep("grading", rows, defect)


# -- symbolic Jacobi ---------------------------------------------------------


def symbolic_jacobi(coeff_fn):
    """True iff the cyclic Jacobi sum of a single-term bracket rule vanishes.

    ``coeff_fn(i, j, k, ell)`` must return the structure constant as a
    polynomial in its (polynomial) arguments; the bracket target is the
    index sum, so the three cyclic terms live in one homogeneous component
    and the identity reduces to one polynomial being zero.
    """
    i1, j1 = symbol("i1"), symbol("j1")
    i2, j2 = symbol("i2"), symbol("j2")
    i3, j3 = symbol("i3"), symbol("j3")
    a, b, c = (i1, j1), (i2, j2), (i3, j3)

    def term(x, y, z):
        s = (x[0] + y[0], x[1] + y[1])
        return coeff_fn(x[0], x[1], y[0], y[1]) * coeff_fn(s[0], s[1], z[0], z[1])

    total = term(a, b, c) + term(b, c, a) + term(c, a, b)
    return total == 0


def symbolic_jacobi_D():
    """Jacobi for the uniform two-parameter family, all eight symbols free."""
    return symbolic_jacobi(partial(_closed_form, (symbol("beta"), symbol("alpha"), 1)))


def symbolic_jacobi_block():
    """The determinant-form structure constant on its generic region."""
    return symbolic_jacobi(partial(_closed_form, (1, symbol("alpha"), symbol("beta"))))


# -- quotient and diagonal isomorphisms --------------------------------------


class QuotientC:
    """The c-family algebra modulo its abelian ideal in degrees j <= -2.

    Its domain is the int indices at j >= -1: ``raw_terms`` and
    ``numerators`` refuse any other input with ``DomainError``.  Only two
    indices at j = -1 bracket out of it, to zero in the quotient; every
    other bracket is the upstairs one unchanged.  So a ``numerators`` row is
    the upstairs row, with 0 along the window's runs at w[1] = -1 when a[1] = -1.
    """

    def __init__(self, alpha):
        self.upstairs = AlgebraSpec("c", alpha)
        self.den = self.upstairs.den

    def in_domain(self, i, j):
        return i.__class__ is j.__class__ is int and j >= -1

    def central_degrees(self):
        return {}

    def raw_terms(self, a, b):
        a, b = (domain_index(self, x, "the quotient of c") for x in (a, b))
        if a[1] == b[1] == -1:
            return ()
        return self.upstairs.raw_terms(a, b)

    def numerators(self, a, idxs):
        a, win = domain_index(self, a, "the quotient of c"), Window.of(idxs)
        row = self.upstairs.numerators(a, win)
        if a[1] == -1:
            for at, _, _, n in win.runs.get(-1, ()):
                row[at] = [0] * n
        return row

    basis_bracket = AlgebraSpec.basis_bracket


def find_diagonal_isomorphism(alg_a, alg_b, index_map, window):
    """Nonzero scalars lambda_idx making rescaled brackets of A match B.

    Each A window index must map to a B basis index, or to a B central
    degree and bracket to zero with every window index; else None.  The map
    is taken to be additive, and its images need not cover B's window, so a
    witness is a diagonal homomorphism on A's window.  Returns the witness
    map (A index -> scalar) or None.  Two cases raise ``ValueError``: an
    A-side central term, and a B-side bracket with a symbolic (polynomial)
    numerator, which a symbolic B central parameter gives.

    Both sides are read as ``numerators`` rows, one per mapped window index
    a: A at a over the mapped indices, B at a's image over their images.
    Outcomes follow the window order of the pairs, the first ending the
    search: for a pair, the A-side ``ValueError``, the B-side one, then None
    for a bracket nonzero on one side only; images outside B's domain come
    last.  A row pass compares the zero patterns, the B types and the A
    entries at central degrees, and only a row it cannot pass is decided
    pair by pair.  Row a holds c_a*lam_{a+b} == c_b*lam_a*lam_b for each b
    with a + b in the window (both orders of a pair), in ints over
    den_A*den_B, and the rows of the seeds (1, 0) and (0, 1), the residual
    gauge freedom of a diagonal rescaling, go first.  ``propagate_scalars``
    solves from the seeds and then decides every equation by its row check,
    so a returned witness always satisfies every equation.  Each window
    index is mapped once.
    """
    idxs = window_grid(alg_a, window)
    codes = idxs.codes
    a_central = set(alg_a.central_degrees().values())
    b_central = set(alg_b.central_degrees().values())
    images = [(a, tuple(index_map(a))) for a in idxs]
    mapped = [(a, m) for a, m in images if alg_b.in_domain(*m)]
    sources, targets = Window([a for a, _ in mapped]), Window([m for _, m in mapped])
    code = dict(zip(idxs, codes))  # ints that add like the pairs
    src, window_codes, position = [code[b] for b in sources], set(codes), sources.pos

    rows = []  # (head, targets, sources, lhs, rhs) over the pairs with a + b in the window
    for a, m in mapped:
        row_a, row_b = alg_a.numerators(a, sources), alg_b.numerators(m, targets)
        head = code[a]
        if ([*map(bool, row_a)] != [*map(bool, row_b)] or not {*map(type, row_b)} <= {int}
                or any(row_a[position[b]] for d in a_central
                       if (b := (d[0] - a[0], d[1] - a[1])) in position)):
            for b, na, nb in zip(sources, row_a, row_b):  # the exact per-pair rule
                if not (na or nb):
                    continue
                if na and (a[0] + b[0], a[1] + b[1]) in a_central:
                    raise ValueError("A-side central terms are not supported")
                if nb and nb.__class__ is not int:
                    raise ValueError("B-side symbolic central parameters are not supported")
                if not (na and nb):
                    return None  # a term on one side only forces a zero scalar
        sums = [head + c for c in src]
        keep = [t in window_codes for t in sums]
        rows.append((head, *(list(compress(v, keep)) for v in (sums, src, row_a, row_b))))
    if any(m not in b_central or any(alg_a.numerators(a, idxs))
           for a, m in images if a not in position):
        return None  # an image outside B's domain must be central, and bracket to zero
    seeds = [code[s] for s in ((1, 0), (0, 1)) if s in code]
    rows.sort(key=lambda row: row[0] not in seeds)  # the seed rows first
    found = propagate_scalars(codes, rows, seeds, (alg_b.den, alg_a.den))
    return None if found is None else dict(zip(idxs, found.values()))
