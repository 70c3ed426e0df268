"""Reference routes of the packed kernels, the data they are run on, and
helpers only the tests call (``evaluate``, ``constant_value``,
``symbol_of_word``, ``restrictions_as_json``, ``conjugated_constants``,
``poly_matrix`` and ``poly_labels``, the ``Poly`` views of a packed
basis and of packed edge labels, ``is_class``, GKM membership by
``Poly.divide_exact``, the ``Poly`` helpers ``linear_form``,
``is_homogeneous`` and ``parse_poly``, the rewrite basis
``positivity_forms``, and ``render_relation``, ``is_plucker_point``
and ``is_primitive`` on Plucker relations and weight vectors).
The relations have their reference in ``reference_relations``: every
head against every tail, normalized and deduplicated, the loop that the
direct enumeration replaced.
``a_coefficients`` expands one puzzle's piece factors by subset sums
(``expand_linear_product_subsets``), where the library multiplies its
packed frontier factors.
The positivity rewrite's reference is ``rewrite_in_linear_basis``: the
substitution by the inverse of the form matrix
(``linear_basis_images``), where the library shears; its sheared images
have theirs in ``sheared_images``, by ``Fraction`` arithmetic.  Weight-vector
validity has its reference in ``reference_validate``: the walk over
every Plucker relation that the (W, a) candidate replaced.  The
closed-form permutation scopes have theirs in ``reference_full_scope``:
the exhaustive pair-structure search; the lookup of signed relations
has its in ``reference_sign_patterns``: the span test by dense
``Fraction`` row reduction.  The W-sorted divisivity and equivalence
witnesses have theirs in ``reference_divisive`` and
``reference_equivalence``: the walk over the scope ladder.

Each is the tuple or ``Poly`` form of a hot loop that the library now
runs on packed integer term maps, or the route it ran before:
substitution by Horner's rule on exponent tuples, the b = 1 basis by
congruence interpolation on ``Poly``s (with the variable identification
it needs), the frontier sums by one forward pass per (nw, ne) pair
(``reference_frontier_sums``), and the pipeline contraction of frontier
sums with Pieri powers in ``Poly`` arithmetic.  They share with the
routes they check only ``Poly`` arithmetic, the puzzle catalogue and,
for the contraction, the frontier sums.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm

from wgrass import gkm, linalg, plucker, puzzles, symbols
from wgrass.errors import InternalInconsistencyError, ParameterError
from wgrass.polynomial import (
    Poly,
    _accumulate,
    _build,
    _cleared,
    _coerce,
    _mul_terms,
    packing,
)


# sizes on which every packed route is compared with its reference
SIZES = ((2, 4), (2, 5), (3, 5), (2, 6), (3, 6))


def vectors(k: int, n: int) -> list:
    """The unit vector and three seeded divisive vectors of (k, n).

    A seeded vector is a * (t + 1) on the symbols containing 1 and a
    elsewhere, for (a, t) drawn from the seed; seeds 2, 5 and 7 draw
    (1, 1), (2, 3) and (2, 2).
    """
    syms = symbols.enumerate_symbols(k, n)
    out = [(1,) * len(syms)]
    for seed in (2, 5, 7):
        rng = random.Random(seed)
        a, t = rng.randint(1, 2), rng.randint(1, 5)
        out.append(tuple(a * (t + 1) if 1 in s else a for s in syms))
    assert len(set(out)) == 4
    return out


def evaluate(p: Poly, point) -> Fraction:
    """The exact value of p at ``point``, one rational per variable."""
    vals = [_coerce(v) for v in point]
    if len(vals) != p.nvars:
        raise ParameterError("point has wrong length")
    total = Fraction(0)
    for expo, c in p.terms.items():
        v = c
        for x, e in zip(vals, expo):
            if e:
                v *= x**e
        total += v
    return total


def constant_value(p: Poly):
    """The value (int or Fraction) of a degree-<=0 polynomial."""
    if p.is_zero():
        return 0
    if p.degree() > 0:
        raise ParameterError("not a constant polynomial")
    return next(iter(p.terms.values()))


def symbol_of_word(w: str) -> tuple:
    """The symbol with entries at the ones of a 0/1 word."""
    if set(w) - {"0", "1"}:
        raise ParameterError(f"not a 0/1 word: {w!r}")
    return tuple(i + 1 for i, ch in enumerate(w) if ch == "1")


def linear_form(nvars: int, support) -> Poly:
    """Sum of the variables y_s over s in ``support`` (1-based)."""
    terms: dict = {}
    for s in support:
        expo = [0] * nvars
        expo[s - 1] = 1
        key = tuple(expo)
        terms[key] = terms.get(key, 0) + 1
    return Poly(nvars, terms)


def is_homogeneous(p: Poly) -> bool:
    return len({sum(e) for e in p.terms}) <= 1


def parse_poly(text: str, nvars: int, names=None) -> Poly:
    """Inverse of ``Poly.render`` on its own output."""
    if names is None:
        names = [f"y{i}" for i in range(1, nvars + 1)]
    position = {name: i for i, name in enumerate(names)}
    text = text.strip()
    if text == "0":
        return Poly.zero(nvars)
    terms: dict = {}
    for chunk in text.replace(" - ", " + -").split(" + "):
        chunk = chunk.strip()
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        coeff = Fraction(sign)
        expo = [0] * nvars
        for factor in chunk.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            if name not in position:
                raise ParameterError(f"unknown variable {name!r}")
            expo[position[name]] += int(power) if power else 1
        key = tuple(expo)
        terms[key] = terms.get(key, 0) + coeff
    return Poly(nvars, terms)


def positivity_forms(ctx) -> list:
    """The rewrite basis (g_1, ..., g_{n-1}, Y_0) of ``ctx``, with
    g_q = bwt(q, q+1)."""
    n = ctx.n
    y0 = linear_form(n, ctx.lattice.symbols[0])
    return [
        Poly.variable(n, q) - Poly.variable(n, q + 1)
        - Fraction(ctx.piece_value(q, q + 1), ctx.b[0]) * y0
        for q in range(1, n)
    ] + [y0]


def _sort_sign(seq) -> tuple:
    """Sorted tuple and the sign of the sorting permutation (0 on repeats)."""
    items = list(seq)
    if len(set(items)) != len(items):
        return tuple(sorted(items)), 0
    inversions = sum(
        1
        for a in range(len(items))
        for b in range(a + 1, len(items))
        if items[a] > items[b]
    )
    return tuple(sorted(items)), (-1) ** inversions


def _canonical_relation(term_map: dict):
    """Normalize a pair->coefficient map into a PluckerRelation or None."""
    items = [(pair, c) for pair, c in sorted(term_map.items()) if c]
    if len(items) < 2:
        return None
    g = gcd(*(c for _, c in items))
    flip = -1 if items[0][1] < 0 else 1
    return plucker.PluckerRelation(tuple(pair for pair, _ in items),
                                   tuple(flip * c // g for _, c in items))


def reference_relations(k: int, n: int) -> tuple:
    """``plucker.generate_relations`` by the route it replaced: every head
    (k - 1)-set against every tail (k + 1)-set, each relation normalized
    (sorting signs by inversion count, gcd and lead sign) and deduplicated,
    then sorted by pairs."""
    index = symbols.lattice(k, n).index
    rels = set()
    for head in combinations(range(1, n + 1), k - 1):
        for tail in combinations(range(1, n + 1), k + 1):
            term_map: dict = {}
            for j, l in enumerate(tail):
                if l in head:
                    continue
                sym_r, sign_r = _sort_sign(head + (l,))
                r = index[sym_r]
                s = index[tuple(x for x in tail if x != l)]
                pair = (r, s) if r <= s else (s, r)
                term_map[pair] = term_map.get(pair, 0) + (-1) ** j * sign_r
            rel = _canonical_relation(term_map)
            if rel is not None:
                rels.add(rel)
    return tuple(sorted(rels, key=lambda rel: rel.pairs))


def render_relation(rel) -> str:
    """A ``plucker.PluckerRelation`` as text, "+z0*z5 -z1*z4 +z2*z3"."""
    return " ".join(f"{'+' if c > 0 else '-'}z{r}*z{s}"
                    for (r, s), c in zip(rel.pairs, rel.coefs))


def is_plucker_point(z, k: int, n: int) -> bool:
    """Membership in Pl(k, n): all relations vanish (z must be nonzero)."""
    vec = [Fraction(v) for v in z]
    m1 = symbols.count(k, n)
    if len(vec) != m1:
        raise ParameterError(f"coordinate vector must have length {m1}")
    if not any(vec):
        raise ParameterError("the zero vector is excluded from Pl(k, n)")
    return all(
        sum(c * vec[r] * vec[s] for (r, s), c in zip(rel.pairs, rel.coefs)) == 0
        for rel in plucker.generate_relations(k, n)
    )


def is_primitive(b) -> bool:
    return gcd(*b) == 1


def linear_basis_images(forms: list) -> dict:
    """The substitution y_s -> (expression in g_1..g_n) inverting ``forms``.

    p.substitute(images) rewrites p in the coordinates g_1..g_n given
    by the n independent linear forms; callers that rewrite many
    polynomials in one basis build the images once.  Raises when the
    forms are not a basis of the linear span of the variables.
    """
    n = len(forms)
    mat = []
    for f in forms:
        if f.nvars != n or (not f.is_zero() and f.degree() != 1):
            raise ParameterError("basis entries must be linear forms")
        row = [0] * n
        for expo, c in f.terms.items():
            row[expo.index(1)] = c
        mat.append(row)
    inv = linalg.invert(mat)
    if inv is None:
        raise ParameterError("forms are not linearly independent")
    # y_s = sum_t inv[s][t] * g_t
    return {
        s + 1: Poly(n, {
            tuple(1 if u == t else 0 for u in range(n)): inv[s][t]
            for t in range(n)
            if inv[s][t]
        })
        for s in range(n)
    }


def rewrite_in_linear_basis(p: Poly, forms: list) -> Poly:
    """Rewrite p in the coordinates given by n independent linear forms.

    The result is a polynomial in len(forms) fresh variables g_1..g_n
    with p == result(g_i -> forms[i]).  Raises when the forms are not a
    basis of the linear span of the original variables.
    """
    if len(forms) != p.nvars:
        raise ParameterError("need exactly nvars linear forms")
    return p.substitute(linear_basis_images(forms))


def sheared_images(ctx) -> tuple:
    """``ctx._sheared_images`` by ``Fraction`` arithmetic on ``Poly``s:
    the images of u_n and of the moved u_q over (g_1..g_{n-1}, Y_0),
    each cleared, all scaled to the lcm of their denominators."""
    n, w = ctx.n, ctx.wa.W
    y0 = Poly.variable(n, n)  # the last target variable is Y_0
    u = [
        Poly.variable(n, q) + Fraction(w[q - 1] - w[q], ctx.b[0]) * y0
        for q in range(1, n)
    ]
    rest = sum((min(q, ctx.k) * image for q, image in enumerate(u, 1)), Poly.zero(n))
    moved = {v: u[v] for v in range(n - 1) if w[v] != w[v + 1]}
    moved[n - 1] = (y0 - rest) * Fraction(1, ctx.k)
    cleared = {v: _cleared(image.terms) for v, image in moved.items()}
    scale = lcm(*(d for _, d in cleared.values()))
    images = [
        (v, {e: c * (scale // d) for e, c in terms.items()})
        for v, (terms, d) in cleared.items()
    ]
    return images, [v for v in range(n) if v not in moved], scale


# -- substitution on exponent tuples ------------------------------------------


def _horner(items: list, images: list, pos: int, kept: list, n: int) -> dict:
    """Expand the (expo, c) ``items`` under the substitution ``images``.

    ``images`` lists (variable, image terms) pairs; variables in
    ``kept`` map to themselves in the n target variables.
    """
    if pos == len(images):  # items differ only in their kept exponents
        out = {}
        for expo, c in items:
            mono = [0] * n
            for v in kept:
                mono[v] = expo[v]
            out[tuple(mono)] = c
        return out
    v, image = images[pos]
    groups: dict = {}
    for item in items:
        groups.setdefault(item[0][v], []).append(item)
    acc: dict = {}
    for e in range(max(groups), -1, -1):
        if acc:
            acc = _mul_terms(acc, image)
        group = groups.get(e)
        if group:
            _accumulate(acc, _horner(group, images, pos + 1, kept, n).items())
    return acc


def substitute(p: Poly, images: dict) -> Poly:
    """``p.substitute(images)`` by Horner's rule on exponent tuples."""
    if not images:
        return p
    target_n = next(iter(images.values())).nvars
    mapped = [(v, images[v + 1]) for v in range(p.nvars) if v + 1 in images]
    kept = [v for v in range(p.nvars) if v + 1 not in images]
    if not p.terms:
        return Poly.zero(target_n)
    cleared = [(v, _cleared(img.terms)) for v, img in mapped]
    scale = lcm(1, *(d for _, (_, d) in cleared))
    bases = [
        (v, {e: c * (scale // d) for e, c in t.items()}) for v, (t, d) in cleared
    ]
    lifted, lift = _cleared(p.terms)
    weights = {e: sum(e[v] for v, _ in mapped) for e in lifted}
    deg = max(weights.values())
    terms = [(e, c * scale ** (deg - weights[e])) for e, c in lifted.items()]
    return _build(
        target_n, _horner(terms, bases, 0, kept, target_n), lift * scale**deg
    )


# -- the b = 1 interpolation on Polys -----------------------------------------


def permute_variables(p: Poly, images: dict) -> Poly:
    """Relabel the variables of p by the 1-based index map ``images``.

    Unmapped variables keep their index.  The map need not be
    injective: {s: t} identifies y_s with y_t, i.e. it is the
    substitution y_s -> y_t, done by merging exponents without any
    multiplication.
    """
    terms = {}
    for expo, c in p.terms.items():
        new = [0] * p.nvars
        for i, e in enumerate(expo, start=1):
            new[images.get(i, i) - 1] += e
        terms[tuple(new)] = terms.get(tuple(new), 0) + c
    return Poly(p.nvars, terms)


def interpolate_value(constraints, degree: int, n: int) -> Poly:
    """The homogeneous degree-d solution of the (s, s', value) congruences."""
    subs = [{s: sp} for s, sp, _ in constraints]
    alpha = constraints[0][2]
    prod_e = Poly.one(n)
    for t in range(1, len(constraints)):
        s_prev, sp_prev, _ = constraints[t - 1]
        prod_e = prod_e * (Poly.variable(n, sp_prev) - Poly.variable(n, s_prev))
        value = constraints[t][2]
        rem = permute_variables(value - alpha, subs[t])
        if rem.is_zero():
            continue
        g = rem.divide_exact(permute_variables(prod_e, subs[t]))
        if g is None:
            raise InternalInconsistencyError("congruence system is not solvable")
        alpha = alpha + prod_e * g
    for (s, sp, value), sub in zip(constraints, subs):
        if not permute_variables(alpha - value, sub).is_zero():
            raise InternalInconsistencyError("interpolated value fails a congruence")
    if not (alpha.is_zero() or
            (is_homogeneous(alpha) and alpha.degree() == degree)):
        raise InternalInconsistencyError("interpolated value has wrong degree")
    return alpha


@lru_cache(maxsize=None)
def unit_restrictions(k: int, n: int) -> tuple:
    """The b = 1 restriction matrix, interpolated on Polys."""
    lat = symbols.lattice(k, n)
    m1 = lat.m + 1
    labels = poly_labels(gkm.build_graph((1,) * m1, k, n))
    matrix = []
    for i in range(m1):
        row: list = []
        for j in range(m1):
            if not lat.leq_idx(i, j):
                row.append(Poly.zero(n))
                continue
            if j == i:
                diag = Poly.one(n)
                for l in lat.R[i]:
                    diag = diag * labels[(l, i)]
                row.append(diag)
                continue
            constraints = []
            for s, sp in symbols.reversal_pairs(lat.symbols[j]):
                l = lat.index[symbols.exchange(lat.symbols[j], s, sp)]
                constraints.append((s, sp, row[l]))
            row.append(interpolate_value(constraints, lat.d[i], n))
        matrix.append(tuple(row))
    return tuple(matrix)


def poly_labels(graph) -> dict:
    """The edge labels of a ``gkm`` graph as ``Poly``s, by edge."""
    return {edge: graph.packing.poly(label) for edge, label in graph.labels.items()}


def is_class(graph, values) -> bool:
    """True iff every edge label of the GKM ``graph`` divides the
    difference of ``values`` across the edge, by ``Poly.divide_exact``
    (the library tests its rows on packed maps, by vanishing)."""
    vals = list(values)
    if len(vals) != symbols.count(graph.k, graph.n):
        raise ParameterError("need one polynomial per fixed point")
    labels = poly_labels(graph)
    return all(
        (vals[j] - vals[l]).divide_exact(labels[(l, j)]) is not None
        for l, j in graph.edges
    )


def weighted_restrictions(b, k: int, n: int) -> tuple:
    """Column t of the b = 1 matrix under y_s -> y_s - (w_s / b_t) Y_t."""
    lat = symbols.lattice(k, n)
    vec = plucker.presented_weight_vector(b, k, n)
    w = plucker.solve_wa(vec, k, n).W
    base = unit_restrictions(k, n)
    columns = []
    for t, bt in enumerate(vec):
        yt = linear_form(n, lat.symbols[t])
        images = {
            s + 1: Poly.variable(n, s + 1) - Fraction(w[s], bt) * yt
            for s in range(n)
        }
        columns.append([substitute(row[t], images) for row in base])
    return tuple(tuple(col[i] for col in columns) for i in range(len(vec)))


# -- the frontier sums by one forward pass per pair -------------------------


def reference_frontier_sums(nw: str, ne: str, factors: dict) -> dict:
    """``puzzles.sweep`` of one pair, by one forward pass for it alone.

    Map south word -> sum over the tilings with the nw and ne words of
    the product of factors[(u, v)] over their equivariant pieces.

    ``factors`` maps every conjugated pair u < v to a packed integer
    term map, all packed alike for degrees up to
    ``max_equivariant_pieces(n)``; a tiling without equivariant pieces
    adds 1, the packed monomial 0.  The sums are packed the same way,
    without zero terms.  Every south word some tiling reaches is a key,
    also when its sum cancels to zero.
    """
    n = len(nw)
    for w in (nw, ne):
        puzzles._check_word(w, n)
    catalogue = puzzles._catalogue(n)
    packed = {pair: list(f.items()) for pair, f in factors.items()}
    start = 0
    for ids, word in zip(catalogue.boundary, (nw, ne)):
        for edge, letter in zip(ids, word):
            start |= int(letter) + 1 << 2 * edge
    states = {start: {0: 1}}
    for cover, keep, moves in catalogue.steps:
        reached: dict = {}
        fresh = set()  # keys whose weight dict belongs to this step

        def add(key, weight):
            known = reached.get(key)
            if known is None:
                reached[key] = weight
                return
            if key not in fresh:
                known = reached[key] = dict(known)
                fresh.add(key)
            get = known.get
            for e, c in weight.items():
                known[e] = get(e, 0) + c

        for state, weight in states.items():
            if state & cover:
                add(state & keep, weight)
                continue
            for forbidden, added, pair in moves:
                if state & forbidden:
                    continue
                if pair is not None:
                    product: dict = {}
                    get = product.get
                    for e1, c1 in weight.items():
                        for e2, c2 in packed[pair]:
                            e = e1 + e2
                            product[e] = get(e, 0) + c1 * c2
                    add((state | added) & keep, product)
                else:
                    add((state | added) & keep, weight)
        states = reached
    # only the south edges are left in the final states
    return {
        "".join("01"[(state >> 2 * e & 3) - 1] for e in catalogue.boundary[2]):
        {e: c for e, c in weight.items() if c}
        for state, weight in states.items()
    }


# -- one puzzle's piece-factor expansion -------------------------------------


def expand_linear_product_subsets(nvars: int, factors) -> list:
    """[alpha_0, ..., alpha_t] with prod_s (a_s + b_s B) = sum_s alpha_s B^s,
    for Poly a_s and scalar b_s: alpha_s is the sum over the s-subsets S
    of prod_{i in S} b_i prod_{i not in S} a_i."""
    t = len(factors)
    out = []
    for s in range(t + 1):
        total = Poly.zero(nvars)
        for chosen in combinations(range(t), s):
            term = Poly.one(nvars)
            for i, (a, b) in enumerate(factors):
                term = term * (b if i in chosen else a)
            total = total + term
        out.append(total)
    return out


def a_coefficients(ctx, puz) -> list:
    """``ctx.a_coefficients(puz)`` by subset sums over the Poly factors
    (y_u - y_v - (b(p)/b_0) Y_0, b(p)/b_0), b(p) = w_u - w_v read off the
    (W, a) form of ``ctx.b``."""
    n = ctx.n
    w = plucker.solve_wa(ctx.b, ctx.k, n).W
    y0 = linear_form(n, ctx.lattice.symbols[0])
    factors = []
    for u, v in puz.conjugated_pairs():
        ratio = Fraction(w[u - 1] - w[v - 1], ctx.b[0])
        factors.append((Poly.variable(n, u) - Poly.variable(n, v) - ratio * y0, ratio))
    return expand_linear_product_subsets(n, factors)


# -- the pipeline contraction on Polys ----------------------------------------


def equivariant_constants(ctx, i: int, j: int) -> dict:
    """``ctx.equivariant_constants(i, j)`` contracted in Poly arithmetic."""
    lat, n = ctx.lattice, ctx.n
    frontier = packing(n + 1, puzzles.max_equivariant_pieces(n))
    sums = {
        q: frontier.poly(total)
        for q, total in puzzles.symbol_sums(
            ctx.k, n, [(i, j)], ctx.equivariant_factors, n + 1
        )[(i, j)].items()
    }
    reached = [q for q, total in sums.items() if total]
    if not reached:
        return {}
    top = lat.d[i] + lat.d[j] - min(lat.d[q] for q in reached)
    out: dict = {}
    for q in reached:
        by_power: dict = {}
        for e, c in sums[q].terms.items():
            by_power.setdefault(e[n], {})[e[:n]] = c
        scale = ctx.b[0] ** (lat.d[q] + top - lat.d[i] - lat.d[j])
        for s, terms in by_power.items():
            a_s = Poly(n, terms) * scale
            for l, piece in ctx.pieri_power(q, s).items():
                out[l] = out[l] + a_s * piece if l in out else a_s * piece
    denominator = ctx.b[0] ** top
    return {
        l: _build(n, p.terms, denominator)
        for l, p in sorted(out.items()) if not p.is_zero()
    }


def conjugated_constants(k: int, n: int) -> dict:
    """Conjugated table (i, j, l) -> polynomial; the downstream orientation.

    The pairs with i <= j in one sweep, past the ``conjugated_product``
    cache; the product commutes, so (j, i) mirrors (i, j).
    """
    m1 = symbols.count(k, n)
    cells = puzzles._conjugated(
        k, n, [(i, j) for i in range(m1) for j in range(i, m1)]
    )
    table = {}
    for (i, j), cell in cells.items():
        for l, poly in cell.items():
            table[(i, j, l)] = table[(j, i, l)] = poly
    return dict(sorted(table.items()))


def reference_validate(b, k: int, n: int) -> bool:
    """``plucker.validate_weight_vector`` by walking every relation: True
    iff each has constant pair-sum."""
    vec = plucker.check_weight_vector_shape(b, k, n)
    for rel in plucker.generate_relations(k, n):
        if len({vec[r] + vec[s] for r, s in rel.pairs}) > 1:
            return False
    return True


def reference_full_scope(k: int, n: int) -> list:
    """Every Plucker permutation at (k, n) with its witness, by search.

    Backtracking over all C(n, k)! coordinate permutations, pruned to
    those preserving the relation pairs (a Plucker permutation maps the
    pair set of the relations onto itself), each survivor then put to
    ``plucker.is_plucker_permutation``; sorted by permutation.  This is
    the search the closed-form ``full`` scope replaced.
    """
    m1 = symbols.count(k, n)
    pairs = {pair for rel in plucker.generate_relations(k, n)
             for pair in rel.pairs}
    sigma = [-1] * m1
    used = [False] * m1
    found = []

    def consistent(i: int) -> bool:
        for j in range(i):
            ia, ib = sigma[j], sigma[i]
            img = (ia, ib) if ia <= ib else (ib, ia)
            if ((j, i) in pairs) != (img in pairs):
                return False
        return True

    def rec(i: int) -> None:
        if i == m1:
            witness = plucker.is_plucker_permutation(tuple(sigma), k, n)
            if witness is not None:
                found.append(witness)
            return
        for v in range(m1):
            if not used[v]:
                sigma[i] = v
                used[v] = True
                if consistent(i):
                    rec(i + 1)
                used[v] = False
        sigma[i] = -1

    rec(0)
    return sorted(found, key=lambda w: w.perm)


def reference_divisive(b, k: int, n: int, scope: str = "auto"):
    """``plucker.is_divisive`` by walking the scope ladder: the first
    permutation that makes b a divisibility chain, certified, or None.
    This is the walk the W-sorted candidate replaced."""
    vec = plucker.weight_vector(b, k, n)
    for sigma in plucker.scope_ladder(k, n, scope):
        if plucker.is_descending_divisible(plucker._permuted(vec, sigma)):
            return plucker.certify(sigma, k, n)
    return None


def reference_equivalence(b, c, k: int, n: int, scope: str = "auto"):
    """``plucker.equivalence`` by walking the scope ladder: the first
    permutation taking the primitive part of b to that of c, certified,
    with the scalar, or None."""
    vb = plucker.weight_vector(b, k, n)
    vc = plucker.weight_vector(c, k, n)
    pb, pc = plucker.primitive_part(vb), plucker.primitive_part(vc)
    for sigma in plucker.scope_ladder(k, n, scope):
        if plucker._permuted(pb, sigma) == pc:
            return plucker.certify(sigma, k, n), Fraction(gcd(*vc), gcd(*vb))
    return None


def _relation_rows(rels, cols) -> list:
    """The relations as dense Fraction rows over the column map cols."""
    rows = []
    for rel in rels:
        row = [Fraction(0)] * len(cols)
        for pair, c in zip(rel.pairs, rel.coefs):
            row[cols[pair]] = Fraction(c)
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def _span_basis(k: int, n: int) -> tuple:
    """Column map of the relation pairs and the rref basis of the
    relations at (k, n)."""
    rels = plucker.generate_relations(k, n)
    cols = {pair: t for t, pair in
            enumerate(sorted({pair for rel in rels for pair in rel.pairs}))}
    rref_rows, pivots = linalg.rref(_relation_rows(rels, cols))
    return cols, rref_rows[: len(pivots)], pivots


def in_row_span(vec, rref_rows, pivots) -> bool:
    """Dense Fraction reduction of vec against an rref basis."""
    v = [Fraction(x) for x in vec]
    for row, c in zip(rref_rows, pivots):
        if v[c]:
            f = v[c]
            v = [a - f * b if b else a for a, b in zip(v, row)]
    return not any(v)


@lru_cache(maxsize=None)
def reference_sign_patterns(k: int, n: int, terms: tuple) -> tuple:
    """``plucker._sign_patterns`` by the span test that the lookup
    replaced: the patterns eps that put sum_t eps_t c_t z_(r_t) z_(s_t)
    in the span of the generating relations; none when a pair is in no
    relation."""
    cols, rref_rows, pivots = _span_basis(k, n)
    if any((r, s) not in cols for _, r, s in terms):
        return ()
    admissible = []
    for eps in product((1, -1), repeat=len(terms)):
        dense = [0] * len(cols)
        for e, (c, r, s) in zip(eps, terms):
            dense[cols[(r, s)]] = e * c
        if in_row_span(dense, rref_rows, pivots):
            admissible.append(eps)
    return tuple(admissible)


def poly_matrix(basis) -> tuple:
    """The restriction matrix of a packed ``gkm`` basis as ``Poly``s:
    entry [i][t] is rows[i][t] divided by b_t^{d_i}."""
    pk, vec, d = basis.packing, basis.graph.b, basis.lat.d
    return tuple(
        tuple(pk.poly(entry, vec[t] ** d[i]) for t, entry in enumerate(row))
        for i, row in enumerate(basis.rows)
    )


def restrictions_as_json(b, k: int, n: int) -> dict:
    """Restriction matrix as nested {basis index: {vertex: polynomial string}}."""
    matrix = poly_matrix(gkm.weighted_restrictions(b, k, n))
    return {
        str(i): {
            str(j): entry.render()
            for j, entry in enumerate(row)
            if not entry.is_zero()
        }
        for i, row in enumerate(matrix)
    }
