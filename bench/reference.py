"""Independent references for checking the program's outputs.

Nothing here imports ``ckp``: the maximum over S is computed by a dynamic
program over integer capacities, subset sums by a bit set, the cuts ``ckp
cuts`` must print are listed from the families' definitions, face
dimensions come from integer elimination, and cut files are parsed by a
few lines of string handling.  A wrong answer from the program therefore
cannot be reproduced by a shared bug in its checker.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm


def _group_dp(best, weights, coeffs, capacity):
    """Extend ``best`` (max scaled objective per exact weight, -1 when
    unreachable) by at most one item of one group."""
    new = list(best)
    for w, p in zip(weights, coeffs):
        if p <= 0:
            continue
        for c in range(w, capacity + 1):
            v = best[c - w]
            if v >= 0 and v + p > new[c]:
                new[c] = v + p
    return new


def max_over_S(weights, objective, capacity):
    """Exact maximum of ``sum objective[g][j] * x[g][j]`` over S.

    ``weights`` and ``objective`` are per-group tuples, weights positive
    ints and the capacity an int.  S allows 0 <= x <= 1, at most one
    positive variable per group and total weight at most the capacity.
    Every vertex of S's pieces has at most one fractional variable, and a
    fractional one makes the capacity tight, so the maximum is the best of
    the all-integral selections and, for each item, the selections of the
    other groups topped up by a fraction of that item.
    """
    if capacity < 0 or any(w <= 0 or int(w) != w for ws in weights for w in ws):
        raise ValueError("the reference needs positive integer weights")
    scale = lcm(*(Fraction(c).denominator for cs in objective for c in cs))
    scaled = [tuple(int(Fraction(c) * scale) for c in cs) for cs in objective]
    m = len(weights)
    empty = [0] + [-1] * capacity

    def dp_without(skip):
        best = empty
        for g in range(m):
            if g != skip:
                best = _group_dp(best, weights[g], scaled[g], capacity)
        return best

    num, den = max(dp_without(None)), 1
    for g in range(m):
        rest = None
        for w, p in zip(weights[g], scaled[g]):
            if p <= 0:
                continue
            if rest is None:
                rest = dp_without(g)
            for c in range(max(0, capacity - w + 1), capacity + 1):
                v = rest[c]
                # Compare v + p * (capacity - c) / w against num / den.
                if v >= 0 and (v * w + p * (capacity - c)) * den > num * w:
                    num, den = v * w + p * (capacity - c), w
    return Fraction(num, den * scale)


def point_problems(weights, profits, capacity, entries, value):
    """Reasons the sparse point ``entries`` ((group, slot, x) triples,
    1-based) is not in S or does not earn ``value``; empty when it is fine."""
    problems = []
    groups = [g for g, _, x in entries if x != 0]
    if len(groups) != len(set(groups)):
        problems.append("two positive variables in one group")
    if any(not 0 <= x <= 1 for _, _, x in entries):
        problems.append("an entry outside [0, 1]")
    weight = sum((weights[g - 1][j - 1] * x for g, j, x in entries), Fraction(0))
    if weight > capacity:
        problems.append("weight %s over capacity %s" % (weight, capacity))
    profit = sum((profits[g - 1][j - 1] * x for g, j, x in entries), Fraction(0))
    if profit != value:
        problems.append("point earns %s, not %s" % (profit, value))
    return problems


def has_partition(alphas, beta):
    """Whether some subset of ``alphas`` sums to ``beta``."""
    reachable = 1
    for a in alphas:
        reachable |= reachable << a
    return bool(reachable >> beta & 1)


def partition_instance(alphas, beta):
    """Weights, capacity and LP point of the paper's partition reduction,
    written out from its definition: singleton groups weighted by the
    alphas, one group weighted (3, 1, ..., 1) with beta ones, capacity
    beta + 2, and the point that makes the knapsack row tight."""
    weights = [(a,) for a in alphas] + [(3,) + (1,) * beta]
    low = Fraction(2 * beta - 3, 6 * beta)
    point = {(g, 1): low for g in range(1, len(alphas) + 1)}
    point[(len(alphas) + 1, 1)] = Fraction(1)
    for j in range(2, beta + 2):
        point[(len(alphas) + 1, j)] = Fraction(1, 3)
    return weights, beta + 2, point


def dense_objective(weights, terms):
    """Per-group coefficient tuples from ``{(group, slot): coefficient}``."""
    return [tuple(terms.get((g, j), 0) for j in range(1, len(ws) + 1))
            for g, ws in enumerate(weights, start=1)]


def parse_cuts_output(text):
    """The cuts printed by ``ckp cuts``: a list of ``(header, facet, terms,
    rhs)`` with ``header`` the ``# family: ...`` line and ``terms`` a
    ``{(group, slot): Fraction}`` dict.  Raises ValueError on anything it
    does not recognise."""
    if text == "# no cuts\n":
        return []
    cuts = []
    for block in text.split("\n\n"):
        lines = block.strip("\n").split("\n")
        if (len(lines) < 4 or not lines[0].startswith("# family: ")
                or lines[1] not in ("# facet: yes", "# facet: no")
                or lines[2] != "ineq 1" or not lines[3].startswith("rhs ")):
            raise ValueError("unexpected cut block: %r" % block[:80])
        terms = {}
        for line in lines[4:]:
            word, g, j, value = line.split()
            if word != "term":
                raise ValueError("unexpected line: %r" % line)
            terms[(int(g), int(j))] = Fraction(value)
        cuts.append((lines[0], lines[1] == "# facet: yes", terms,
                     Fraction(lines[3][4:])))
    return cuts


def _items(refs):
    return " ".join("(%d,%d)" % ref for ref in refs)


def cut_headers(weights, capacity):
    """The ``# family: ...`` line of every cut ``ckp cuts --family all``
    prints for an instance with these (weight-descending) groups, sorted.

    From the families' definitions: a pack has weight below the capacity
    and a cover above it.  A maximal switching pack takes the last slot of
    each group in a subset, and moving any of its non-singleton items to
    the next-heavier slot overshoots the capacity.  It yields one pack1
    cut and, when two or more of its groups are non-singleton, a pack2 cut
    per such pivot group and a pack3 cut per pivot and singleton pack
    group.  A cover yields an lcover1 cut when moving some item to a
    lighter slot of its group brings the weight below the capacity, and an
    lcover2 cut per item off its group's last slot whose group's last slot,
    with the other items, stays below the capacity.
    """
    m = len(weights)
    single = {g for g in range(1, m + 1) if len(weights[g - 1]) == 1}
    headers = []
    for size in range(1, m + 1):
        for subset in combinations(range(1, m + 1), size):
            s = sum(weights[g - 1][-1] for g in subset)
            free = [g for g in subset if g not in single]
            if s >= capacity or any(
                    s - weights[g - 1][-1] + weights[g - 1][-2] <= capacity
                    for g in free):
                continue
            items = _items((g, len(weights[g - 1])) for g in subset)
            headers.append("# family: pack1; items: " + items)
            if len(free) < 2:
                continue
            for g in free:
                pivot = "; pivot: (%d,%d)" % (g, len(weights[g - 1]))
                headers.append("# family: pack2; items: " + items + pivot)
                for t in subset:
                    if t in single:
                        headers.append("# family: pack3; items: %s%s; "
                                       "tilt-group: %d" % (items, pivot, t))
    for pattern in product(*(range(len(ws) + 1) for ws in weights)):
        chosen = [(g, j) for g, j in enumerate(pattern, start=1) if j]
        s = sum(weights[g - 1][j - 1] for g, j in chosen)
        if not chosen or s <= capacity:
            continue
        items = _items(chosen)
        if any(s - weights[g - 1][j - 1] + weights[g - 1][k] < capacity
               for g, j in chosen for k in range(j, len(weights[g - 1]))):
            headers.append("# family: lcover1; items: " + items)
        for g, j in chosen:
            ws = weights[g - 1]
            if j < len(ws) and s - ws[j - 1] + ws[-1] < capacity:
                headers.append("# family: lcover2; items: %s; special: "
                               "(%d,%d)" % (items, g, j))
    return sorted(headers)


def candidate_points(weights, capacity):
    """Points of S that include every vertex of its convex hull, each as
    ``(denominator, ((group, slot, numerator), ...))``.

    S is the union over support patterns (at most one slot per group) of
    knapsack polytopes, and a vertex of one of these has every coordinate
    0 or 1 except at most one, which then fills the capacity.  So per
    pattern: the all-ones point when it fits, and each point with one
    chosen item fractional, filling the capacity, and the rest at 1.
    """
    points = set()
    for pattern in product(*(range(len(ws) + 1) for ws in weights)):
        chosen = [(g, j, weights[g - 1][j - 1])
                  for g, j in enumerate(pattern, start=1) if j]
        total = sum(w for _, _, w in chosen)
        if total <= capacity:
            points.add((1, tuple((g, j, 1) for g, j, _ in chosen)))
        for g, j, w in chosen:
            room = capacity - (total - w)
            if 0 < room < w:
                points.add((w, tuple((h, k, room if h == g else w)
                                     for h, k, _ in chosen)))
    return points


def _rank(rows):
    """Rank over the rationals of integer rows, by fraction-free
    elimination."""
    basis = []  # (pivot column, row); each row is zero at earlier pivots
    for row in rows:
        for col, base in basis:
            if row[col]:
                f, g = base[col], row[col]
                row = [f * x - g * y for x, y in zip(row, base)]
        col = next((c for c, x in enumerate(row) if x), None)
        if col is not None:
            div = 0
            for x in row:
                div = gcd(div, x)
            basis.append((col, [x // div for x in row]))
    return len(basis)


def face_dimension(weights, points, terms, rhs):
    """Dimension of the face ``sum terms * x <= rhs`` cuts from conv(S),
    -1 when no point is tight; ``points`` from ``candidate_points``."""
    refs = [(g, j) for g, ws in enumerate(weights, start=1)
            for j in range(1, len(ws) + 1)]
    column = {ref: c for c, ref in enumerate(refs, start=1)}
    scale = lcm(rhs.denominator, *(Fraction(c).denominator
                                   for c in terms.values()))
    coeff = {ref: int(Fraction(c) * scale) for ref, c in terms.items()}
    bound = int(rhs * scale)
    rows = []
    for den, entries in points:
        if sum(coeff.get((g, j), 0) * x for g, j, x in entries) == bound * den:
            row = [0] * (len(refs) + 1)
            row[0] = den  # homogenized: affine rank is linear rank - 1
            for g, j, x in entries:
                row[column[(g, j)]] = x
            rows.append(row)
    return _rank(rows) - 1
