"""Independent reference constructions used as test oracles.

Everything here is built from first principles on plain Fraction
coefficient lists (index = monomial degree) or delegated to mpmath,
deliberately sharing no code with the package under test.  Two
exceptions keep an earlier Fraction form of a package path as the
oracle of its integer form, and call the package's own types:
``transmutation_by_poly``, the ``Poly`` form of the transmutation check,
runs the package's ``umbral_map`` and ladder ``apply``, the path the
``transmute`` command takes, so that the integer form of the check is
held to the maps that command prints; and ``translate_by_poly`` is the
``Poly`` loop of the generalized translation.
"""

from fractions import Fraction
from math import factorial, isqrt

import mpmath

from umbra.core import CapMismatchError, LinearOp, Poly
from umbra.reports import VerificationReport, status_of
from umbra.transforms import require_model_input, umbral_map

mpmath.mp.dps = 40


# -- dense coefficient-list polynomial arithmetic ----------------------

def p_add(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


def p_scale(a, c):
    c = Fraction(c)
    return [c * x for x in a]


def p_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def p_eval(a, x):
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def p_deriv(a):
    return [k * c for k, c in enumerate(a)][1:] or [Fraction(0)]


def p_shift(a, y):
    """Coefficients of p(t + y)."""
    out = [Fraction(0)]
    for c in reversed(a):
        out = p_add(p_mul(out, [Fraction(y), Fraction(1)]), [c])
    return out


def p_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


# -- dense Fraction matrices, as lists of rows -------------------------

def m_mul(a, b):
    """a @ b."""
    return [
        [sum((a[i][r] * b[r][j] for r in range(len(b))), Fraction(0))
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def word_marks(letters, marks, size):
    """Truncation marks of the product letters[0] @ ... @ letters[-1]
    of dense matrices: column j is marked when some path from j through
    the letters' nonzero entries, the last letter taken first, reaches
    a column that the letter it has come to marks."""
    out = set()
    for j in range(size):
        reach = {j}
        for a, mk in zip(reversed(letters), reversed(marks)):
            if reach & mk:
                out.add(j)
                break
            reach = {i for i in range(size) for c in reach if a[i][c]}
    return out


def op_from_grid(a, marks=frozenset()):
    """The package's LinearOp of the square matrix a, built column by
    column through ``LinearOp.from_columns``, with marked columns marks."""
    return LinearOp.from_columns(
        len(a) - 1, lambda j: {i: row[j] for i, row in enumerate(a)}, frozenset(marks)
    )


def m_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def m_scale(a, c):
    c = Fraction(c)
    return [[c * x for x in row] for row in a]


def two_sided_first_difference(a, b, letters, cols):
    """Formal series compared the way two sides are written, over dense
    lists.  ``a`` and ``b`` map a multi-index to {word: rational}; a word
    is a string over ``letters``, which maps "L" and "R" to (dense
    matrix, marks), multiplied in written order.  Each coefficient is
    summed in full on each side, on ``cols``, and marked with the
    word_marks of every word there, whatever its coefficient; the two
    are compared on ``cols`` in the order given, indices taken by total
    order and then lexicographically.  Returns (first differing index
    or None, whether a scanned column was marked on either side, largest
    |entry| of the difference over ``cols`` at that index or 0)."""
    size = len(letters["L"][0])
    cols = list(cols)
    columns, marks_of = {}, {}

    def column(word, j):
        """Column j of the matrix of ``word``: its letters applied to
        e_j, the last first; each made once per call."""
        if (word, j) not in columns:
            if word:
                m, v = letters[word[0]][0], column(word[1:], j)
                col = [sum((m[i][r] * v[r] for r in range(size) if v[r]), Fraction(0))
                       for i in range(size)]
            else:
                col = [Fraction(int(i == j)) for i in range(size)]
            columns[word, j] = col
        return columns[word, j]

    def coefficient(terms):
        total = {j: [Fraction(0)] * size for j in cols}
        marks = set()
        for word, q in terms.items():
            for j in cols:
                total[j] = [x + q * y for x, y in zip(total[j], column(word, j))]
            if word not in marks_of:
                marks_of[word] = word_marks(
                    [letters[x][0] for x in word], [letters[x][1] for x in word], size
                )
            marks |= marks_of[word]
        return total, marks

    tainted = False
    for idx in sorted(set(a) | set(b), key=lambda i: (sum(i), i)):
        (ma, ka), (mb, kb) = coefficient(a.get(idx, {})), coefficient(b.get(idx, {}))
        for j in cols:
            tainted = tainted or j in ka | kb
            if ma[j] != mb[j]:
                residual = max(abs(x - y) for c in cols for x, y in zip(ma[c], mb[c]))
                return idx, tainted, residual
    return None, tainted, Fraction(0)


# -- formal series on Fraction coefficients ----------------------------
# A series is {multi-index: {word: Fraction}}, truncated at a total
# order; the product of two words is their concatenation.  A word whose
# coefficient cancels to 0 stays with coefficient 0.

def s_add_term(s, idx, q, word, order):
    """Add q * word at idx unless q is 0 or idx is past the order."""
    if sum(idx) > order or not q:
        return
    coef = s.setdefault(idx, {})
    coef[word] = coef.get(word, Fraction(0)) + Fraction(q)


def s_add(a, b):
    out = {idx: dict(coef) for idx, coef in a.items()}
    for idx, coef in b.items():
        bucket = out.setdefault(idx, {})
        for word, q in coef.items():
            bucket[word] = bucket.get(word, Fraction(0)) + q
    return out


def s_scale(a, c):
    c = Fraction(c)
    if not c:
        return {}
    return {idx: {word: c * q for word, q in coef.items()} for idx, coef in a.items()}


def s_mul(a, b, order):
    """a b in written order, truncated at ``order``."""
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            if sum(ia) + sum(ib) > order:
                continue
            bucket = out.setdefault(tuple(x + y for x, y in zip(ia, ib)), {})
            for wa, qa in ca.items():
                for wb, qb in cb.items():
                    bucket[wa + wb] = bucket.get(wa + wb, Fraction(0)) + qa * qb
    return out


def s_exp(x, order):
    """exp(-x) truncated at ``order``, for a series x with no constant
    term: the sum over n of (-1)^n x^n / n!, each power by ``s_mul``."""
    arity = len(next(iter(x)))
    out, power = {}, {(0,) * arity: {"": Fraction(1)}}
    for n in range(order + 1):
        out = s_add(out, s_scale(power, Fraction((-1) ** n, factorial(n))))
        power = s_mul(power, x, order)
    return out


GROUP_COORDINATES = ("s1", "x1", "y1", "s2", "x2", "y2")


def group_law_sides(order):
    """Both sides of the Heisenberg group law
    pi(s1,x1,y1) pi(s2,x2,y2) = pi(s1+s2+x1*y2, x1+x2, y1+y2), with
    pi(s,x,y) = exp(-s) exp(-y L) exp(-x R), as series in all six
    ``GROUP_COORDINATES``, truncated at ``order``; the central
    coordinate's exponential carries the empty word."""
    def exp(word, *monomials):
        """exp(-(sum of the monomials) word), each monomial a tuple of
        the coordinates it multiplies."""
        s = {}
        for slots in monomials:
            s_add_term(s, tuple(slots.count(k) for k in range(6)), 1, word, order)
        return s_exp(s, order)

    def product(*factors):
        out = factors[0]
        for f in factors[1:]:
            out = s_mul(out, f, order)
        return out

    def pi(s, x, y):
        return product(exp("", (s,)), exp("L", (y,)), exp("R", (x,)))

    lhs = product(pi(0, 1, 2), pi(3, 4, 5))
    rhs = product(exp("", (0,), (3,), (1, 5)), exp("L", (2,), (5,)), exp("R", (1,), (4,)))
    return lhs, rhs


WEYL_COORDINATES = ("x", "y")


def weyl_sides(order):
    """Both sides of the reorder rule e^(yL) e^(xR) = e^(xy) e^(xR) e^(yL)
    as series in the ``WEYL_COORDINATES``, truncated at ``order``."""
    def exp(word, idx):
        """exp(x^idx[0] y^idx[1] word); the identity series where that
        monomial is past the order."""
        s = {}
        s_add_term(s, idx, -1, word, order)
        return s_exp(s, order) if s else {(0, 0): {"": Fraction(1)}}

    lhs = s_mul(exp("L", (0, 1)), exp("R", (1, 0)), order)
    rhs = s_mul(exp("", (1, 1)), s_mul(exp("R", (1, 0)), exp("L", (0, 1)), order), order)
    return lhs, rhs


COMPOSITION_COORDINATES = ("x1", "y1", "x2", "y2", "x3", "y3", "x4", "y4")
COMPOSITION_COEFFICIENTS = (Fraction(1), Fraction(2, 3), Fraction(3), Fraction(1, 5))


def composition_sides(order):
    """Both sides of rep(k1) rep(k2) = rep(k1 twisted k2) for the kernels
    k1 = c1 a(x1, y1) + c2 a(x2, y2) and k2 = c3 a(x3, y3) + c4 a(x4, y4),
    a(x, y) = exp(y L) exp(x R) and c the ``COMPOSITION_COEFFICIENTS``,
    as series in all eight ``COMPOSITION_COORDINATES``, truncated at
    ``order``: on the right, the pair (i, j) of atoms carries
    c_i c_j exp(-x_i y_j) exp((y_i + y_j) L) exp((x_i + x_j) R)."""
    def exp(word, sign, *monomials):
        """exp(sign (sum of the monomials) word), each monomial a tuple
        of the coordinates it multiplies."""
        s = {}
        for slots in monomials:
            s_add_term(s, tuple(slots.count(k) for k in range(8)), -sign, word, order)
        return s_exp(s, order) if s else {(0,) * 8: {"": Fraction(1)}}

    def atom(i):
        x, y = 2 * i, 2 * i + 1
        return s_scale(s_mul(exp("L", 1, (y,)), exp("R", 1, (x,)), order),
                       COMPOSITION_COEFFICIENTS[i])

    lhs = s_mul(s_add(atom(0), atom(1)), s_add(atom(2), atom(3)), order)
    rhs = {}
    for i in (0, 1):
        for j in (2, 3):
            xi, yi, xj, yj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
            pair = s_mul(exp("", -1, (xi, yj)), exp("L", 1, (yi,), (yj,)), order)
            pair = s_mul(pair, exp("R", 1, (xi,), (xj,)), order)
            c = COMPOSITION_COEFFICIENTS[i] * COMPOSITION_COEFFICIENTS[j]
            rhs = s_add(rhs, s_scale(pair, c))
    return lhs, rhs


def m_vec(a, v):
    """Matrix times column vector."""
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def v_mat(v, a):
    """Row vector times matrix."""
    return [
        sum((v[i] * a[i][j] for i in range(len(a))), Fraction(0))
        for j in range(len(a[0]))
    ]


# -- sparse integer columns summed in dicts ----------------------------

def _dict_column(parts):
    """sum c * column over the (c, (rows, values)) pairs in ``parts``,
    accumulated in a {row: value} dict, as canonical (rows, values)."""
    acc = {}
    for c, (rows, vals) in parts:
        for i, x in zip(rows, vals):
            acc[i] = acc.get(i, 0) + c * x
    rows = tuple(sorted(i for i, v in acc.items() if v))
    return rows, tuple(acc[i] for i in rows)


def sparse_mul(a, b):
    """a @ b on lists of (rows, values) columns."""
    return [_dict_column([(x, a[k]) for k, x in zip(rows, vals)]) for rows, vals in b]


def sparse_comb(terms):
    """sum c * M over the (c, M) pairs in ``terms``, M lists of
    (rows, values) columns of one length."""
    return [_dict_column([(c, m[j]) for c, m in terms]) for j in range(len(terms[0][1]))]


# -- classical polynomial families -------------------------------------

def falling_factorial(n):
    """t(t-1)...(t-n+1) as a coefficient list."""
    out = [Fraction(1)]
    for k in range(n):
        out = p_mul(out, [Fraction(-k), Fraction(1)])
    return out


def rising_factorial(n):
    out = [Fraction(1)]
    for k in range(n):
        out = p_mul(out, [Fraction(k), Fraction(1)])
    return out


def hermite_he(n):
    """Probabilists' Hermite He_n by the textbook recurrence."""
    a, b = [Fraction(1)], [Fraction(0), Fraction(1)]
    if n == 0:
        return a
    for k in range(1, n):
        a, b = b, p_add(p_mul([Fraction(0), Fraction(1)], b), p_scale(a, -k))
    return b


def raising_from_basis(basis):
    """Dense grid R[row][col] with R p_n = (n+1) p_{n+1}, for a basis
    p_0..p_N given as coefficient lists (p_n of exact degree n, its list
    of length n+1 to N+1).  Each monomial t^j is expanded in the basis
    by a triangular solve, t^j = sum_n g_n p_n, and sent to
    sum_{n<N} g_n (n+1) p_{n+1}: the top term g_N (N+1) p_{N+1} has no
    image in the space and is dropped."""
    size = len(basis)
    grid = [[Fraction(0)] * size for _ in range(size)]
    for j in range(size):
        residual = [Fraction(0)] * size
        residual[j] = Fraction(1)
        for n in range(j, -1, -1):
            g = residual[n] / basis[n][n]
            if not g:
                continue
            for i, c in enumerate(basis[n]):
                residual[i] -= g * c
            if n + 1 < size:
                for i, c in enumerate(basis[n + 1]):
                    grid[i][j] += g * (n + 1) * c
    return grid


def normal_moment(k):
    """E X^k for X ~ N(0,1): (k-1)!! for even k, 0 for odd."""
    if k % 2:
        return Fraction(0)
    out = Fraction(1)
    for j in range(1, k, 2):
        out *= j
    return out


def binom(n, k):
    return Fraction(factorial(n), factorial(k) * factorial(n - k))


# -- Bessel-ladder constants and the classical normalized function -----

def bessel_c(nu, n):
    """prod_{k=1..n} 2k(2k + nu - 1), the even-ladder normalizer."""
    nu = Fraction(nu)
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= 2 * k * (2 * k + nu - 1)
    return out


def normalized_bessel(nu, lam, t):
    """Gamma(a+1) (2/x)^a J_a(x) with a = (nu-1)/2, x = sqrt(lam) t,
    through mpmath's independent Bessel implementation."""
    a = (mpmath.mpf(nu) - 1) / 2
    x = mpmath.sqrt(mpmath.mpf(lam)) * mpmath.mpf(t)
    if x == 0:
        return 1.0
    val = mpmath.gamma(a + 1) * (2 / x) ** a * mpmath.besselj(a, x)
    return float(val)


def mp_integral(f, a, b):
    """High-precision reference quadrature."""
    return float(mpmath.quad(f, [a, b]))


def bessel_series_fraction(nu, lam, t):
    """sum_n (-lam t^2)^n / c_n, summed term by term in Fractions
    through the first n > isqrt(|lam t^2|) + 2 with
    |term_n| < 1e-25 / 2^k, as a Fraction; float() of it rounds once.
    For lam > 0, k >= 0 is the fewest halvings of 1e-25 that reach 2^-60
    of the envelope Gamma(a+1) (2/x)^a sqrt(2/(pi x)) of j_nu,
    a = (nu-1)/2, x = sqrt(lam t^2), taken from mpmath; else k = 0."""
    z = Fraction(lam) * Fraction(t) ** 2
    nu = Fraction(nu)
    k = 0
    if z > 0:
        a = (mpmath.mpf(nu.numerator) / nu.denominator - 1) / 2
        x = mpmath.sqrt(mpmath.mpf(z.numerator) / z.denominator)
        envelope = mpmath.gamma(a + 1) * (2 / x) ** a * mpmath.sqrt(2 / (mpmath.pi * x))
        k = max(0, int(mpmath.ceil(mpmath.log(mpmath.mpf(2) ** 60 / (10**25 * envelope), 2))))
    stop = Fraction(1, 10**25 << k)
    term = acc = Fraction(1)
    n = 0
    peak = isqrt(int(abs(z))) + 2
    while True:
        n += 1
        term *= -z / (2 * n * (2 * n + nu - 1))
        acc += term
        if n > peak and abs(term) < stop:
            return acc


# -- ladder axioms as plain first-failure searches ---------------------
#
# A model is a dict of dense Fraction lists: the ladder matrices "L" and
# "R" as lists of rows, their truncation marks "l_marks" and "r_marks"
# (input columns whose image already lost mass above the cap), the
# vacuum row "vac", the basis "basis" (p_n at index n, each of length
# cap + 1), the set "b_marks" of basis indices flagged truncated, and
# "iota".  An image A v is tainted when v is nonzero on a column that A
# marks; a compared index is tainted when either side is.  A search
# gathers the taint over the indices it scanned, up to and including
# the first failure; a failure fails, else a taint is inconclusive.

def _touches(v, marks):
    return any(v[j] for j in marks)


def _search(cases):
    """(first index whose two sides differ, tainted) over the
    (index, lhs, rhs, tainted) cases, in order."""
    tainted = False
    for idx, lhs, rhs, marked in cases:
        tainted = tainted or marked
        if lhs != rhs:
            return idx, tainted
    return None, tainted


def _verdict(bad, tainted):
    """(status, first failure)."""
    return ("fail" if bad is not None else "inconclusive" if tainted else "pass"), bad


def lowering_search(d, top):
    """L p_n = p_{n-1} for n = 0..top, with p_{-1} = 0."""
    b, marks = d["basis"], d["b_marks"]
    zero = [Fraction(0)] * len(d["L"])
    return _search(
        (n, m_vec(d["L"], b[n]), b[n - 1] if n else zero,
         n in marks or n - 1 in marks or _touches(b[n], d["l_marks"]))
        for n in range(top + 1)
    )


def raising_search(d, top):
    """R p_n = (n+1) p_{n+1} for n = 0..top-1."""
    b, marks = d["basis"], d["b_marks"]
    return _search(
        (n, m_vec(d["R"], b[n]), p_scale(b[n + 1], n + 1),
         n in marks or n + 1 in marks or _touches(b[n], d["r_marks"]))
        for n in range(top)
    )


def commutator_search(d, top):
    """(RL - LR) p_n = -iota p_n for n = 0..top-1.  RL marks the marks
    of L and every column of L that reaches a mark of R; LR likewise."""
    low, high, b = d["L"], d["R"], d["basis"]
    size = len(low)
    marks = set(d["l_marks"]) | set(d["r_marks"])
    for j in range(size):
        if _touches([row[j] for row in low], d["r_marks"]) or _touches(
            [row[j] for row in high], d["l_marks"]
        ):
            marks.add(j)
    comm = m_add(m_mul(high, low), m_scale(m_mul(low, high), -1))
    return _search(
        (n, m_vec(comm, b[n]), p_scale(b[n], -d["iota"]),
         n in d["b_marks"] or _touches(b[n], marks))
        for n in range(top)
    )


def pairing_search(d, row, k, top):
    """<row, p_n> = delta_kn for n = 0..top."""
    return _search(
        (n, sum((x * y for x, y in zip(row, p)), Fraction(0)), Fraction(int(n == k)),
         n in d["b_marks"])
        for n, p in enumerate(d["basis"][: top + 1])
    )


def ladder_verdicts(d):
    """(status, first failure) of the four model-axiom checks."""
    top = len(d["basis"]) - 1
    return {
        "ladder-lowering": _verdict(*lowering_search(d, top)),
        "ladder-raising": _verdict(*raising_search(d, top)),
        "vacuum": _verdict(*pairing_search(d, d["vac"], 0, top)),
        "commutator": _verdict(*commutator_search(d, top)),
    }


def generating_function_verdict(d, order):
    return _verdict(*lowering_search(d, order))


def delsarte_verdict(d, order):
    """p_n(0) = delta_0n and L p_n = p_{n-1} for n <= order (the vacuum
    being evaluation at 0); at equal n the value at 0 is reported."""
    at0, tainted0 = pairing_search(d, d["vac"], 0, order)
    low, tainted = lowering_search(d, order)
    bad = None
    if at0 is not None and (low is None or at0 <= low):
        bad = ("value-at-0", at0)
    elif low is not None:
        bad = ("lowering", low)
    return _verdict(bad, tainted0 or tainted)


def biorthogonality_verdict(d):
    """<l_k, p_n> = delta_kn with l_k = vac L^k, searched k first, then
    n.  The round trip sum_k <l_k, f> p_k = f on the span then holds by
    construction, so it adds no failure of its own.  Index n is tainted
    when p_n is, or when some L^j p_n touches a mark of L, as in the
    covariant transform."""
    top = len(d["basis"]) - 1
    marks = [w0(d, p, n in d["b_marks"])[1] for n, p in enumerate(d["basis"])]
    row = d["vac"]
    for k in range(top + 1):
        n, tainted = _search(
            (n, sum((x * y for x, y in zip(row, p)), Fraction(0)), Fraction(int(n == k)), marks[n])
            for n, p in enumerate(d["basis"])
        )
        if n is not None:
            return _verdict(("pairing", k, n), tainted)
        row = v_mat(row, d["L"])
    return _verdict(None, tainted)


# -- the covariant transform by repeated lowering ----------------------
#
# "even" in the model dict says the model lives on even polynomials: a
# transform input with odd-degree content is outside its space.

class OutOfSpace(Exception):
    """A transform input left the model's graded space; the message is
    the package's, with d["label"] the model's label."""


def in_space(d, f):
    """Raise OutOfSpace at the first odd-degree coefficient of f in an
    even model."""
    if d.get("even"):
        for k in range(1, len(f), 2):
            if f[k]:
                raise OutOfSpace(
                    f"{d['label']} lives on even polynomials; "
                    f"input has a nonzero t^{k} coefficient"
                )


def w0(d, f, marked):
    """(W0 f, tainted): coefficient k is <vac, L^k f>/k! for k up to the
    top basis index, the L^k f found by applying L again and again.  The
    image is tainted when ``marked`` is or when an L^j f it applies L to
    touches a mark of L."""
    in_space(d, f)
    top = len(d["basis"]) - 1
    out = [Fraction(0)] * len(f)
    g = f
    for k in range(top + 1):
        out[k] = sum((x * y for x, y in zip(d["vac"], g)), Fraction(0)) / factorial(k)
        marked = marked or _touches(g, d["l_marks"])
        g = m_vec(d["L"], g)
        if not any(g):
            break
    return out, marked


def covariant_verdict(d):
    """W0 p_n = u^n/n! for n <= top, then W0 L p_n = d/du W0 p_n for
    1 <= n <= top, then W0 R p_n = u W0 p_n for n < top; the product by
    u taints when it pushes a coefficient past the cap.  The taint
    gathers over the three searches.  Raises OutOfSpace where a
    transform input leaves the model's space."""
    b, bm = d["basis"], d["b_marks"]
    top, size = len(b) - 1, len(b[0])

    def image(n):
        w, marked = w0(d, b[n], n in bm)
        want = [Fraction(0)] * size
        want[n] = Fraction(1, factorial(n))
        return n, w, want, marked

    def lowering(n):
        lhs, marked = w0(d, m_vec(d["L"], b[n]), n in bm or _touches(b[n], d["l_marks"]))
        rhs, rmarked = w0(d, b[n], n in bm)
        return n, lhs, p_deriv(rhs) + [Fraction(0)], marked or rmarked

    def raising(n):
        lhs, marked = w0(d, m_vec(d["R"], b[n]), n in bm or _touches(b[n], d["r_marks"]))
        rhs, rmarked = w0(d, b[n], n in bm)
        return n, lhs, [Fraction(0)] + rhs[:-1], marked or rmarked or bool(rhs[-1])

    tainted = False
    for kind, case, indices in (
        ("image", image, range(top + 1)),
        ("exchange-lowering", lowering, range(1, top + 1)),
        ("exchange-raising", raising, range(top)),
    ):
        n, marked = _search(case(n) for n in indices)
        tainted = tainted or marked
        if n is not None:
            return _verdict((kind, n), tainted)
    return _verdict(None, tainted)


# -- basis expansion by pairing with each dual -------------------------
#
# The Fraction loops that the products D f, B c and D S B replaced: each
# expansion coefficient is a pairing with one dual row vac L^k, and a
# reassembly sums scaled basis lists.  Refusals carry the package's
# messages: OutOfSpace where it raises DomainError, Leak where it raises
# ParameterError.

class Leak(Exception):
    """A squared-ladder image has a coefficient off its diagonal."""


def dual_op_by_functionals(vac, low, top):
    """The duals l_k = vac L^k for k = 0..top as plain Fraction rows,
    each pulled back from the last through the square grid low of L."""
    rows = [list(vac)]
    for _ in range(top):
        rows.append(v_mat(rows[-1], low))
    return rows


def expand(d, f):
    """<vac L^k, f> for k = 0..top, once f is known to lie in the space
    at or below the top basis degree."""
    in_space(d, f)
    top = len(d["basis"]) - 1
    top_degree = 2 * top if d.get("even") else top
    degree = max((k for k, c in enumerate(f) if c), default=-1)
    if degree > top_degree:
        raise OutOfSpace(f"degree {degree} exceeds the top basis degree {top_degree}")
    rows = dual_op_by_functionals(d["vac"], d["L"], top)
    return [sum((x * y for x, y in zip(row, f)), Fraction(0)) for row in rows]


def reassemble(d, coeffs):
    """(sum_k coeffs[k] p_k, flagged): flagged when some p_k with a
    nonzero coefficient is."""
    out = [Fraction(0)] * len(d["basis"][0])
    for k, c in enumerate(coeffs):
        if c:
            out = p_add(out, p_scale(d["basis"][k], c))
    return out, any(c and k in d["b_marks"] for k, c in enumerate(coeffs))


def metaplectic_by_expansion(d):
    """(a, b, c, tainted) of the squared ladders LL, RL + 1/2 and RR on
    q_k = p_2k, each image S p_2k expanded by pairing: lower2 q_k =
    a_k q_(k-1), z q_k = c_k q_k, raise2 q_k = b_k q_(k+1) (b_top = 0,
    not read).  For each k in turn: the lower2 and z images are expanded,
    then checked for leaks, then the raise2 image.  An image is tainted
    when p_2k is flagged or touches a word mark of S."""
    low, high = d["L"], d["R"]
    size = len(low)
    half = [[Fraction(int(i == j), 2) for j in range(size)] for i in range(size)]
    ladders = (
        (m_mul(low, low), word_marks([low, low], [d["l_marks"]] * 2, size)),
        (m_add(m_mul(high, low), half), word_marks([high, low], [d["r_marks"], d["l_marks"]], size)),
        (m_mul(high, high), word_marks([high, high], [d["r_marks"]] * 2, size)),
    )
    tainted = False

    def image(which, n):
        nonlocal tainted
        mat, marks = ladders[which]
        p = d["basis"][n]
        tainted = tainted or n in d["b_marks"] or _touches(p, marks)
        return expand(d, m_vec(mat, p))

    def entry(coeffs, n, want, what):
        for i, q in enumerate(coeffs):
            if q and i != want:
                raise Leak(f"{what} is not diagonal on {d['label']}: index {n} leaks onto {i}")
        return coeffs[want] if want >= 0 else Fraction(0)

    top = (len(d["basis"]) - 1) // 2
    a, b, c = [], [], []
    for k in range(top + 1):
        lowered, diagonal = image(0, 2 * k), image(1, 2 * k)
        a.append(entry(lowered, 2 * k, 2 * k - 2, "squared lowering"))
        c.append(entry(diagonal, 2 * k, 2 * k, "z"))
        b.append(entry(image(2, 2 * k), 2 * k, 2 * k + 2, "squared raising") if k < top else Fraction(0))
    return a, b, c, tainted


# -- two-variable identities on Fraction tables in (t, y) ---------------

def bivariate(pairs):
    """sum a(t) b(y) over the (a, b) coefficient-list pairs, as a table
    {(t-degree, y-degree): nonzero Fraction}."""
    acc = {}
    for a, b in pairs:
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if x and y:
                    acc[i, j] = acc.get((i, j), 0) + x * y
    return {k: q for k, q in acc.items() if q}


def table_difference(a, b):
    """Smallest (t-degree, y-degree) where the two tables differ."""
    return min((k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0)), default=None)


def binomial_verdict(d, n):
    """p_n(t+y) = sum_k p_k(t) p_{n-k}(y); the shifted side expanded by
    the binomial theorem.  Tainted when any of p_0..p_n is flagged."""
    b = d["basis"]
    shifted = {}
    for j, c in enumerate(b[n]):
        if c:
            for i in range(j + 1):
                shifted[i, j - i] = shifted.get((i, j - i), 0) + c * binom(j, i)
    bad = table_difference(shifted, bivariate((b[k], b[n - k]) for k in range(n + 1)))
    return _verdict(bad, any(k in d["b_marks"] for k in range(n + 1)))


def character_verdict(d, order):
    """sum_{k<=a} (L^k p_a)(t) p_k(y) = sum_i p_{a-i}(t) p_i(y) for each
    a <= order, failing at (a, first differing cell).  L^k p_a is
    tainted when p_a is or when an earlier L^j p_a touches a mark of L."""
    b = d["basis"]
    tainted = False
    for a in range(order + 1):
        pairs = []
        g, marked = b[a], a in d["b_marks"]
        for k in range(a + 1):
            pairs.append((g, b[k]))
            tainted = tainted or marked
            marked = marked or _touches(g, d["l_marks"])
            g = m_vec(d["L"], g)
        cell = table_difference(bivariate(pairs), bivariate((b[a - i], b[i]) for i in range(a + 1)))
        if cell is not None:
            return _verdict((a, cell), tainted)
    return _verdict(None, tainted)


# -- the transmutation check through Poly images -----------------------

def _in_space(m, op, f):
    """op f, refused as the model refuses an input outside its space."""
    require_model_input(m, f)
    return op.apply(f)


def transmutation_by_poly(src, dst):
    """The transmutation-intertwining report as the ``Poly`` loop gave
    it: V L_src p_n = L_dst V p_n for n = 1..N, then V R_src p_n =
    R_dst V p_n for n = 0..N-1, with V = ``umbral_map`` and each image's
    flag the taint."""
    params = {"src": src.label(), "dst": dst.label()}
    bad, tainted = None, False
    for kind, on_src, on_dst, indices in (
        ("lowering", src.lowering, dst.lowering, range(1, src.n_max + 1)),
        ("raising", src.raising, dst.raising, range(src.n_max)),
    ):
        for n in indices:
            lhs = umbral_map(src, dst, _in_space(src, on_src, src.basis[n]))
            rhs = _in_space(dst, on_dst, umbral_map(src, dst, src.basis[n]))
            tainted |= lhs.truncated or rhs.truncated
            if lhs != rhs:
                bad = (kind, n)
                break
        if bad is not None:
            break
    return VerificationReport(
        check="transmutation-intertwining",
        model=f"{src.label()} -> {dst.label()}",
        params=params,
        status=status_of(bad, tainted),
        first_failure=bad,
    )


# -- the translation through Poly --------------------------------------

def translate_by_poly(m, y, f):
    """T^y f = sum_k p_k(y) L^k f as the ``Poly`` loop summed it: each
    L^k f by ``apply``, scaled by p_k(y) (``Poly.eval`` of the basis
    view) and added when that is nonzero, so that the sum takes the flag
    of each L^k f it adds; the loop stops at the first L^k f that is
    zero, whose flag the sum takes too (a flagged zero may stand for a
    power that is not zero), and refuses a series that outlives the
    basis."""
    y = Fraction(y)
    require_model_input(m, f)
    acc = Poly([], m.degree_cap, f.truncated)
    g = f
    for k in range(m.n_max + 1):
        w = m.basis[k].eval(y)
        if w:
            acc = acc + g.scale(w)
        g = m.lowering.apply(g)
        if g.degree() < 0:
            return Poly(acc.coeffs, acc.cap, acc.truncated or g.truncated)
    raise CapMismatchError("translation series did not terminate within the basis range")
