"""The catalog: parametric families of residuated chains and the labelled
Hasse-diagram algebras, built from figure transcriptions by table completion.

Families (canonical ascending coding, constants as in the definitions):
  goedel m      m-element chain, x*y = x/\\y, unit = top, bot designated
  rsa m         same without the bottom constant
  sugihara n    n-element Sugihara chain, f designated (= e when n is odd)
  com m n       b_m < ... < b_0 < e < a_n < ... < a_0 idempotent chain
  luk n mv|hoop (n+1)-element Lukasiewicz chain, mv designates bot and f = bot
  dmm p         truncated power chain {0} u {2^k : k <= p+1}, f = 2^p, bounded
"""
from __future__ import annotations

from .algebra import BadParameter, NoCompletion, finite_algebra

FAMILIES = ("goedel", "rsa", "sugihara", "com", "luk", "dmm")
FIGURES = ("cepfail", "strictsimp", "idem-B", "idem-C",
           "A1", "B1", "C1", "A2", "B2", "C2")


def _goedel_mult(m):
    return [[min(i, j) for j in range(m)] for i in range(m)]


def make_goedel(m):
    if m < 1:
        raise BadParameter("goedel needs m >= 1")
    labels = [str(i - m + 1) for i in range(m)]
    return finite_algebra(f"G_{m}", m, "chain", m - 1, _goedel_mult(m),
                          {"bot": 0}, labels)


def make_rsa(m):
    if m < 1:
        raise BadParameter("rsa needs m >= 1")
    labels = [str(i - m + 1) for i in range(m)]
    return finite_algebra(f"R_{m}", m, "chain", m - 1, _goedel_mult(m), {}, labels)


def make_sugihara(n):
    """S_n on {-m..-1, 1..m} (n even) or {-m..0..m} (n odd); x*y favours the
    larger absolute value and takes the meet on ties."""
    if n < 1:
        raise BadParameter("sugihara needs n >= 1")
    m = n // 2
    if n % 2:
        vals = list(range(-m, m + 1))
    else:
        vals = [v for v in range(-m, m + 1) if v != 0]
    pos = {v: i for i, v in enumerate(vals)}
    def prod(a, b):
        if abs(a) == abs(b):
            return min(a, b)
        return b if abs(a) < abs(b) else a
    mult = [[pos[prod(a, b)] for b in vals] for a in vals]
    unit = pos[0] if n % 2 else pos[1]
    f = pos[0] if n % 2 else pos[-1]
    return finite_algebra(f"S_{n}", n, "chain", unit, mult, {"f": f},
                          [str(v) for v in vals])


def make_com(m, n):
    """C(m,n): b_m < ... < b_0 < e < a_n < ... < a_0 with a_i*a_j = a_min(i,j),
    b_k*b_l = b_max(k,l), a_i*b_k = b_k."""
    if m < 0 or n < 0:
        raise BadParameter("com needs m, n >= 0")
    size = m + n + 3
    e = m + 1
    def a(i):
        return m + 2 + (n - i)  # a_n at m+2 ... a_0 on top
    def b(k):
        return m - k
    mult = [[None] * size for _ in range(size)]
    for x in range(size):
        mult[e][x] = mult[x][e] = x
    for i in range(n + 1):
        for j in range(n + 1):
            mult[a(i)][a(j)] = a(min(i, j))
        for k in range(m + 1):
            mult[a(i)][b(k)] = mult[b(k)][a(i)] = b(k)
    for k in range(m + 1):
        for l in range(m + 1):
            mult[b(k)][b(l)] = b(max(k, l))
    labels = [f"b{k}" for k in range(m, -1, -1)] + ["e"] + [f"a{i}" for i in range(n, -1, -1)]
    return finite_algebra(f"C({m},{n})", size, "chain", e, mult, {}, labels)


def make_luk(n, variant="mv"):
    """Lukasiewicz chain on {0..n}: a*b = (a + b - n) \\/ 0, unit n."""
    if n < 1:
        raise BadParameter("luk needs n >= 1")
    if variant not in ("mv", "hoop"):
        raise BadParameter("luk variant must be mv or hoop")
    size = n + 1
    mult = [[max(a + b - n, 0) for b in range(size)] for a in range(size)]
    consts = {"bot": 0, "f": 0} if variant == "mv" else {}
    tag = "L" if variant == "mv" else "W"
    return finite_algebra(f"{tag}_{n}", size, "chain", n, mult, consts,
                          [str(v) for v in range(size)])


def _primes_upto(k):
    return [p for p in range(2, k + 1) if all(p % q for q in range(2, p))]


def make_dmm(p):
    """M_p on {0} u {2^k : 0 <= k <= p+1}, product truncated at 2^(p+1)."""
    if p < 2 or p not in _primes_upto(p):
        raise BadParameter("dmm needs a prime p >= 2")
    vals = [0] + [2 ** k for k in range(p + 2)]
    cap = 2 ** (p + 1)
    pos = {v: i for i, v in enumerate(vals)}
    mult = [[pos[min(a * b, cap)] for b in vals] for a in vals]
    return finite_algebra(f"M_{p}", len(vals), "chain", pos[1], mult,
                          {"f": pos[2 ** p], "bot": 0, "top": pos[cap]},
                          [str(v) for v in vals])


_MAKERS = {"goedel": make_goedel, "rsa": make_rsa, "sugihara": make_sugihara,
           "com": make_com, "luk": make_luk, "dmm": make_dmm}


def make_family(family, *params):
    """A family member from its parameters as written in catalog addresses
    and on the command line: integers, then luk's optional variant."""
    if family not in FAMILIES:
        raise BadParameter(f"unknown family {family!r} (one of {FAMILIES})")
    arity = 2 if family == "com" else 1
    numbers, variant = params[:arity], params[arity:]
    if len(numbers) != arity or len(variant) > (family == "luk"):
        raise BadParameter(f"{family} takes {arity} integer parameter(s)"
                           + (" and an optional variant" if family == "luk" else "")
                           + f", got {list(params)}")
    try:
        numbers = [int(p) for p in numbers]
    except ValueError:
        raise BadParameter(f"{family} parameters must be integers, got {list(params)}") from None
    return _MAKERS[family](*numbers, *variant)


# -- figure transcriptions ----------------------------------------------------
#
# Node conventions: filled = idempotent, open = not idempotent; round =
# central, square = not central.  Only node flags and printed equations are
# transcribed; the completion search supplies the remaining table entries,
# and is imported only here, so that the families load without it.

def _blank(n, entries=()):
    mult = [[None] * n for _ in range(n)]
    for (i, j, v) in entries:
        mult[i][j] = v
    return mult


def _figure_partial(name):
    from .completion import PartialAlgebra
    if name == "cepfail":
        # bot < c < b < a < e;  c = c*a, bot = a*c
        return PartialAlgebra(
            name="cepfail", size=5, leq="chain", unit=4,
            mult=_blank(5, [(1, 3, 1), (3, 1, 0)]),
            labels=("bot", "c", "b", "a", "e"),
            idempotent=frozenset({0, 2, 3, 4}), non_idempotent=frozenset({1}),
            central=frozenset({0, 2, 4}), non_central=frozenset({1, 3}),
            equations=("c*a=c", "a*c=bot"))
    if name == "strictsimp":
        # bot < b < e < a;  a*b = a, b*a = b
        return PartialAlgebra(
            name="strictsimp", size=4, leq="chain", unit=2,
            mult=_blank(4, [(3, 1, 3), (1, 3, 1)]),
            labels=("bot", "b", "e", "a"),
            idempotent=frozenset({0, 1, 2, 3}),
            central=frozenset({0, 2}), non_central=frozenset({1, 3}),
            equations=("a*b=a", "b*a=b"))
    if name == "idem-B":
        # bot < a < e < top;  top*a = top, a*top = a
        return PartialAlgebra(
            name="idem-B", size=4, leq="chain", unit=2,
            mult=_blank(4, [(3, 1, 3), (1, 3, 1)]),
            labels=("bot", "a", "e", "top"),
            idempotent=frozenset(range(4)),
            central=frozenset({0, 2}), non_central=frozenset({1, 3}),
            equations=("top*a=top", "a*top=a"))
    if name == "idem-C":
        # bot < d < c < e < b < top; top*d = top, d*top = d, b*c = b,
        # c*b = c, b*d = d
        return PartialAlgebra(
            name="idem-C", size=6, leq="chain", unit=3,
            mult=_blank(6, [(5, 1, 5), (1, 5, 1), (4, 2, 4), (2, 4, 2), (4, 1, 1)]),
            labels=("bot", "d", "c", "e", "b", "top"),
            idempotent=frozenset(range(6)),
            central=frozenset({0, 3}), non_central=frozenset({1, 2, 4, 5}),
            equations=("top*d=top", "d*top=d", "b*c=b", "c*b=c", "b*d=d"))
    if name == "A1":
        # bot < e < f < top; f*f = top; negation labels as printed
        return PartialAlgebra(
            name="A1", size=4, leq="chain", unit=1,
            mult=_blank(4, [(2, 2, 3)]),
            constants={"f": 2}, labels=("bot", "e", "f", "top"),
            idempotent=frozenset({0, 1, 3}), non_idempotent=frozenset({2}),
            equations=("f*f=top", "f\\f=e", "top\\f=bot"),
            require={"commutative": True, "involutive_f": True, "square_increasing": True})
    if name == "B1":
        # bot < e < a < f < top; a = ~a, f*f = top
        return PartialAlgebra(
            name="B1", size=5, leq="chain", unit=1,
            mult=_blank(5, [(3, 3, 4)]),
            constants={"f": 3}, labels=("bot", "e", "a", "f", "top"),
            idempotent=frozenset({0, 1, 2, 4}), non_idempotent=frozenset({3}),
            equations=("f*f=top", "a\\f=a", "f\\f=e", "top\\f=bot"),
            require={"commutative": True, "involutive_f": True, "square_increasing": True})
    if name == "C1":
        # bot < e < b < f < top; b = ~b, b*b = f, f*f = top
        return PartialAlgebra(
            name="C1", size=5, leq="chain", unit=1,
            mult=_blank(5, [(2, 2, 3), (3, 3, 4)]),
            constants={"f": 3}, labels=("bot", "e", "b", "f", "top"),
            idempotent=frozenset({0, 1, 4}), non_idempotent=frozenset({2, 3}),
            equations=("b*b=f", "b\\f=b", "f*f=top", "f\\f=e", "top\\f=bot"),
            require={"commutative": True, "involutive_f": True, "square_increasing": True})
    if name in ("A2", "B2", "C2"):
        return _figure_mirror(name)
    raise BadParameter(f"unknown figure {name!r} (one of {FIGURES})")


def _figure_mirror(name):
    """Fig. 6 algebras: complete the positive cone [b, e] from its printed
    labels, then define the rest by the caption rules c*(~d) = ~(c -> d) and
    (~c)*(~d) = f.  The result is returned as a fully specified partial."""
    from .completion import PartialAlgebra, complete_partial
    if name == "A2":
        pos_labels = ("b", "a", "e")
        pos = PartialAlgebra(
            name="A2+", size=3, leq="chain", unit=2,
            mult=_blank(3, [(1, 0, 0)]),
            labels=pos_labels, idempotent=frozenset({0, 1, 2}),
            require={"commutative": True}, equations=("a*b=b",))
    elif name == "B2":
        pos_labels = ("b", "x", "a", "e")
        pos = PartialAlgebra(
            name="B2+", size=4, leq="chain", unit=3,
            mult=_blank(4, [(2, 1, 1), (1, 1, 0)]),
            labels=pos_labels, idempotent=frozenset({0, 2, 3}),
            non_idempotent=frozenset({1}),
            require={"commutative": True}, equations=("a*x=x", "x*x=b"))
    else:
        pos_labels = ("b", "z", "y", "a", "e")
        pos = PartialAlgebra(
            name="C2+", size=5, leq="chain", unit=4,
            mult=_blank(5, [(3, 1, 1), (3, 2, 1), (2, 2, 0), (1, 1, 0)]),
            labels=pos_labels, idempotent=frozenset({0, 3, 4}),
            non_idempotent=frozenset({1, 2}),
            require={"commutative": True}, equations=("a*z=z", "a*y=z", "y*y=b", "z*z=b"))
    res = complete_partial(pos)
    if res.multiplicity != 1:
        raise NoCompletion(f"positive cone of {name} is not uniquely determined "
                           f"({res.multiplicity} completions)")
    P = res.algebras[0]
    k = P.size
    n = 2 * k
    # negative copy below: index of ~p is k-1-i for positive index i;
    # positives sit at k..2k-1 in order, f = ~e at index 0
    mult = [[None] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            mult[k + i][k + j] = k + P.mult[i][j]
            # c * ~d = ~(c -> d), computed in the positive cone
            mult[k + i][k - 1 - j] = k - 1 - P.lres[i][j]
            mult[k - 1 - j][k + i] = k - 1 - P.lres[i][j]
            # ~c * ~d = f
            mult[k - 1 - i][k - 1 - j] = 0
    labels = tuple("n" + pos_labels[k - 1 - i] if pos_labels[k - 1 - i] != "e" else "f"
                   for i in range(k)) + pos_labels
    idem = frozenset({0} | {k + i for i in pos.idempotent})
    nonidem = frozenset(range(1, k)) | frozenset(k + i for i in pos.non_idempotent)
    return PartialAlgebra(
        name=name, size=n, leq="chain", unit=n - 1,
        mult=mult, constants={"f": 0}, labels=labels,
        idempotent=idem, non_idempotent=nonidem,
        equations=pos.equations,
        require={"commutative": True, "involutive_f": True, "integral": True})


def figure_completions(name):
    """CompletionResult for a figure's transcribed partial algebra."""
    from .completion import complete_partial
    return complete_partial(_figure_partial(name))


def make_figure(name):
    """The figure algebra: the unique completion, or the lexicographically
    least one (multiplicity is available via figure_completions)."""
    res = figure_completions(name)
    if not res.algebras:
        raise NoCompletion(f"figure {name!r} has no completion (transcription bug)")
    return res.algebras[0]


def catalog_all(max_size=9, include_figures=True):
    """Every family instance with size <= max_size, plus the figure algebras."""
    out = []
    for m in range(1, max_size + 1):
        out.append(make_goedel(m))
        out.append(make_rsa(m))
        out.append(make_sugihara(m))
    for n in range(1, max_size):
        out.append(make_luk(n, "mv"))
        out.append(make_luk(n, "hoop"))
    for m in range(0, max_size):
        for n in range(0, max_size):
            if m + n + 3 <= max_size:
                out.append(make_com(m, n))
    for p in _primes_upto(max_size - 3):
        out.append(make_dmm(p))
    if include_figures:
        for name in FIGURES:
            out.append(make_figure(name))
    return out


def make_entry(name, *params):
    """A family member, or a figure algebra, which takes no parameters."""
    if params and name not in FAMILIES:
        raise BadParameter(f"figure {name!r} takes no parameters, got {list(params)}")
    return make_family(name, *params) if name in FAMILIES else make_figure(name)


def resolve_catalog_name(spec):
    """Resolve 'catalog:<family>:<params>' or 'figure:<name>' addressing."""
    parts = spec.split(":")
    if parts[0] == "catalog" and len(parts) >= 2:
        if parts[1] in FAMILIES or parts[1] in FIGURES:
            return make_entry(*parts[1:])
        raise BadParameter(f"unknown catalog entry {parts[1]!r}")
    if parts[0] == "figure" and len(parts) == 2:
        return make_figure(parts[1])
    raise BadParameter(f"not a catalog address: {spec!r}")
