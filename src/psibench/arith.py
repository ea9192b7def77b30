"""Small integer helpers: primality, Lucas binomials, Adem coefficients, sparse dict arithmetic."""

from __future__ import annotations

import math

# Largest prime accepted: trial division of a prime near it takes about 3 ms,
# where 10^12 takes 68 ms and 10^18 more than 20 s.
MAX_PRIME = 2**31

# Largest size in bits admitted for a p-th power, as ``atiyah._power_bits``
# bounds it: the bits of a coefficient of each power that squaring passes
# through, times the monomials that power can keep in the window.  The top
# layer of a splitting of e is e^p, so such a power can be refused but not
# avoided; see ``require_power_bits``.  A power above the window vanishes
# unbuilt, and `verify` splits only elements of positive weight under a top
# weight of at most 64, so only `atiyah` meets the budget.  On a 2-CPU host
# `atiyah --element "t + u"` on two weight-2 generators at p = D = 1,013
# (2.0M bits) takes 1.4 s, and at p = D = 10,007 exits 2 at once.
MAX_POWER_BITS = 2**21


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def validate_prime(p: int) -> int:
    if not isinstance(p, int) or p > MAX_PRIME or not is_prime(p):
        raise ValueError(f"p must be a prime integer at most MAX_PRIME={MAX_PRIME}, got {p!r}")
    return p


def lucas_binom(n: int, k: int, p: int) -> int:
    """binom(n, k) mod p by Lucas' theorem; 0 for out-of-range arguments."""
    if k < 0 or n < 0 or k > n:
        return 0
    result = 1
    while n or k:
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        result = (result * math.comb(nd, kd)) % p
        n //= p
        k //= p
    return result


def adem_coefficient(p: int, i: int, j: int, t: int) -> int:
    """Coefficient of the t-th term on the admissible side of the relation
    rewriting P^i P^j (i < pj), reduced into [0, p-1].

    For p > 2 this is (-1)^(i+t) * binom((p-1)(j-t)-1, i-pt); for p = 2 it is
    binom(2j-2t-1, 2i-4t).  Out-of-range binomials vanish.
    """
    validate_prime(p)
    if i <= 0 or j <= 0 or i >= p * j:
        raise ValueError(f"need i, j > 0 and i < pj, got i={i}, j={j}")
    if t < 0 or t > i // p:
        raise ValueError(f"t must lie in [0, floor(i/p)], got t={t}")
    if p == 2:
        return lucas_binom(2 * j - 2 * t - 1, 2 * i - 4 * t, 2)
    sign = -1 if (i + t) % 2 else 1
    return (sign * lucas_binom((p - 1) * (j - t) - 1, i - p * t, p)) % p


def require_power_bits(bits: int, what: str) -> None:
    """The one size rule for p-th powers: refuse with ValueError, before it
    is built, a power estimated at more than ``MAX_POWER_BITS`` bits."""
    if bits > MAX_POWER_BITS:
        raise ValueError(f"{what} needs about {bits} bits, above "
                         f"MAX_POWER_BITS={MAX_POWER_BITS}")


def add_into(terms: dict, items, scale: int = 1, mod: int | None = None) -> None:
    """Add scale * c * m into ``terms`` for each (m, c) of ``items``, reduced
    mod ``mod``.  Each scale * c must be nonzero mod ``mod``, so a sum that
    cancels names a term already there; it leaves at once, and the others
    keep the order that adding one element at a time gives."""
    get = terms.get
    for m, c in items:
        c = get(m, 0) + scale * c
        if mod is not None:
            c %= mod
        if c:
            terms[m] = c
        else:
            del terms[m]


def exact_quotient(terms: dict, k: int) -> dict:
    """{m: c/k} for the terms c*m, refused unless k divides every c."""
    out = {}
    for m, c in terms.items():
        q, r = divmod(c, k)
        if r:
            raise ArithmeticError(f"coefficient {c} not divisible by {k}")
        out[m] = q
    return out


def band_cut(items, weight, q: int, p: int, count: int, n: int, less=()) -> list:
    """The one band splitting of a psi image at level q, given by its items
    (m, c) of weight >= 2q: ``count`` term dicts, dict i < count - 1 holding
    the terms of weight in [2q + 2i(p-1), 2q + 2(i+1)(p-1)) and the last the
    rest less the items ``less``, each dict i divided exactly by p^(n-i).
    ``weight`` maps a term's key to its weight."""
    step, last = 2 * (p - 1), count - 1
    bands = [{} for _ in range(count)]
    for m, c in items:
        bands[min((weight(m) - 2 * q) // step, last)][m] = c
    add_into(bands[last], less, -1)
    return [exact_quotient(band, p ** (n - i)) if band and i < n else band
            for i, band in enumerate(bands)]
