"""Exact rational arithmetic and truncated multivariate polynomial algebra.

Every generator has degree 1 and a truncation order t, meaning g^t = 0; a
generator may instead carry a rewrite relation g^t = (lower g-powers), which
is how projective-bundle rings are realised.  Generators are grouped into
blocks so that rings of the form A(X)^{\\otimes l} know their factor
structure and can be acted on by block permutations.

Representation.  A `TruncPoly` stores its terms as packed monomials bucketed
by total degree, with `int` numerators over one common denominator:

* Packed monomials.  Each ring computes its layout once
  (`RingDescriptor._layout`): generator i owns a bit field of w_i value bits,
  with w_i the bit length of 2(t_i - 1), so the field holds the sum of any two
  normal-form exponents, followed by one guard bit.  Multiplying monomials is
  one int add.  The bias mask holds 2^{w_i} - t_i in every field, so adding it
  sets the guard bit of exactly those fields whose exponent reached t_i, and
  carries never cross into the next field.  One add and one AND against the
  guard bits of the plain (relation-free) generators is then the truncation
  test; the same sum ANDed with the guard bits of the related generators
  finds the terms that need the z^r rewrite.
* The rewrite.  For a related generator z with relation power r the layout
  holds the normal form of z^e for every e in r..2(r-1), the largest power a
  product of two normal forms reaches, so each rewrite is one pass over a
  precomputed table (`_reduce_terms`).  Relation terms involve only plain
  generators and z itself, so rewriting one related generator never raises
  another, and exponents never outgrow their fields.
* Degree buckets.  Every relation is homogeneous, so the rewrite preserves
  degree, and a normal-form monomial has degree at most
  `RingDescriptor.max_degree`.  A product of a degree-i bucket with a
  degree-j bucket therefore vanishes once i + j exceeds it, and is never
  formed.
* Top-degree pairing.  On every ring here the integral of a class is the
  coefficient of the one normal-form monomial of degree `max_degree` (all
  exponents t_i - 1), and `top_pairing(a, b)` reads that coefficient of
  a * b without forming the product.  Each ring keeps a pre-top table
  (`RingDescriptor._pre_top`): every packed monomial p of degree
  `max_degree` that is a sum of two normal forms and whose normal form has
  a nonzero top coefficient, mapped to that coefficient, computed with
  `_reduce_terms` itself.  Rewriting one related generator never raises
  another, so a related exponent below r - 1 stays below it and leaves the
  top coefficient 0: every related exponent of an entry lies in
  r - 1..2(r - 1).  The table is enumerated by that excess over r - 1,
  taken off the plain exponents as a deficit, never over the full box.  A
  product of projective spaces has the table {top: 1}.  The pairing then
  visits only the bucket pairs (k, max_degree - k); for each monomial m of
  the smaller bucket and each entry p, it looks up p - m in the other
  bucket, skipping the entries that cannot pair with m: p - m is a normal
  form only if each related exponent of p exceeds m's by at most r - 1, so
  the entries are kept per packed related exponents of m
  (`RingDescriptor._pre_top_by_related`).  That one subtraction is exact:
  each field difference is at most 2(t_i - 1) < 2^{w_i} in size, and fields
  sit w_i + 1 bits apart, so distinct signed field vectors pack to distinct
  ints, and p - m equals a normal-form key only when no field of m exceeds
  p's.  The result is one `Fraction` over the product of the two
  denominators.
* Block products.  When the monomials of two normal forms use disjoint
  generators, as classes placed in distinct blocks of a power ring do, each
  exponent of their product comes from one factor, so it stays below its
  truncation and no relation applies, and the packed fields cannot carry
  into each other.  The product is then a normal form whose keys are sums
  of the factors' keys, and distinct key pairs give distinct sums, so
  `block_products` forms such products with no kernel product and no
  rewrite.  A class reaches another ring only by moving fields
  (`move_fields`): one mask and shift per run of adjacent fields, for
  placing a class in a block or permuting blocks (`map_blocks`) and for the
  bundle pullback and pushforward.
* Coefficients.  Numerators are ints over one positive denominator, and the
  pair (denominator, numerators) is kept reduced, so two equal polynomials
  have identical storage.  Relation coefficients are integers (Chern classes
  of line bundles are), so the rewrite stays in the integers.

`Fraction` and exponent tuples appear only where data enters or leaves: the
`TruncPoly(ring, terms)` constructor, the `.terms` mapping (built on first
use), `coefficient`, `to_dict` and `repr`.

All values are immutable after construction and all operations are pure.
Results never depend on term iteration order: coefficients are exact and
serialization is fixed to lexicographic order on exponent vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, product
from math import comb, factorial, gcd, lcm
from operator import or_
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DomainError, RingMismatchError

Monomial = tuple[int, ...]

__all__ = [
    "Monomial",
    "Relation",
    "RingDescriptor",
    "TruncPoly",
    "series_inverse",
    "top_pairing",
    "block_products",
    "move_fields",
    "permute_blocks",
    "map_blocks",
    "binomial",
    "factorial",
    "compositions",
    "DegreePolynomial",
    "poly_interpolate",
]


@dataclass(frozen=True)
class Relation:
    """Rewrite rule gen^power = sum of lower-order terms."""

    gen: int
    power: int
    terms: tuple[tuple[Monomial, Fraction], ...]


class _Layout(NamedTuple):
    """Packed-monomial layout of one ring (see the module docstring)."""

    shifts: tuple[int, ...]
    value_masks: tuple[int, ...]
    bias: int
    trunc_guard: int
    rel_guard: int
    # (shift, value mask, power, table) per relation; table[e - power] holds
    # the normal form of gen^e as (packed monomial, int coefficient) pairs
    rewrites: tuple[tuple[int, int, int, list], ...]

    def pack(self, mono: Monomial) -> int:
        return sum(e << s for e, s in zip(mono, self.shifts))


@dataclass(frozen=True)
class RingDescriptor:
    """Shape of a truncated polynomial ring.

    names/truncations run in parallel over the generators; ``blocks`` is a
    partition of the generator indices into factor blocks.  ``relations``
    holds at most one rewrite rule per generator (used for the tautological
    class of a projective bundle); a related generator's truncation must
    equal the relation power, so normal forms keep its exponent below it.
    Relations are homogeneous with integer coefficients, and their terms
    are normal-form monomials in the plain generators and the related
    generator itself.
    """

    names: tuple[str, ...]
    truncations: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    relations: tuple[Relation, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "truncations", tuple(self.truncations))
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        object.__setattr__(self, "relations", tuple(self.relations))
        if len(self.names) != len(self.truncations):
            raise ValueError("names and truncations must have equal length")
        if any(t < 1 for t in self.truncations):
            raise ValueError("every truncation order must be >= 1")
        seen = [i for b in self.blocks for i in b]
        if sorted(seen) != list(range(len(self.names))):
            raise ValueError("blocks must partition the generator indices")
        rel_gens = [r.gen for r in self.relations]
        if len(set(rel_gens)) != len(rel_gens):
            raise ValueError("at most one relation per generator")
        for r in self.relations:
            if self.truncations[r.gen] != r.power:
                raise ValueError("relation power must equal the generator truncation")
            for mono, coeff in r.terms:
                if len(mono) != len(self.names) or mono[r.gen] >= r.power:
                    raise ValueError("relation terms must lower the generator power")
                if sum(mono) != r.power:
                    raise ValueError("relations must be homogeneous")
                if Fraction(coeff).denominator != 1:
                    raise ValueError("relation coefficients must be integers")
                for i, e in enumerate(mono):
                    if e >= self.truncations[i] or (e and i != r.gen and i in rel_gens):
                        raise ValueError(
                            "relation terms must be normal-form monomials in the "
                            "plain generators and the related generator"
                        )

    @property
    def ngens(self) -> int:
        return len(self.names)

    @cached_property
    def _relation_map(self) -> dict[int, Relation]:
        return {r.gen: r for r in self.relations}

    @cached_property
    def max_degree(self) -> int:
        """Largest total degree of a normal-form monomial."""
        return sum(t - 1 for t in self.truncations)

    @cached_property
    def _layout(self) -> _Layout:
        shifts, value_masks = [], []
        bias = trunc_guard = rel_guard = 0
        offset = 0
        for i, t in enumerate(self.truncations):
            width = (2 * t - 2).bit_length()
            shifts.append(offset)
            value_masks.append((1 << width) - 1)
            bias |= ((1 << width) - t) << offset
            if i in self._relation_map:
                rel_guard |= 1 << (offset + width)
            else:
                trunc_guard |= 1 << (offset + width)
            offset += width + 1
        layout = _Layout(
            tuple(shifts),
            tuple(value_masks),
            bias,
            trunc_guard,
            rel_guard,
            tuple((shifts[r.gen], value_masks[r.gen], r.power, []) for r in self.relations),
        )
        for r, (shift, _, power, table) in zip(self.relations, layout.rewrites):
            row: dict[int, int] = {}
            for mono, coeff in r.terms:
                m = layout.pack(mono)
                row[m] = row.get(m, 0) + int(coeff)
            table.append(tuple((m, c) for m, c in row.items() if c))
            # gen^(e+1) = gen * (normal form of gen^e); reducing that needs
            # only the gen^power row, which is the relation itself
            for _ in range(power + 1, 2 * power - 1):
                bucket = {m + (1 << shift): c for m, c in table[-1]}
                _reduce_terms(layout, [bucket])
                table.append(tuple((m, c) for m, c in bucket.items() if c))
        return layout

    @cached_property
    def _pre_top(self) -> dict[int, int]:
        """Packed monomial -> top coefficient of its normal form, for every
        degree-`max_degree` sum of two normal forms where that is nonzero."""
        layout = self._layout
        plain = [i for i in range(self.ngens) if i not in self._relation_map]
        related = [r.gen for r in self.relations]
        top = layout.pack(tuple(t - 1 for t in self.truncations))
        table = {}
        # each related exponent runs over r - 1..2(r - 1) (module docstring),
        # and its excess over r - 1 is a deficit on the plain exponents
        for excess in product(*(range(self.truncations[g]) for g in related)):
            raised = top + sum(e << layout.shifts[g] for e, g in zip(excess, related))
            for deficit in compositions(sum(excess), len(plain)):
                if any(e >= self.truncations[g] for e, g in zip(deficit, plain)):
                    continue
                mono = raised - sum(e << layout.shifts[g] for e, g in zip(deficit, plain))
                bucket = {mono: 1}
                _reduce_terms(layout, [bucket])
                if bucket.get(top):
                    table[mono] = bucket[top]
        return table

    @cached_property
    def _pre_top_by_related(self) -> tuple[int, dict[int, list]]:
        """The mask of the related fields, and for each packed value of them
        in a normal form m, the pre-top entries p whose related exponents
        are each at most m's plus r - 1, the only ones with p - m normal."""
        rewrites = self._layout.rewrites
        table = {}
        for exps in product(*(range(power) for _, _, power, _ in rewrites)):
            key = sum(e << shift for e, (shift, *_) in zip(exps, rewrites))
            table[key] = [
                (p, c)
                for p, c in self._pre_top.items()
                if all(
                    (p >> shift) & mask < e + power
                    for e, (shift, mask, power, _) in zip(exps, rewrites)
                )
            ]
        return sum(mask << shift for shift, mask, _, _ in rewrites), table

    def monomial_str(self, mono: Monomial) -> str:
        parts = [f"{n}^{e}" for n, e in zip(self.names, mono) if e]
        return "*".join(parts) if parts else "1"

    @cached_property
    def _block_signatures(self) -> tuple:
        """Per block: its truncations and relations in block-local indices,
        or None when a relation reaches outside the block."""
        return tuple(self._block_signature(b) for b in self.blocks)

    def _block_signature(self, block: tuple[int, ...]):
        local = {g: j for j, g in enumerate(block)}
        sig = []
        for j, g in enumerate(block):
            rel = self._relation_map.get(g)
            if rel is None:
                sig.append((self.truncations[g], None))
                continue
            terms = []
            for mono, coeff in rel.terms:
                loc = [0] * len(block)
                for i, e in enumerate(mono):
                    if e == 0:
                        continue
                    if i not in local:
                        return None  # relation reaches outside the block
                    loc[local[i]] = e
                terms.append((tuple(loc), int(coeff)))  # integral; ints compare fast
            sig.append((self.truncations[g], (j, rel.power, tuple(sorted(terms)))))
        return tuple(sig)


def _reduce_terms(layout: _Layout, buckets: list[dict]) -> None:
    """Rewrite in place every term whose related exponent reached its
    relation power; the caller drops the zero coefficients this leaves.

    A term's plain exponents are below their truncations on entry, and a
    rewritten term keeps its degree, so it stays in its bucket.
    """
    bias, trunc_guard, rel_guard = layout.bias, layout.trunc_guard, layout.rel_guard
    for bucket in buckets:
        for mono in [m for m in bucket if (m + bias) & rel_guard]:
            terms = [(mono, bucket.pop(mono))]
            for shift, value_mask, power, table in layout.rewrites:
                rewritten = []
                for m, c in terms:
                    e = (m >> shift) & value_mask
                    if e < power:
                        rewritten.append((m, c))
                        continue
                    rest = m - (e << shift)
                    for dm, dc in table[e - power]:
                        m2 = rest + dm
                        if not (m2 + bias) & trunc_guard:
                            rewritten.append((m2, c * dc))
                terms = rewritten
            for m, c in terms:
                bucket[m] = bucket.get(m, 0) + c


class _Terms(Mapping):
    """Read-only monomial -> Fraction view of a `TruncPoly`.  Its length
    comes from the buckets; the dict behind every other query is built on
    first use and kept on the polynomial."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "TruncPoly"):
        self._poly = poly

    def __len__(self):
        return sum(map(len, self._poly._buckets))

    def __iter__(self):
        return iter(self._poly._as_dict())

    def __getitem__(self, mono):
        return self._poly._as_dict()[mono]

    def items(self):
        return self._poly._as_dict().items()


class TruncPoly:
    """Immutable element of a truncated polynomial ring."""

    __slots__ = ("ring", "_den", "_buckets", "_dict", "_hash")

    def __init__(self, ring: RingDescriptor, terms):
        """Normal form of a sum of (monomial, coefficient) terms, given as a
        mapping or an iterable of pairs; coefficients are ints or Fractions."""
        items = terms.items() if isinstance(terms, Mapping) else terms
        layout = ring._layout
        related = ring._relation_map
        trunc = ring.truncations
        top = ring.max_degree
        normal, raised = [], []
        for mono, coeff in items:
            coeff = Fraction(coeff)
            if not coeff or sum(mono) > top:
                continue  # a relation keeps the degree, so the term reduces to 0
            over = [i for i, (e, t) in enumerate(zip(mono, trunc)) if e >= t]
            if not over:
                normal.append((mono, coeff))
            elif all(i in related for i in over):
                raised.append((mono, coeff, over[0]))
        den = lcm(*(coeff.denominator for _, coeff in normal))
        buckets: list[dict] = [{} for _ in range(top + 1)]
        for mono, coeff in normal:
            bucket = buckets[sum(mono)]
            m = layout.pack(mono)
            bucket[m] = bucket.get(m, 0) + coeff.numerator * (den // coeff.denominator)
        value = TruncPoly._make(ring, den, [{m: c for m, c in b.items() if c} for b in buckets])
        for mono, coeff, i in raised:
            # gen^e = gen^(e - power) * (its relation), multiplied out by the kernel
            lowered = list(mono)
            lowered[i] -= related[i].power
            relation = TruncPoly(ring, related[i].terms)
            value = value + TruncPoly(ring, [(tuple(lowered), coeff)]) * relation
        self.ring = ring
        self._den = value._den
        self._buckets = value._buckets
        self._dict = None
        self._hash = None

    @classmethod
    def _make(cls, ring: RingDescriptor, den: int, buckets: list[dict]) -> "TruncPoly":
        """Wrap buckets free of zero coefficients, reducing the fraction."""
        while buckets and not buckets[-1]:
            buckets.pop()
        if not buckets:
            den = 1
        elif den != 1:
            g = gcd(den, *(c for b in buckets for c in b.values()))
            if g != 1:
                den //= g
                buckets = [{m: c // g for m, c in b.items()} for b in buckets]
        obj = cls.__new__(cls)
        obj.ring = ring
        obj._den = den
        obj._buckets = buckets
        obj._dict = None
        obj._hash = None
        return obj

    def _as_dict(self) -> dict[Monomial, Fraction]:
        if self._dict is None:
            layout = self.ring._layout
            fields = tuple(zip(layout.shifts, layout.value_masks))
            den = self._den
            self._dict = {
                tuple((m >> s) & v for s, v in fields): Fraction(c, den)
                for b in self._buckets
                for m, c in b.items()
            }
        return self._dict

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring: RingDescriptor) -> "TruncPoly":
        return cls._make(ring, 1, [])

    @classmethod
    def one(cls, ring: RingDescriptor) -> "TruncPoly":
        return cls.constant(ring, 1)

    @classmethod
    def constant(cls, ring: RingDescriptor, value) -> "TruncPoly":
        value = Fraction(value)
        if not value:
            return cls.zero(ring)
        return cls._make(ring, value.denominator, [{0: value.numerator}])

    @classmethod
    def generator(cls, ring: RingDescriptor, i: int) -> "TruncPoly":
        mono = tuple(1 if j == i else 0 for j in range(ring.ngens))
        return cls(ring, [(mono, 1)])

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        return _Terms(self)

    def is_zero(self) -> bool:
        return not self._buckets

    def constant_term(self) -> Fraction:
        if not self._buckets:
            return Fraction(0)
        return Fraction(self._buckets[0].get(0, 0), self._den)

    def coefficient(self, mono: Monomial) -> Fraction:
        mono = tuple(mono)
        degree = sum(mono)
        if (
            len(mono) != self.ring.ngens
            or degree >= len(self._buckets)
            or any(not 0 <= e < t for e, t in zip(mono, self.ring.truncations))
        ):
            return Fraction(0)
        return Fraction(self._buckets[degree].get(self.ring._layout.pack(mono), 0), self._den)

    def sorted_terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(sorted(self._as_dict().items()))

    def total_degree(self) -> int:
        """Largest degree among the terms; -1 for the zero polynomial."""
        return len(self._buckets) - 1

    def graded_part(self, k: int) -> "TruncPoly":
        if not 0 <= k < len(self._buckets):
            return TruncPoly.zero(self.ring)
        return TruncPoly._make(self.ring, self._den, [{}] * k + [self._buckets[k]])

    def is_homogeneous(self) -> bool:
        return sum(1 for b in self._buckets if b) <= 1

    # -- arithmetic ---------------------------------------------------

    def _check_ring(self, other: "TruncPoly"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError("operands belong to different rings")

    def __add__(self, other):
        # a TruncPoly operand is tested first: Fraction's metaclass is
        # ABCMeta, whose instance check is slow on a miss
        if not isinstance(other, TruncPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = TruncPoly.constant(self.ring, other)
        self._check_ring(other)
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        A, B = self._buckets, other._buckets
        out = []
        for k in range(max(len(A), len(B))):
            a = A[k] if k < len(A) else {}
            b = B[k] if k < len(B) else {}
            if not b and sa == 1:
                out.append(a)  # buckets are never mutated once wrapped
                continue
            acc = dict(a) if sa == 1 else {m: c * sa for m, c in a.items()}
            for m, c in b.items():
                total = acc.get(m, 0) + c * sb
                if total:
                    acc[m] = total
                else:
                    del acc[m]
            out.append(acc)
        return TruncPoly._make(self.ring, den, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncPoly._make(
            self.ring, self._den, [{m: -c for m, c in b.items()} for b in self._buckets]
        )

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return TruncPoly.zero(self.ring)
            other = Fraction(other)
            p = other.numerator
            return TruncPoly._make(
                self.ring,
                self._den * other.denominator,
                [{m: c * p for m, c in b.items()} for b in self._buckets],
            )
        self._check_ring(other)
        ring = self.ring
        layout = ring._layout
        bias, guard = layout.bias, layout.trunc_guard
        top = ring.max_degree
        A, B = self._buckets, other._buckets
        out: list[dict] = [{} for _ in range(min(len(A) + len(B) - 1, top + 1))]
        for i, bucket_a in enumerate(A):
            if not bucket_a:
                continue
            for j in range(min(len(B), top + 1 - i)):
                bucket_b = B[j]
                if not bucket_b:
                    continue
                acc = out[i + j]
                get = acc.get
                outer, inner = bucket_a, bucket_b
                if len(outer) > len(inner):
                    outer, inner = inner, outer
                inner_items = inner.items()
                for m1, c1 in outer.items():
                    for m2, c2 in inner_items:
                        m = m1 + m2
                        if not (m + bias) & guard:
                            acc[m] = get(m, 0) + c1 * c2
        if layout.rel_guard:
            _reduce_terms(layout, out)
        return TruncPoly._make(
            ring, self._den * other._den, [{m: c for m, c in b.items() if c} for b in out]
        )

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        result = TruncPoly.one(self.ring)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, TruncPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = TruncPoly.constant(self.ring, other)
        return (
            self.ring == other.ring
            and self._den == other._den
            and self._buckets == other._buckets
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.ring, self._den, tuple(frozenset(b.items()) for b in self._buckets))
            )
        return self._hash

    def __repr__(self):
        if not self._buckets:
            return "0"
        bits = []
        for mono, coeff in self.sorted_terms():
            ms = self.ring.monomial_str(mono)
            bits.append(str(coeff) if ms == "1" else f"{coeff}*{ms}")
        return " + ".join(bits)

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict[str, str]:
        return {self.ring.monomial_str(m): str(c) for m, c in self.sorted_terms()}


def top_pairing(a: TruncPoly, b: TruncPoly) -> Fraction:
    """Top-degree coefficient of the normal form of a * b, without forming
    the product: each pre-top monomial p pairs a monomial m of one factor
    with p - m of the other, in complementary degree buckets."""
    a._check_ring(b)
    ring = a.ring
    top = ring.max_degree
    A, B = a._buckets, b._buckets
    related_mask, entries = ring._pre_top_by_related
    total = 0
    for k in range(max(0, top + 1 - len(B)), min(len(A), top + 1)):
        outer, inner = A[k], B[top - k]
        if not outer or not inner:
            continue
        if len(outer) > len(inner):
            outer, inner = inner, outer
        get = inner.get
        for m, c1 in outer.items():
            pair_sum = 0
            for p, c in entries[m & related_mask]:
                # p - m is a normal-form key exactly when no field of m
                # exceeds p's (module docstring), so a miss needs no test
                c2 = get(p - m)
                if c2:
                    pair_sum += c * c2
            total += c1 * pair_sum
    return Fraction(total, a._den * b._den)


def series_inverse(a: TruncPoly) -> TruncPoly:
    """Multiplicative inverse of a polynomial with constant term 1.

    Uses the geometric series 1/(1+u) = sum (-u)^i, which terminates because
    every positive-degree element of a truncated ring is nilpotent.
    """
    if a.constant_term() != 1:
        raise DomainError("series_inverse requires constant term 1")
    u = a - 1
    result = TruncPoly.one(a.ring)
    power = TruncPoly.one(a.ring)
    sign = 1
    for _ in range(a.ring.max_degree):
        power = power * u
        sign = -sign
        if power.is_zero():
            break
        result = result + sign * power
    return result


def block_products(
    ring: RingDescriptor, terms: Iterable[tuple[object, Sequence[TruncPoly]]]
) -> TruncPoly:
    """Sum of coefficient * product of factors, one (coefficient, factors)
    pair per term, the coefficients ints or Fractions and the factors
    classes on `ring` whose monomials use pairwise disjoint generators.
    Such a product of normal forms is a normal form (module docstring), so
    its packed keys just add, with no kernel product and no rewrite."""
    guards = ring._layout.trunc_guard | ring._layout.rel_guard
    values = (1 << guards.bit_length()) - 1 - guards  # the fields tile the bits below
    rows = []
    size = 1
    for coeff, factors in terms:
        if not coeff:
            continue
        term_den, used, degree = coeff.denominator, 0, 0
        for a in factors:
            if a.ring is not ring and a.ring != ring:
                raise RingMismatchError("block product factors must live on the product ring")
            # the OR of the factor's keys, each nonzero field carried into its
            # guard bit: one bit per generator the factor uses
            support = (reduce(or_, chain.from_iterable(a._buckets), 0) + values) & guards
            if used & support:
                raise ValueError("the factors of a block product must use disjoint generators")
            used |= support
            term_den *= a._den
            degree += len(a._buckets) - 1
        rows.append((coeff.numerator, factors, term_den))
        size = max(size, degree + 1)
    den = lcm(*(row[2] for row in rows))
    buckets: list[dict] = [{} for _ in range(size)]
    summed = False
    for num, factors, term_den in rows:
        partial = [(0, 0, 1)]  # (degree, packed key, numerator) of the product so far
        for a in factors:
            placed = [(d, k, c) for d, b in enumerate(a._buckets) for k, c in b.items()]
            if partial == [(0, 0, 1)]:
                partial = placed  # the product so far is the unit
            else:
                partial = [
                    (d1 + d2, k1 + k2, c1 * c2)
                    for d1, k1, c1 in partial
                    for d2, k2, c2 in placed
                ]
        scale = num * (den // term_den)
        for deg, key, c in partial:
            acc = buckets[deg]
            if key in acc:
                acc[key] += c * scale
                summed = True
            else:
                acc[key] = c * scale
    if summed:
        buckets = [{k: c for k, c in b.items() if c} for b in buckets]
    return TruncPoly._make(ring, den, buckets)


def move_fields(
    a: TruncPoly,
    dst: RingDescriptor,
    moves: Sequence[tuple[int, int]],
    fixed: Sequence[tuple[int, int]] = (),
) -> TruncPoly:
    """Carry a class to `dst` field by field: source generator g lands on
    destination generator h for each (g, h) in `moves`, and only the terms
    whose exponent of g is e for each (g, e) in `fixed` are kept, with
    those generators dropped.  Moved generators must share truncation and
    relation status, and related ones the relation too (the caller's
    check), so a normal form lands on a normal form."""
    src_layout, dst_layout = a.ring._layout, dst._layout
    runs: list[list[int]] = []  # [source shift, bits, destination shift]
    for g, h in sorted(moves):
        if a.ring.truncations[g] != dst.truncations[h] or (
            g in a.ring._relation_map
        ) != (h in dst._relation_map):
            raise DomainError("moved generators must share truncation and relation")
        s, t = src_layout.shifts[g], dst_layout.shifts[h]
        bits = src_layout.value_masks[g].bit_length() + 1
        if runs and runs[-1][0] + runs[-1][1] == s and runs[-1][2] + runs[-1][1] == t:
            runs[-1][1] += bits
        else:
            runs.append([s, bits, t])
    runs = [(s, (1 << bits) - 1, t) for s, bits, t in runs]
    if len(runs) == 1 and not fixed:  # one run, as when placing a class in a block
        ((s, mask, t),) = runs
        buckets = [{(k >> s & mask) << t: c for k, c in b.items()} for b in a._buckets]
        return TruncPoly._make(dst, a._den, buckets)
    fixed_mask = sum(src_layout.value_masks[g] << src_layout.shifts[g] for g, _ in fixed)
    fixed_key = sum(e << src_layout.shifts[g] for g, e in fixed)
    drop = sum(e for _, e in fixed)
    buckets = [
        {
            sum(((k >> s) & mask) << t for s, mask, t in runs): c
            for k, c in b.items()
            if k & fixed_mask == fixed_key
        }
        for b in a._buckets[drop:]
    ]
    return TruncPoly._make(dst, a._den, buckets)


def map_blocks(a: TruncPoly, dst_ring: RingDescriptor, assignment: Sequence[int]) -> TruncPoly:
    """Relabel generators block-wise: source block m lands in destination
    block assignment[m] (matched position by position), which must repeat
    its truncations and relations; the assignment must be injective."""
    src = a.ring
    if len(assignment) != len(src.blocks):
        raise ValueError("assignment must cover every source block")
    if len(set(assignment)) != len(assignment):
        raise ValueError("assignment must be injective")
    moves = []
    for m, target in enumerate(assignment):
        sig = src._block_signatures[m]  # one entry per generator
        if sig is None or sig != dst_ring._block_signatures[target]:
            raise DomainError("source and destination blocks differ in truncations or relations")
        moves.extend(zip(src.blocks[m], dst_ring.blocks[target]))
    return move_fields(a, dst_ring, moves)


def permute_blocks(a: TruncPoly, sigma: Sequence[int]) -> TruncPoly:
    """Apply a block permutation (sigma[m] = image of block m)."""
    ring = a.ring
    if sorted(sigma) != list(range(len(ring.blocks))):
        raise ValueError("sigma must be a permutation of the blocks")
    return map_blocks(a, ring, sigma)


def binomial(x, k: int) -> Fraction:
    """Generalized binomial coefficient x(x-1)...(x-k+1)/k!; zero for k < 0.

    The upper argument may be any integer or rational, so index ranges that
    run negative simply vanish instead of needing special cases.  Integral
    upper arguments go through `math.comb`, negative ones by upper negation
    binom(x, k) = (-1)^k binom(k - x - 1, k).
    """
    if k < 0:
        return Fraction(0)
    if isinstance(x, int) or (isinstance(x, Fraction) and x.denominator == 1):
        x = int(x)
        if x >= 0:
            return Fraction(comb(x, k))
        return Fraction((-1) ** k * comb(k - x - 1, k))
    num = Fraction(1)
    for i in range(k):
        num *= x - i
    return num / factorial(k)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of `parts` nonnegative integers summing to `total`,
    in lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


@dataclass(frozen=True)
class DegreePolynomial:
    """Coefficients of a univariate polynomial, index = power of the variable."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = [Fraction(c) for c in self.coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, n) -> Fraction:
        x = Fraction(n)
        total = Fraction(0)
        for c in reversed(self.coefficients):
            total = total * x + c
        return total

    def __iter__(self):
        return iter(self.coefficients)


def poly_interpolate(points: Sequence[tuple]) -> DegreePolynomial:
    """Exact interpolation through the given (x, y) pairs (Newton form)."""
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    divided = [Fraction(y) for _, y in points]
    n = len(points)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    coeffs = [Fraction(0)] * n
    basis = [Fraction(0)] * n
    basis[0] = Fraction(1)
    for i in range(n):
        for j in range(i + 1):
            coeffs[j] += divided[i] * basis[j]
        if i + 1 < n:
            new_basis = [Fraction(0)] * n
            for j in range(i + 1):
                new_basis[j + 1] += basis[j]
                new_basis[j] -= xs[i] * basis[j]
            basis = new_basis
    return DegreePolynomial(tuple(coeffs))
