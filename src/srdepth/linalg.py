"""Exact rank and cohomology over prime fields and the rationals.

Everything is exact and pure Python.  Every matrix the program builds has
int entries (coboundaries, star-functor differentials, the comparison map),
so ``ExactMatrix`` takes ints only.  The matrices met here are mostly
coboundary matrices of small complexes, with a few nonzeros per row, so the
kernels work on sparse rows.  Each incoming row is reduced against a table
of pivot rows keyed by their leading column until it either vanishes or
becomes a new pivot, and a kernel returns those leading columns.

One entry, ``_pivot_columns(rows, p)``, picks the kernel and returns the
leading columns together with a certificate: whether they are the leading
columns over every field.

* GF(2): a row is an int bitset (bit j for column j); the pivot table is an
  XOR basis keyed by the top bit.  Its ranks hold over GF(2) alone, so the
  certificate is always false.
* Q and GF(p), p odd: a row is a dict {column: int}, and the rows are
  reduced fraction-free over Z (``_pivots_q``).  The certificate says
  whether every pivot was +-1.  Such an elimination is unimodular over Z:
  the same rows reduce to the same leading columns mod every prime, so the
  rank holds over every field (Hatcher, *Algebraic Topology*, 3.1).  Over
  Q a row is divided by the gcd of its entries whenever it could have
  grown.  Mod an odd p the pass over Z is given up at the first pivot that
  is not +-1, and the rows are reduced mod p instead (``_pivots_modp``):
  pivot rows are scaled to a leading 1.

The rank does not depend on the pivot order, so every result equals that of
dense Gaussian elimination.  ``ExactMatrix`` holds its rows in the same
sparse form, whether it was built from dict rows {column: int} that list
only the entries that may be nonzero, or from rows already in kernel form
(``ExactMatrix.from_sparse``); ``rank`` keeps the leading columns and the
certificate.  Mod an odd p it holds residues in (-p/2, p/2], so an entry
written -1 is still a unit pivot over Z.

One cochain kernel, ``_cohomology``, serves every cohomology computation.
It takes the differentials lazily with one row per basis vector of the
source, goes up the degrees, drops the rows of d_n named by the leading
columns of d_{n-1} (clearing), ranks the rest for its field through
``ExactMatrix.rank``, and can stop at the first nonzero degree; given row
ids (a face filter in K's coboundary), it ranks only those rows.  It
returns the dimensions and whether every rank was certified, in which case
the dimensions are those over every field.  It checks nothing: the
differentials reach it through the lazy stream ``_checked``, which checks
d_n d_{n-1} = 0 by sparse composition as d_n is pulled.
``cohomology_dims`` is the kernel's public form; it takes the differentials
in the same orientation, as ``limits`` builds them.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt
from typing import Optional, Sequence

from .errors import BadParameter, NotAComplex, _parse_int, _quote


def _is_prime(n: int) -> bool:
    # trial division: at most 46,340 divisions below 2^31
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


class FieldSpec(namedtuple("FieldSpec", "p")):
    """Coefficient field: a prime p (arithmetic mod p) or None for the rationals."""

    __slots__ = ()

    def __new__(cls, p: Optional[int] = None):
        if p is not None:
            if type(p) is not int or not 2 <= p < 2**31:
                raise BadParameter(f"the characteristic must be an int 2 <= p < 2^31, got {_quote(p)}")
            if not _is_prime(p):
                raise BadParameter(f"{p} is not prime")
        return super().__new__(cls, p)

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """CLI grammar: ``q`` for the rationals, ``p=<prime>`` for GF(p), the
        prime in ASCII digits."""
        if text == "q":
            return cls(None)
        if text.startswith("p="):
            try:
                return cls(_parse_int(text[2:]))
            except ValueError:
                raise BadParameter(f"bad field spec {_quote(text)}") from None
        raise BadParameter(f"bad field spec {_quote(text)}; use 'q' or 'p=<prime>'")

    def __str__(self) -> str:
        return "q" if self.p is None else f"p={self.p}"

    # equal to no plain tuple, so no cache keyed on a FieldSpec answers (3,)
    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.p == other.p

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


def _require_field(field) -> FieldSpec:
    """``field`` if it is a ``FieldSpec``; else ``BadParameter``."""
    if not isinstance(field, FieldSpec):
        raise BadParameter(f"a field must be a FieldSpec, got {_quote(field)}")
    return field


QQ = FieldSpec(None)
GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)


def _not_int(x):
    raise BadParameter(f"matrix entries must be ints, got {_quote(x)}")


# -- sparse kernels ---------------------------------------------------------------


def _pivot_columns(rows, p: Optional[int]):
    """The leading columns of the reduced rows of a matrix given by sparse
    rows, one per unit of rank, and whether they lead over every field:
    int bitsets when p == 2, ranked over GF(2) alone; else dicts
    {column: value} with nonzero int values (residues need not be
    canonical), ranked over Z first by ``_pivots_q``."""
    if p == 2:
        return _pivots_gf2(rows), False
    return _pivots_q(rows, p)


def _pivots_gf2(rows):
    basis = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            pivot = basis.get(top)
            if pivot is None:
                basis[top] = row
                break
            row ^= pivot
    return basis.keys()


def _pivots_modp(rows, p: int):
    pivots = {}
    for row in rows:
        row = {c: r for c, v in row.items() if (r := v % p)}
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                if row[c] != 1:
                    inv = pow(row[c], -1, p)
                    row = {k: v * inv % p for k, v in row.items()}
                pivots[c] = row
                break
            f = row[c]
            for k, v in pivot.items():
                x = (row.get(k, 0) - f * v) % p
                if x:
                    row[k] = x
                else:
                    del row[k]
    return pivots.keys()


def _pivots_q(rows, p: Optional[int] = None):
    """The leading columns over Q, and whether every pivot was +-1 (the
    elimination was unimodular over Z, so the columns lead mod every
    prime).  With an odd ``p``, the reduction over Z is given up at the
    first pivot that is not +-1 and the columns are those mod p.

    The rows are in kernel form, dicts {column: int} with no zero entry,
    as ``ExactMatrix`` and the coboundary rows make them.  They are read
    and never written: a row is copied when it is first reduced, so one
    that becomes a pivot as it is is kept without a copy."""
    pivots, unimodular = {}, True
    for src in rows:
        row = src
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                if row[c] != 1 and row[c] != -1:
                    if p:
                        return _pivots_modp(rows, p), False
                    row, unimodular = _primitive(row), False
                pivots[c] = row
                break
            a, f = pivot[c], row[c]
            if a != 1 and a != -1:
                g = gcd(a, f)
                a, f = a // g, f // g
                if a != 1:
                    row = {k: a * v for k, v in row.items()}
            elif a == -1:
                f = -f
            if row is src:
                row = dict(row)
            for k, v in pivot.items():
                x = row.get(k, 0) - f * v
                if x:
                    row[k] = x
                else:
                    del row[k]
            if a != 1 and a != -1 and row:
                row = _primitive(row)
    return pivots.keys(), unimodular


def _primitive(row: dict) -> dict:
    """The row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {k: v // g for k, v in row.items()}


# -- matrices -------------------------------------------------------------------------


class ExactMatrix:
    """Exact matrix over a field with int entries, held as sparse rows in
    kernel form: int bitsets over GF(2), otherwise dicts {column: nonzero
    entry} holding residues mod p in (-p/2, p/2], or the ints themselves
    over Q.  It is built from dict rows {column: int}, whose entries are
    reduced to those residues, or from rows already in kernel form."""

    __slots__ = ("field", "rows", "cols", "sparse_rows", "pivots", "unimodular")

    def __init__(self, field: FieldSpec, entries: Sequence[dict], shape: tuple[int, int]):
        """Matrix of ``shape`` (rows, cols) from dict rows {column: int},
        reduced to kernel form: entries that reduce to zero are dropped, and
        empty ``entries`` mean the zero matrix.  Any other entry (a Fraction,
        a float, a bool), a key that is no int column (a bool is not), a row
        that is no dict, a shape that is not two ints >= 0, or anything but
        a sequence of rows raises ``BadParameter``."""
        if not (type(shape) is tuple and len(shape) == 2 and all(type(n) is int and n >= 0 for n in shape)):
            raise BadParameter(f"a shape needs two ints >= 0, got {_quote(shape)}")
        r, c = shape
        if not isinstance(entries, Sequence):
            raise BadParameter(f"entries must be a sequence of rows, got {_quote(entries)}")
        if entries and len(entries) != r:
            raise BadParameter("shape disagrees with entries")
        for row in entries:
            if not isinstance(row, dict):
                raise BadParameter(f"a row must be a dict {{column: int}}, got {_quote(row)}")
            if not all(type(j) is int and 0 <= j < c for j in row):
                raise BadParameter(f"a dict row has a key that is no int column 0..{c - 1}")
        entries = entries or [{}] * r
        p = _require_field(field).p
        if p is None:
            rows = [{j: x for j, x in row.items() if (x if type(x) is int else _not_int(x))} for row in entries]
        else:  # residues in (-p/2, p/2] for odd p: a -1 stays a unit pivot over Z
            h = p // 2 if p > 2 else 0
            rows = [
                {j: y for j, x in row.items() if (y := (x + h) % p - h if type(x) is int else _not_int(x))}
                for row in entries
            ]
        if p == 2:
            rows = [sum(1 << j for j in row) for row in rows]
        self.field, self.rows, self.cols, self.sparse_rows = field, r, c, rows

    @classmethod
    def from_sparse(cls, field: FieldSpec, rows: list, cols: int) -> "ExactMatrix":
        """Matrix whose rows are already in kernel form; the list is kept,
        not copied.  Mod an odd p the entries may be any nonzero ints, as
        the signed coboundary rows are: the kernel reduces them."""
        self = cls.__new__(cls)
        self.field, self.rows, self.cols, self.sparse_rows = field, len(rows), cols, rows
        return self

    def __repr__(self):
        return f"ExactMatrix({self.field}, {self.rows}x{self.cols})"

    def rank(self) -> int:
        """The rank; the leading columns of the reduced rows are kept as
        ``pivots``, and whether they lead over every field as
        ``unimodular``."""
        self.pivots, self.unimodular = _pivot_columns(self.sparse_rows, self.field.p)
        return len(self.pivots)


def _product_is_zero(left: ExactMatrix, right: ExactMatrix) -> bool:
    """Exact check that left @ right == 0 (shapes already validated)."""
    p, rows = left.field.p, right.sparse_rows
    if p == 2:
        for row in left.sparse_rows:
            acc = 0
            while row:
                b = row & -row
                row ^= b
                acc ^= rows[b.bit_length() - 1]
            if acc:
                return False
        return True
    nonzero = any if p is None else (lambda sums: any(x % p for x in sums))
    for row in left.sparse_rows:
        acc = {}
        for c, v in row.items():
            for k, w in rows[c].items():
                acc[k] = acc.get(k, 0) + v * w
        if nonzero(acc.values()):
            return False
    return True


def _checked(differentials):
    """The differentials d_0, d_1, ... (source-row orientation), passed on
    lazily; pulling d_{n+1} raises ``NotAComplex(n)`` unless d_{n+1} d_n = 0."""
    prev = None
    for n, mat in enumerate(differentials):
        if prev is not None and mat.cols and not _product_is_zero(prev, mat):
            raise NotAComplex(n - 1)
        yield mat
        prev = mat


def cohomology_dims(differentials: Sequence[ExactMatrix]) -> list[int]:
    """Cohomology dimensions of 0 -> C^0 -d0-> C^1 -> ... -> C^{N+1} -> 0.

    The n-th differential has one row per basis vector of C^n and one column
    per basis vector of C^{n+1}: shape (dim C^n, dim C^{n+1}).  Verifies
    d_{n+1} d_n = 0 and returns N+2 dimensions, H^n = ker(d_n) - im(d_{n-1}).
    Anything but ``ExactMatrix`` differentials over one field with matching
    shapes raises ``BadParameter``."""
    mats = list(differentials)
    if not mats:
        raise BadParameter("need at least one differential (possibly with zero columns)")
    for n, mat in enumerate(mats):
        if not isinstance(mat, ExactMatrix) or mat.field != mats[0].field:
            raise BadParameter(f"d_{n} = {_quote(mat)} is no ExactMatrix over the field of d_0")
        if n and mat.rows != mats[n - 1].cols:
            raise BadParameter(f"shape mismatch between d_{n - 1} and d_{n}")
    m = mats[-1]
    terminal = ExactMatrix.from_sparse(m.field, [0 if m.field.p == 2 else {}] * m.cols, 0)
    return _cohomology(_checked(mats + [terminal]), m.field)[0]


def _cohomology(differentials, field: FieldSpec, until: Optional[int] = None, rows=None):
    """Cohomology dimensions H^0, H^1, ... over ``field`` of the cochain
    complex whose differentials arrive one at a time in source-row
    orientation: the n-th has one row per basis vector of C^n and one column
    per basis vector of C^{n+1}, and the last one has no columns.  They come
    through ``_checked``, so d_n d_{n-1} = 0 holds before d_n is ranked
    here.  Their rows are in the kernel form of ``field``: bitsets over
    GF(2), else dicts of ints (integer rows serve every odd p).

    Degrees are reduced in increasing order, and the rows of d_n named by
    the pivot columns of d_{n-1} are dropped (clearing): the reduced rows of
    d_{n-1} span im d_{n-1} with distinct leading columns P, so C^n is
    im d_{n-1} plus the coordinate vectors outside P, and as d_n kills
    im d_{n-1} the rows outside P have the rank of all of them.  With
    ``until``, the walk stops after the first nonzero H^n or at degree
    ``until`` and pulls no later differential, so the result is a prefix of
    the full list.

    With ``rows``, C^n is spanned by the rows ``rows[n]`` of the n-th matrix
    alone, a cochain subcomplex closed upward, whose pivot columns are row
    ids of the next matrix; d^2 = 0 on the whole matrices covers it.

    Returns the pair (dimensions, whether every rank was certified for every
    field).  If it was, every rank and clearing set, and so every dimension,
    is the same over every field."""
    dims: list[int] = []
    cleared, prev_rank, unimodular = (), 0, True
    for n, mat in enumerate(() if until is not None and until < 0 else differentials):
        ids = range(mat.rows) if rows is None else rows[n]
        src = mat.sparse_rows
        kept = [src[i] for i in ids if i not in cleared]
        if kept:
            m = ExactMatrix.from_sparse(field, kept, mat.cols)
            m.rank()
            cleared, unimodular = m.pivots, unimodular and m.unimodular
        else:  # no row: rank 0 over every field
            cleared = ()
        dims.append(len(ids) - len(cleared) - prev_rank)
        if until is not None and (dims[-1] or n >= until):
            break
        prev_rank = len(cleared)
    return dims, unimodular
