"""Exact integer linear algebra: Smith normal form, kernels, lattice solves.

Everything runs on Python's arbitrary-precision ints; there is no floating
point anywhere.  Matrices and factorizations are immutable values, so they
can be shared freely between threads.  A factorization applies its transforms
to a matrix by replaying its recorded operations, and builds a transform as a
matrix only when one is read as such, then keeps it; two threads that read one
at the same time may both build it, and get equal matrices.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from math import gcd
from operator import add, sub

from .record import Record, TilecohomError


class ExactAlgError(TilecohomError):
    pass


def int_tuple(values) -> tuple:
    """The values as a tuple; a float, bool, Fraction or str raises, not rounds."""
    values = tuple(values)
    if not set(map(type, values)) <= {int}:
        bad = next(x for x in values if type(x) is not int)
        raise ExactAlgError("not an integer: %r" % (bad,))
    return values


class IntMatrix(Record):
    """Immutable integer matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ExactAlgError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ExactAlgError(
                "entry count %d does not match %dx%d"
                % (len(self.entries), self.rows, self.cols)
            )

    @staticmethod
    def from_rows(rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ExactAlgError("ragged rows")
        return IntMatrix(n, m, int_tuple(chain.from_iterable(rows)))

    @staticmethod
    def zero(rows, cols):
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    @staticmethod
    def identity(n):
        return IntMatrix.unit_columns(n, range(n))

    @staticmethod
    def unit_columns(n, idx):
        """The n-row matrix whose column c is the unit vector e_idx[c]."""
        idx = tuple(idx)
        return IntMatrix(n, len(idx), tuple(1 if i == j else 0 for i in range(n) for j in idx))

    @staticmethod
    def from_columns(columns, rows=None):
        columns = [list(c) for c in columns]
        if rows is None:
            if not columns:
                raise ExactAlgError("cannot infer row count from zero columns")
            rows = len(columns[0])
        if any(len(c) != rows for c in columns):
            raise ExactAlgError("ragged columns")
        return IntMatrix(rows, len(columns),
                         int_tuple(c[i] for i in range(rows) for c in columns))

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ExactAlgError("index out of range")
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j):
        return self.entries[j::self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix(self, row_idx, col_idx):
        """The entries in rows row_idx and columns col_idx, in those orders."""
        rows = [self.row(i) for i in row_idx]
        col_idx = tuple(col_idx)
        return IntMatrix(len(rows), len(col_idx), tuple(r[j] for r in rows for j in col_idx))

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            raise TypeError("can only multiply by IntMatrix")
        if self.cols != other.rows:
            raise ExactAlgError("shape mismatch in product")
        return _from_rows(_times(self.to_rows(), other.to_rows(), other.cols), other.cols)

    def mul_vector(self, vec):
        vec = list(vec)
        if len(vec) != self.cols:
            raise ExactAlgError("vector length mismatch")
        return tuple(x for (x,) in _times(self.to_rows(), [(y,) for y in vec], 1))

    def hstack(self, other):
        if self.rows != other.rows:
            raise ExactAlgError("row mismatch in hstack")
        return _from_rows([self.row(i) + other.row(i) for i in range(self.rows)],
                          self.cols + other.cols)

    def is_zero(self):
        return all(x == 0 for x in self.entries)

    def diagonal(self):
        return self.entries[::self.cols + 1][:min(self.rows, self.cols)]


def _times(A, B, cols):
    """The product of the matrices with rows A and B, B of cols columns, as a
    list of rows.  Each nonzero a_ik adds a_ik * b_kj into entry j over the
    nonzero b_kj of row k only, so zeros in either factor cost little."""
    B = [[(j, b) for j, b in enumerate(row) if b] for row in B]
    out = []
    for row in A:
        acc = [0] * cols
        for a, nonzero in zip(row, B):
            if a:
                for j, b in nonzero:
                    acc[j] += a * b
        out.append(acc)
    return out


def _plus_times(x, q, y):
    """x + q * y entrywise, as a list.  Replays and eliminations on cell-complex
    boundaries mostly multiply by +-1, which map() adds without a product."""
    if q == 1:
        return list(map(add, x, y))
    if q == -1:
        return list(map(sub, x, y))
    return [a + q * b for a, b in zip(x, y)]


def _replay(log, rows, columns=False, inverse=False, modulus=None):
    """Apply the product of logged elementary operations to a list of rows.

    (i, k, q) is row i -= q * row k, (i, k) swaps rows i and k and (i,)
    negates row i.  The row log of A, replayed in order, applies U, and
    replayed backward with each (i, k, q) undone as row i += q * row k, it
    applies U^-1.  A column operation (j, k, q), col j -= q * col k, right-
    multiplies by E with E - I = -q e_k e_j^T; with columns, the log is
    replayed backward as row k -= q * row j to apply V, and in order as
    row k += q * row j to apply V^-1.  Swaps and negations are their own
    inverses.  With a modulus, each row an operation changes is reduced
    mod it, which gives the product mod the modulus.
    """
    for op in (reversed(log) if columns != inverse else log):
        if len(op) == 3:
            i, k, q = op
            if columns:
                i, k = k, i
            row = _plus_times(rows[i], q if inverse else -q, rows[k])
            rows[i] = [x % modulus for x in row] if modulus else row
        elif len(op) == 2:
            i, k = op
            rows[i], rows[k] = rows[k], rows[i]
        else:
            (i,) = op
            rows[i] = [-x % modulus for x in rows[i]] if modulus else [-x for x in rows[i]]
    return rows


def _from_rows(rows, cols):
    return IntMatrix(len(rows), cols, tuple(chain.from_iterable(rows)))


class SnfResult(Record):
    """U * A * V = S with U, V unimodular and S the Smith normal form of A.

    The elimination is kept as two logs of elementary operations, in the
    order applied: row_ops on the rows of A (U is their product) and col_ops
    on its columns (V).  u_times, uinv_times, v_times and vinv_times apply a
    transform to a matrix by replaying a log on its rows, so no transform is
    built to be multiplied; U and V are those replays on the
    identity, built on first read.  One factorization answers every kernel
    and lattice-solve question about A.
    """

    S: IntMatrix
    row_ops: tuple
    col_ops: tuple

    def _apply(self, M, columns, inverse, modulus=None):
        n = self.S.cols if columns else self.S.rows
        if M.rows != n:
            raise ExactAlgError("shape mismatch in product")
        if not M.cols:
            return M
        log = self.col_ops if columns else self.row_ops
        return _from_rows(_replay(log, M.to_rows(), columns, inverse, modulus), M.cols)

    def u_times(self, M: IntMatrix, modulus=None) -> IntMatrix:
        """U * M, with every row the replay changes reduced mod modulus if
        one is given: then only the residues mod modulus are U * M's."""
        return self._apply(M, False, False, modulus)

    def uinv_times(self, M: IntMatrix, modulus=None) -> IntMatrix:
        """U^-1 * M, reduced as in u_times."""
        return self._apply(M, False, True, modulus)

    def v_times(self, M: IntMatrix) -> IntMatrix:
        """V * M."""
        return self._apply(M, True, False)

    def vinv_times(self, M: IntMatrix) -> IntMatrix:
        """V^-1 * M."""
        return self._apply(M, True, True)

    @cached_property
    def U(self) -> IntMatrix:
        return self.u_times(IntMatrix.identity(self.S.rows))

    @cached_property
    def V(self) -> IntMatrix:
        return self.v_times(IntMatrix.identity(self.S.cols))

    @property
    def invariant_factors(self):
        return tuple(d for d in self.S.diagonal() if d != 0)

    @property
    def rank(self):
        return len(self.invariant_factors)

    def kernel(self) -> IntMatrix:
        """Basis of the integer kernel {x : A x = 0}, as matrix columns.

        The kernel of an integer matrix is automatically a saturated sublattice,
        and the returned basis spans it exactly: cols(A) - rank(A) columns,
        the columns r: of V.
        """
        m, r = self.S.cols, self.rank
        return self.v_times(IntMatrix.unit_columns(m, range(r, m)))

    def solve(self, B: IntMatrix) -> IntMatrix | None:
        """Some integer X with A X = B, or None if a column of B is outside
        the column span: y = U b must have rows :r divisible by the invariant
        factors and rows r: zero, and then x = V [y_:r / d; 0]."""
        Y = self.u_times(B)
        d = self.invariant_factors
        r, c = len(d), B.cols
        if any(Y.entries[r * c:]) or any(x % di for i, di in enumerate(d) for x in Y.row(i)):
            return None
        return self.v_times(IntMatrix(self.S.cols, c, tuple(
            x // di for i, di in enumerate(d) for x in Y.row(i)) + (0,) * ((self.S.cols - r) * c)))


def _smallest_pivot(a, t):
    """Position of the nonzero entry of least magnitude in a[t:, t:], or None."""
    best = None
    best_val = None
    for i in range(t, len(a)):
        for j in range(t, len(a[0])):
            v = a[i][j]
            if v != 0 and (best_val is None or abs(v) < best_val):
                best, best_val = (i, j), abs(v)
                if best_val == 1:
                    return best
    return best


def smith_normal_form(A: IntMatrix) -> SnfResult:
    """Diagonalise A over the integers.

    Gcd-driven row/column reduction.  The pivot is re-selected as the entry of
    least magnitude in the remaining submatrix after every remainder round,
    which keeps coefficient growth tame.  Once a pivot p has cleared its row
    and column, an entry of the remaining submatrix that p does not divide is
    added into the pivot row; its remainder mod p then becomes a smaller
    pivot, so the diagonal comes out as d1 | d2 | ... with no second pass.
    Only A itself is reduced; each operation is logged for the transforms.
    Rows and columns before the pivot t are zero beyond the diagonal, so
    every operation at step t touches entries t: only.
    """
    n, m = A.rows, A.cols
    a = A.to_rows()
    row_ops = []
    col_ops = []

    def row_op(i, k, q):  # row i -= q * row k
        a[i][t:] = _plus_times(a[i][t:], -q, a[k][t:])
        row_ops.append((i, k, q))

    def col_op(rows, j, k, q):  # col j -= q * col k, on the given rows
        for r in rows:
            if r[k]:
                r[j] -= q * r[k]
        col_ops.append((j, k, q))

    t = 0
    while t < n and t < m:
        pos = _smallest_pivot(a, t)
        if pos is None:
            break
        # One remainder round per pivot choice; any leftover remainder is
        # strictly smaller than the pivot, so re-selecting terminates.
        while True:
            i, j = pos
            if i != t:
                a[i], a[t] = a[t], a[i]
                row_ops.append((i, t))
            if j != t:
                for r in a[t:]:
                    r[j], r[t] = r[t], r[j]
                col_ops.append((j, t))
            p = a[t][t]
            clean = True
            for i in range(t + 1, n):
                if a[i][t]:
                    q = a[i][t] // p
                    if q:
                        row_op(i, t, q)
                    if a[i][t]:
                        clean = False
            # Once the pivot column is clear below p, a column operation
            # changes the pivot row alone.
            rows = a[t:t + 1] if clean else a[t:]
            for j in range(t + 1, m):
                if a[t][j]:
                    q = a[t][j] // p
                    if q:
                        col_op(rows, j, t, q)
                    if a[t][j]:
                        clean = False
            if clean and abs(p) > 1:
                i = next((i for i in range(t + 1, n)
                          if any(x % p for x in a[i][t + 1:])), None)
                if i is not None:
                    row_op(t, i, -1)
                    clean = False
            if clean:
                break
            pos = _smallest_pivot(a, t)
        if a[t][t] < 0:
            a[t][t] = -a[t][t]
            row_ops.append((t,))
        t += 1

    return SnfResult(S=_from_rows(a, m), row_ops=tuple(row_ops), col_ops=tuple(col_ops))


def divisor_chain(values):
    """The diagonal matrix of the given positive integers in Smith normal form:
    the same count of integers, each dividing the next.

    diag(a, b) and diag(gcd(a, b), lcm(a, b)) are equivalent, prime by prime.
    Replacing each pair i < j in turn by (gcd, lcm) leaves a_i dividing every
    later entry, so one pass over the pairs gives the chain.  A 1 changes no
    other entry, so the 1s go first and the pass runs over the rest.
    """
    a = [n for n in values if n != 1]
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            g = gcd(a[i], a[j])
            a[i], a[j] = g, a[i] // g * a[j]
    return [1] * (len(values) - len(a)) + a


def invariant_factors(A: IntMatrix) -> tuple:
    """The invariant factors d1 | d2 | ... of A, the nonzero diagonal of its
    Smith normal form, so rank A is their count: the same tuple as
    smith_normal_form(A).invariant_factors, with no operation recorded.

    Each step finds a pivot p at (i, j) with p ⊕ (the rest) equivalent to the
    matrix, records |p| and drops row i; column j is then zero and stays so.
    A row holding +-1, found by `in`, gives p at once: row operations clear
    its column.  Otherwise p starts as an entry of least magnitude, and local
    Euclid runs around it: row operations reduce its column mod p, and the
    least remainder there becomes the pivot; once the column is clear, row i
    is reduced mod p (a column operation that, with column j clear, changes
    row i alone), and the least remainder there becomes the pivot.  The
    pivots need not divide one another, so divisor_chain orders them.
    """
    a = [r for r in A.to_rows() if any(r)]
    diag = []
    while a:
        i = next((i for i, r in enumerate(a) if 1 in r or -1 in r), None)
        if i is None:
            i, j = _smallest_pivot(a, 0)
        else:
            j = a[i].index(1) if 1 in a[i] else a[i].index(-1)
        while True:
            row = a[i]
            p = row[j]
            support = [c for c, x in enumerate(row) if x]
            rest = []
            for k, r in enumerate(a):
                x = r[j]
                if x and k != i:
                    q = x // p
                    if q:
                        for c in support:
                            r[c] -= q * row[c]
                    if r[j]:
                        rest.append(k)
            if rest:
                i = min(rest, key=lambda k: abs(a[k][j]))
                continue
            if p in (1, -1):
                break
            row = a[i] = [x % p for x in row]
            row[j] = p
            rest = [c for c, x in enumerate(row) if x and c != j]
            if not rest:
                break
            j = min(rest, key=lambda c: abs(row[c]))
        diag.append(abs(p))
        del a[i]
        a = [r for r in a if any(r)]
    return tuple(divisor_chain(diag))


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel {x : A x = 0}, as matrix columns."""
    return smith_normal_form(A).kernel()


def solve_in_lattice(A: IntMatrix, b) -> tuple | None:
    """Some integer x with A x = b, or None if b is outside the column span."""
    b = int_tuple(b)
    x = smith_normal_form(A).solve(IntMatrix(len(b), 1, b))
    return None if x is None else x.entries


def determinant(A: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise ExactAlgError("determinant of non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    a = A.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def inverse_unimodular(A: IntMatrix) -> IntMatrix:
    """Integer inverse of a unimodular matrix (from U A V = I: A^-1 = V U)."""
    if A.rows != A.cols:
        raise ExactAlgError("inverse of non-square matrix")
    snf = smith_normal_form(A)
    if any(d != 1 for d in snf.S.diagonal()) or snf.rank != A.rows:
        raise ExactAlgError("matrix is not unimodular")
    return snf.v_times(snf.u_times(IntMatrix.identity(A.rows)))
