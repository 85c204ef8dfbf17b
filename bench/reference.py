"""Reference data and arithmetic the output checks compare against.

Nothing here imports modchar: the decomposition matrices are the published
ones for these small groups, and the finite-field arithmetic is rebuilt in
plain Python from the Conway polynomials as tabulated in the literature
(F. Luebeck's table), so a check does not share code with the kernel under
test.
"""

from __future__ import annotations

import itertools

# Ascending coefficients of the Conway polynomials of the non-prime fields the
# matrix workload uses.
CONWAY = {
    (2, 2): (1, 1, 1),  # x^2 + x + 1
    (3, 2): (2, 2, 1),  # x^2 + 2x + 2
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),  # x^8 + x^4 + x^3 + x^2 + 1
}


class RefField:
    """GF(p^k) on packed integers sum(a_i p^i), with log tables built in Python."""

    def __init__(self, p: int, k: int):
        self.p, self.k, self.q = p, k, p**k
        if k == 1:
            return
        poly = CONWAY[(p, k)]
        exp = []
        cur = [1] + [0] * (k - 1)
        for _ in range(self.q - 1):
            exp.append(sum(c * p**i for i, c in enumerate(cur)))
            carry = cur[-1]
            cur = [0] + cur[:-1]
            if carry:
                cur = [(c - carry * poly[j]) % p for j, c in enumerate(cur)]
        self.exp = exp + exp
        self.log = {v: i for i, v in enumerate(exp)}
        if len(self.log) != self.q - 1:
            raise ValueError(f"Conway polynomial of GF({p}^{k}) is not primitive")

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        out, pw = 0, 1
        for _ in range(self.k):
            out += ((a % self.p + b % self.p) % self.p) * pw
            a //= self.p
            b //= self.p
            pw *= self.p
        return out

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def matmul(self, a, b):
        """Exact product of two packed matrices (lists or arrays), as an array.

        Extension-field entries are split into base-p digit planes, the planes
        multiplied as integer matrices, and x^s reduced through this class's own
        tables."""
        import numpy as np  # not at module level: set-up probes time the numpy import

        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        p, k = self.p, self.k
        if k == 1:
            return (a @ b) % p
        da = [(a // p**i) % p for i in range(k)]
        db = [(b // p**i) % p for i in range(k)]
        digits = np.zeros((k, a.shape[0], b.shape[1]), dtype=np.int64)
        for s in range(2 * k - 1):
            plane = sum(da[i] @ db[s - i] for i in range(max(0, s - k + 1), min(s, k - 1) + 1)) % p
            xs = self.exp[s]  # x is the Conway root, so x^s is exp[s]
            for f in range(k):
                coeff = xs // p**f % p
                if coeff:
                    digits[f] += coeff * plane
        return sum((digits[f] % p) * p**f for f in range(k))


# Ordinary degrees in table order are not fixed by relabelling, so the desk
# checks compare these up to permutations of rows and of equal-degree columns.
# Each entry: ordinary degrees, Brauer degrees, decomposition matrix (rows =
# ordinary characters, columns = irreducible Brauer characters).
DECOMPOSITION = {
    ("S3", 3): ((1, 1, 2), (1, 1), ((1, 0), (0, 1), (1, 1))),
    ("A4", 2): ((1, 1, 1, 3), (1, 1, 1), ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))),
    ("S4", 2): ((1, 1, 2, 3, 3), (1, 2), ((1, 0), (1, 0), (0, 1), (1, 1), (1, 1))),
    ("S4", 3): (
        (1, 1, 2, 3, 3),
        (1, 1, 3, 3),
        ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ),
    ("A5", 2): (
        (1, 3, 3, 4, 5),
        (1, 2, 2, 4),
        ((1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 0)),
    ),
    ("A5", 3): (
        (1, 3, 3, 4, 5),
        (1, 3, 3, 4),
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 1)),
    ),
    ("A5", 5): (
        (1, 3, 3, 4, 5),
        (1, 3, 5),
        ((1, 0, 0), (0, 1, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)),
    ),
    # p'-groups: every ordinary character stays irreducible mod p
    ("C7", 2): ((1,) * 7, (1,) * 7, tuple(tuple(int(i == j) for j in range(7)) for i in range(7))),
    ("C5", 3): ((1,) * 5, (1,) * 5, tuple(tuple(int(i == j) for j in range(5)) for i in range(5))),
}


def canonical_decomposition(row_degrees, col_degrees, matrix):
    """A form of D that is the same for every ordering of the rows and of the
    columns of equal Brauer degree: the least sorted row list over the column
    permutations that keep the Brauer degrees in ascending order."""
    cols = sorted(range(len(col_degrees)), key=lambda j: col_degrees[j])
    groups = [list(g) for _, g in itertools.groupby(cols, key=lambda j: col_degrees[j])]
    best = None
    for choice in itertools.product(*(itertools.permutations(g) for g in groups)):
        order = [j for g in choice for j in g]
        rows = sorted((row_degrees[i], tuple(row[j] for j in order)) for i, row in enumerate(matrix))
        if best is None or rows < best:
            best = rows
    return tuple(sorted(col_degrees)), tuple(best or ())


def expected_decomposition(group: str, p: int):
    rows, cols, mat = DECOMPOSITION[(group, p)]
    return canonical_decomposition(rows, cols, mat)


# Ordinary character degrees (the table's row count and |G| = sum of squares).
ORDINARY_DEGREES = {
    "S3": (1, 1, 2),
    "A4": (1, 1, 1, 3),
    "S4": (1, 1, 2, 3, 3),
    "A5": (1, 3, 3, 4, 5),
    "S5": (1, 1, 4, 4, 5, 5, 6),
    "C7": (1,) * 7,
    "C5": (1,) * 5,
}

# Blocks of the stored S5 and A5 tables: the sorted list of (sorted ordinary
# degrees, defect) over the blocks, from the p-cores of the partitions for S5
# and from the Atlas of Brauer characters for A5.
BLOCKS = {
    ("A5", 2): [((1, 3, 3, 5), 2), ((4,), 0)],
    ("A5", 3): [((1, 4, 5), 1), ((3,), 0), ((3,), 0)],
    ("A5", 5): [((1, 3, 3, 4), 1), ((5,), 0)],
    ("S5", 2): [((1, 1, 5, 5, 6), 3), ((4, 4), 1)],
    ("S5", 3): [((1, 4, 5), 1), ((1, 4, 5), 1), ((6,), 0)],
    ("S5", 5): [((1, 1, 4, 4, 6), 1), ((5,), 0), ((5,), 0)],
}
