"""Convex compact domains given by linear minimization oracles.

A domain is known to the solvers only through its exact linear
minimization oracle (LMO), plus `enclosing_radius` where a bound is
known.  Polytope-like domains attain the minimum at an extreme point;
ties are broken by lowest index so that repeated runs are deterministic.
"""

from __future__ import annotations

import numpy as np

from .oracles import _norm_bound, integer, reals

__all__ = [
    "Domain",
    "Simplex",
    "Ball",
    "Product",
    "FiniteAtoms",
]


class Domain:
    """A domain given by its LMO: subclasses define dim, lmo and, where
    it is known, enclosing_radius."""

    dim: int

    def lmo(self, c):
        """Return (point, value) minimizing <c, .> over the domain."""
        raise NotImplementedError

    def enclosing_radius(self):
        """Radius of the smallest origin-centered ball containing the set."""
        raise NotImplementedError

    def _check_query(self, c):
        c = np.asarray(c, dtype=float)
        if c.shape != (self.dim,):
            raise ValueError(
                f"query dimension {c.shape} does not match domain dim {self.dim}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite entries in LMO query")
        return c


class Simplex(Domain):
    """Standard probability simplex in R^n, n a positive integer."""

    def __init__(self, n):
        self.n = self.dim = integer(n, "simplex dimension")
        if self.n < 1:
            raise ValueError(f"simplex dimension must be >= 1, not {self.n}")

    def lmo(self, c):
        c = self._check_query(c)
        j = int(np.argmin(c))  # argmin returns the first (lowest-index) minimizer
        point = np.zeros(self.n)
        point[j] = 1.0
        return point, float(c[j])

    def enclosing_radius(self):
        return 1.0

    def __repr__(self):
        return f"Simplex({self.n})"


class Ball(Domain):
    """Euclidean ball {x: ||x - center|| <= radius}; the center goes through
    `reals`."""

    def __init__(self, center, radius):
        self.center = reals(center, "center")
        self.radius = float(radius)
        if not 0 < self.radius < np.inf:  # NaN too
            raise ValueError(f"ball radius must be finite and positive, not {self.radius}")
        self.dim = self.center.shape[0]

    def lmo(self, c):
        c = self._check_query(c)
        nc = np.linalg.norm(c)
        if nc == 0.0:
            return self.center.copy(), float(c @ self.center)
        point = self.center - self.radius * c / nc
        return point, float(c @ self.center) - self.radius * nc

    def enclosing_radius(self):
        return float(np.linalg.norm(self.center)) + self.radius

    def __repr__(self):
        return f"Ball(dim={self.dim}, radius={self.radius})"


class Product(Domain):
    """Direct product of domains; the LMO works blockwise."""

    def __init__(self, factors):
        self.factors = list(factors)
        if not self.factors:
            raise ValueError("product of zero domains")
        self.dim = sum(f.dim for f in self.factors)
        self.offsets = np.cumsum([0] + [f.dim for f in self.factors])

    def blocks(self, x):
        x = np.asarray(x, dtype=float)
        return [x[self.offsets[i]:self.offsets[i + 1]] for i in range(len(self.factors))]

    def lmo(self, c):
        c = self._check_query(c)
        points, value = [], 0.0
        for f, b in zip(self.factors, self.blocks(c)):
            p, v = f.lmo(b)
            points.append(p)
            value += v
        return np.concatenate(points), value

    def enclosing_radius(self):
        return float(np.sqrt(sum(f.enclosing_radius() ** 2 for f in self.factors)))

    def __repr__(self):
        return f"Product({self.factors!r})"


class FiniteAtoms(Domain):
    """Convex hull of a finite list of points, the rows of a 2-d `atoms`;
    the LMO scans the read-only copy that `reals` takes here and returns a
    read-only view of a row.  The enclosing radius, the largest row norm,
    is computed here and must be finite."""

    def __init__(self, atoms):
        self.atoms = reals(atoms, "atoms", 2)
        if np.ndim(atoms) != 2:
            raise ValueError("atoms must be a 2-d array, one row per atom")
        self.dim = self.atoms.shape[1]
        self._radius = _norm_bound(lambda: np.linalg.norm(self.atoms, axis=1).max(), "atoms")

    def lmo(self, c):
        c = self._check_query(c)
        vals = self.atoms @ c
        j = int(np.argmin(vals))
        return self.atoms[j], float(vals[j])

    def enclosing_radius(self):
        return self._radius

    def __repr__(self):
        return f"FiniteAtoms(n={self.atoms.shape[0]}, dim={self.dim})"

