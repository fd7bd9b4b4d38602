"""Dense tensor algebra for two- and three-leg operators on C^n.

A two-leg tensor stores coefficients r[i, j, k, l] for the element
``sum r[i,j,k,l] e_ij (x) e_kl`` of End(C^n) (x) End(C^n); a three-leg
tensor extends this with one more matrix factor.  Products contract the
matrix units factorwise: (e_ab)(e_cd) = delta_bc e_ad on every leg.
A product of two two-leg tensors placed on different leg pairs of a
three-leg tensor contracts only their shared leg; :func:`leg_product`
computes it directly instead of embedding both factors and multiplying:
one (n^3, n) x (n, n^3) matrix product, O(n^7) against the O(n^9) of the
full three-leg product.  It is a BLAS product, so its entries differ from
the ``einsum`` contraction of :mod:`aybe.bruteforce` by rounding, within
1e-14 of the product's Frobenius norm.  :func:`leg_product_array` does
the same for stacks of tensors, one batched product per call, and
:func:`_leg_gathers` lays out many products of stacked values, with
other leg pairs, for one batched product together.

Graded products.  Give the matrix unit e_ab of End(C^d) the charge
b - a mod d, and a tensor of matrix units the sum of its legs' charges.
The elliptic solutions are nonzero only at the d^3 charge-0 entries of
their d^4, and each entry depends only on the differences of its
indices: the (Z/d)^2 Heisenberg symmetry of Belavin's elliptic r-matrix.
So a value is fixed by its d x d twist table, entry t = j d + k at the d
positions (i, i+j, i+j-k, i-k) (:func:`_graded_layout`), and the graded
checks keep only the table.  A leg product of two such tensors is again
of charge 0, each of its d^5 charge-0 entries is a single multiplication,
and each is a shift (a, b, ...) -> (a + s, b + s, ...) of one of the d^4
entries with first index 0 (:func:`_graded_slice`).  :func:`_graded_plan`
gives the index arrays that form those d^4 entries from the factors'
tables: O(d^4) against the O(n^7) of the BLAS product.  The map of such a
tensor on End(C^d) splits into d circulant blocks, so its singular values
are the moduli of a DFT of the table (:func:`_twist_singular_values`), and
its doubly-traceless projection changes only the table's row 0
(:func:`_twist_project_sl`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

__all__ = [
    "MatrixTensor2",
    "MatrixTensor3",
    "from_pair",
    "identity2",
    "leg_product",
    "leg_product_array",
]


def _as_coeffs(data: np.ndarray, legs: int) -> np.ndarray:
    arr = np.asarray(data, dtype=complex)
    if arr.ndim != 2 * legs:
        raise ValueError(f"expected a {2 * legs}-dimensional array, got {arr.ndim}")
    n = arr.shape[0]
    if arr.shape != (n,) * (2 * legs):
        raise ValueError(f"expected shape {(n,) * (2 * legs)}, got {arr.shape}")
    return arr


@dataclass(frozen=True)
class MatrixTensor2:
    """Element of End(C^n) (x) End(C^n) with dense coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs, 2))

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    # --- algebra -----------------------------------------------------
    def __add__(self, other: "MatrixTensor2") -> "MatrixTensor2":
        return MatrixTensor2(self.coeffs + other.coeffs)

    def __sub__(self, other: "MatrixTensor2") -> "MatrixTensor2":
        return MatrixTensor2(self.coeffs - other.coeffs)

    def __neg__(self) -> "MatrixTensor2":
        return MatrixTensor2(-self.coeffs)

    def __mul__(self, scalar: complex) -> "MatrixTensor2":
        return MatrixTensor2(self.coeffs * scalar)

    __rmul__ = __mul__

    def mul(self, other: "MatrixTensor2") -> "MatrixTensor2":
        """Factorwise product: both matrix legs multiply independently."""
        out = np.einsum("iakb,ajbl->ijkl", self.coeffs, other.coeffs)
        return MatrixTensor2(out)

    def swap_legs(self) -> "MatrixTensor2":
        """Exchange the two tensor factors (r -> r^21)."""
        return MatrixTensor2(self.coeffs.transpose(2, 3, 0, 1))

    def sandwich(
        self,
        g1: np.ndarray,
        g2: np.ndarray,
        h1: np.ndarray,
        h2: np.ndarray,
    ) -> "MatrixTensor2":
        """Apply (g1 (x) g2) . r . (h1 (x) h2)^-1."""
        return MatrixTensor2(_sandwich(g1, g2, self.coeffs, h1, h2))

    def conjugate_legs(self, g1: np.ndarray, g2: np.ndarray) -> "MatrixTensor2":
        """Apply (g1 (x) g2) . r . (g1 (x) g2)^-1."""
        return self.sandwich(g1, g2, g1, g2)

    # --- projections and maps ----------------------------------------
    def project_sl(self) -> "MatrixTensor2":
        """Project both legs onto trace-free matrices (sl_n (x) sl_n part)."""
        return MatrixTensor2(_project_sl(self.coeffs))

    def as_map(self) -> np.ndarray:
        """Matrix of the induced linear map on n x n matrices.

        Column index flattens the input matrix unit e_ji (row j, col i);
        the map sends M to sum_{i j} r[i,j,:,:] M[j,i] read off the second
        leg, so entry [(k,l), (i,j)] multiplies M[i,j].
        """
        n = self.n
        # Phi(M)_{k l} = sum_{i j} coeffs[i, j, k, l] M[j, i]
        mat = self.coeffs.transpose(2, 3, 1, 0).reshape(n * n, n * n)
        return mat

    def rank_as_map(self) -> int:
        """Numerical rank of the induced map End(C^n) -> End(C^n)."""
        return int(_ranks_as_maps(self.coeffs[None])[0])

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    # --- embeddings ---------------------------------------------------
    def embed(self, legs: str) -> "MatrixTensor3":
        """Embed into three legs; ``legs`` names the two occupied slots."""
        return MatrixTensor3(_embed_array(self.coeffs, legs))

    # --- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        flat = self.coeffs.reshape(-1)
        return {
            "n": self.n,
            "legs": 2,
            "coeffs": [[z.real, z.imag] for z in flat],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MatrixTensor2":
        n = int(data["n"])
        if data.get("legs", 2) != 2:
            raise ValueError("not a two-leg tensor record")
        flat = np.array([complex(re, im) for re, im in data["coeffs"]])
        return cls(flat.reshape((n,) * 4))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MatrixTensor2":
        return cls.from_dict(json.loads(text))

    @classmethod
    def zeros(cls, n: int) -> "MatrixTensor2":
        return cls(np.zeros((n,) * 4, dtype=complex))


def _sandwich(g1, g2, coeffs: np.ndarray, h1, h2) -> np.ndarray:
    """(g1 (x) g2) . c . (h1 (x) h2)^-1 for every two-leg coefficient array c
    of the stack ``coeffs`` (..., n, n, n, n); the matrices are (n, n), or
    stacks of them matching the leading axes.  The result is C-contiguous,
    so that what is computed from it does not depend on the operands'
    memory layout."""
    h1i = np.linalg.inv(np.asarray(h1, dtype=complex))
    h2i = np.linalg.inv(np.asarray(h2, dtype=complex))
    return np.einsum(
        "...ia,...kc,...abcd,...bj,...dl->...ijkl",
        np.asarray(g1, dtype=complex),
        np.asarray(g2, dtype=complex),
        coeffs,
        h1i,
        h2i,
        order="C",
    )


def _project_sl(c: np.ndarray) -> np.ndarray:
    """:meth:`MatrixTensor2.project_sl` of every two-leg coefficient array of
    the stack ``c`` (..., n, n, n, n)."""
    n = c.shape[-1]
    eye = np.eye(n)
    tr1 = np.einsum("...iikl->...kl", c)
    tr2 = np.einsum("...ijkk->...ij", c)
    tr12 = np.einsum("...iikk->...", c)[..., None, None, None, None]
    return (
        c
        - np.einsum("ij,...kl->...ijkl", eye, tr1) / n
        - np.einsum("...ij,kl->...ijkl", tr2, eye) / n
        + tr12 * np.einsum("ij,kl->ijkl", eye, eye) / n**2
    )


def _ranks_as_maps(coeffs: np.ndarray) -> np.ndarray:
    """:meth:`MatrixTensor2.rank_as_map` of every coeffs[k] of an
    (N, n, n, n, n) stack, from one batched SVD.  A map with an entry that
    is not finite is ranked as the zero map, 0, as in :func:`_twist_ranks`."""
    n = coeffs.shape[-1]
    maps = coeffs.transpose(0, 3, 4, 2, 1).reshape(len(coeffs), n * n, n * n)
    finite = np.isfinite(maps).all(axis=(1, 2), keepdims=True)
    return _numerical_ranks(np.linalg.svd(np.where(finite, maps, 0), compute_uv=False), n)


def _numerical_ranks(sigma: np.ndarray, n: int) -> np.ndarray:
    """The count of each row of the (N, n^2) singular values ``sigma`` above
    n^2 * eps times the row's largest."""
    return np.count_nonzero(sigma > n**2 * np.finfo(float).eps * sigma.max(axis=1, keepdims=True), axis=1)


def _twist_singular_values(tables: np.ndarray) -> np.ndarray:
    """The (N, d^2) singular values, unsorted, of the map
    (:meth:`MatrixTensor2.as_map`) of each charge-0 tensor whose twist
    table (:func:`_graded_layout`) is tables[k], of the (N, d, d) stack.

    The map sends charge to charge, so it splits into d blocks, and block j
    is the circulant M_j[e, a] = T[j, (a - e) mod d].  A circulant is
    normal with the DFT of its row as eigenvalues, so its singular values
    are |T[j] . W|, W the d x d DFT matrix: O(d^3) per tensor against the
    O(d^6) of the dense SVD."""
    d = tables.shape[-1]
    k = np.arange(d)
    dft = np.exp((2j * np.pi / d) * (np.outer(k, k) % d))
    return np.abs(tables @ dft).reshape(len(tables), d * d)


def _twist_ranks(tables: np.ndarray) -> np.ndarray:
    """:func:`_ranks_as_maps` of the charge-0 tensors with the (N, d, d)
    twist tables ``tables``, from :func:`_twist_singular_values`."""
    return _numerical_ranks(_twist_singular_values(tables), tables.shape[-1])


def _twist_project_sl(tables: np.ndarray) -> np.ndarray:
    """:func:`_project_sl` of the charge-0 tensors with the (..., d, d)
    twist tables ``tables``, as their tables.

    Both partial traces of such a tensor are S * 1, S the sum of the
    table's row 0 (the diagonal blocks), so project_sl removes (S/d) 1 (x) 1,
    whose table is S/d on row 0 and zero elsewhere: row 0 minus its mean."""
    out = tables.copy()
    out[..., 0, :] -= tables[..., 0, :].mean(axis=-1, keepdims=True)
    return out


@dataclass(frozen=True)
class MatrixTensor3:
    """Element of End(C^n)^(x3) with dense coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs, 3))

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    def __add__(self, other: "MatrixTensor3") -> "MatrixTensor3":
        return MatrixTensor3(self.coeffs + other.coeffs)

    def __sub__(self, other: "MatrixTensor3") -> "MatrixTensor3":
        return MatrixTensor3(self.coeffs - other.coeffs)

    def __neg__(self) -> "MatrixTensor3":
        return MatrixTensor3(-self.coeffs)

    def __mul__(self, scalar: complex) -> "MatrixTensor3":
        return MatrixTensor3(self.coeffs * scalar)

    __rmul__ = __mul__

    def mul(self, other: "MatrixTensor3") -> "MatrixTensor3":
        out = np.einsum("iakbmc,ajblcn->ijklmn", self.coeffs, other.coeffs)
        return MatrixTensor3(out)

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))


# legs -> einsum spec that places a two-leg tensor (and a stack of them) on
# those two of three legs, with the identity on the third
_EMBED_SPECS = {
    "12": "...ijkl,mn->...ijklmn",
    "13": "...ijkl,mn->...ijmnkl",
    "23": "...ijkl,mn->...mnijkl",
}


def _embed_array(x: np.ndarray, legs: str) -> np.ndarray:
    """:meth:`MatrixTensor2.embed` on a stack: ``x`` of shape (..., n, n, n, n)
    gives the (..., n, n, n, n, n, n) embeddings of its entries."""
    spec = _EMBED_SPECS.get(legs)
    if spec is None:
        raise ValueError(f"legs must be '12', '13' or '23', got {legs!r}")
    return np.einsum(spec, x, np.eye(x.shape[-1], dtype=complex))


# (legs of x, legs of y) -> einsum spec of x_legs y_legs in three legs; the
# index pair of the shared leg contracts, the other two legs pass through.
# The one description of the six products: leg_product_array derives its
# matrix-product plan from it, aybe.bruteforce evaluates it as an einsum.
_LEG_PRODUCT_SPECS = {
    ("12", "13"): "iakl,ajmn->ijklmn",
    ("13", "12"): "iamn,ajkl->ijklmn",
    ("12", "23"): "ijka,almn->ijklmn",
    ("23", "12"): "kamn,ijal->ijklmn",
    ("13", "23"): "ijma,klan->ijklmn",
    ("23", "13"): "klma,ijan->ijklmn",
}


def _leg_plan(spec: str) -> tuple:
    """The axis orders that turn the einsum ``spec`` of a leg product into
    one matrix product: x's axes with the shared index last, y's with it
    first, and the permutation of the product's (x free, y free) axes into
    the output order."""
    inputs, out = spec.split("->")
    xs, ys = inputs.split(",")
    (shared,) = set(xs) & set(ys)
    x_free, y_free = xs.replace(shared, ""), ys.replace(shared, "")
    return (
        tuple(xs.index(c) for c in x_free + shared),
        tuple(ys.index(c) for c in shared + y_free),
        tuple((x_free + y_free).index(c) for c in out),
    )


_LEG_PRODUCT_PLANS = {legs: _leg_plan(spec) for legs, spec in _LEG_PRODUCT_SPECS.items()}


@lru_cache(maxsize=64)
def _leg_gathers(n: int, rows: tuple) -> tuple:
    """Flat index arrays (operands, order) that form the leg products of
    the ``rows`` (x, legs_x, y, legs_y) of stacked values in one matrix
    product.  Value k of a sample sits at k n^4 of its row of values.
    ``operands`` gathers the x of every row as the (n^3, n) matrix of
    :func:`leg_product_array`, and then the y of every row as its (n, n^3)
    matrix; ``order[r]`` takes row r's product, out of the R (n^3, n^3)
    matrix products of a sample, in output order."""
    value = np.arange(n**4).reshape((n,) * 4)
    product = np.arange(n**6).reshape((n,) * 6)
    ix, iy, order = [], [], []
    for r, (x, legs_x, y, legs_y) in enumerate(rows):
        x_axes, y_axes, perm = _LEG_PRODUCT_PLANS[(legs_x, legs_y)]
        ix.append(x * n**4 + value.transpose(x_axes).reshape(-1))
        iy.append(y * n**4 + value.transpose(y_axes).reshape(-1))
        order.append(r * n**6 + product.transpose(perm).reshape(-1))
    return np.concatenate(ix + iy), np.stack(order)


def leg_product_array(x: np.ndarray, legs_x: str, y: np.ndarray, legs_y: str) -> np.ndarray:
    """:func:`leg_product` on stacks: ``x`` and ``y`` of shape
    (..., n, n, n, n) give the (..., n, n, n, n, n, n) products of their
    entries, as one batched (n^3, n) x (n, n^3) matrix product.

    The result is a permuted view of the matrix product's output, not a
    C-contiguous array.
    """
    plan = _LEG_PRODUCT_PLANS.get((legs_x, legs_y))
    if plan is None:
        raise ValueError(
            f"legs must be two different pairs of '12', '13', '23', "
            f"got {legs_x!r} and {legs_y!r}"
        )
    x_axes, y_axes, perm = plan
    batch = x.shape[:-4]
    n = x.shape[-1]
    lead = tuple(range(len(batch)))
    xm = x.transpose(lead + tuple(len(batch) + k for k in x_axes)).reshape(batch + (n**3, n))
    ym = y.transpose(lead + tuple(len(batch) + k for k in y_axes)).reshape(batch + (n, n**3))
    prod = np.matmul(xm, ym).reshape(batch + (n,) * 6)
    return prod.transpose(lead + tuple(len(batch) + k for k in perm))


@lru_cache(maxsize=16)
def _graded_layout(d: int) -> np.ndarray:
    """The (d, d^2) flat positions (i, i+j, i+j-k, i-k) mod d of a
    (d, d, d, d) tensor that hold entry t = j d + k of its twist table: the
    d^3 charge-0 entries, (b - a) + (e - c) = 0 mod d at (a, b, c, e), each
    once.  Row i = 0 is the table itself, and the table's row j = 0 lands on
    the diagonal blocks (i, i, i', i'), k = i - i'."""
    i = np.arange(d)[:, None]
    j, k = np.divmod(np.arange(d * d), d)
    return ((i * d + (i + j) % d) * d + (i + j - k) % d) * d + (i - k) % d


@lru_cache(maxsize=16)
def _graded_swap(d: int) -> np.ndarray:
    """Indices into the twist table (:func:`_graded_layout`) that swap the
    legs: entry (a, b, c, e) of the swapped tensor is entry (c, e, a, b),
    so (j, k) -> (-j, -k)."""
    j, k = np.divmod(np.arange(d * d), d)
    return (-j % d) * d + (-k % d)


@lru_cache(maxsize=16)
def _graded_slice(d: int) -> np.ndarray:
    """The (6, d^4) indices of the charge-0 entries of a three-leg tensor
    whose first index is 0, in ascending flat order."""
    idx = np.zeros((6, d**4), dtype=np.intp)
    idx[1:5] = np.indices((d,) * 4).reshape(4, -1)
    idx[5] = (idx[4] - idx[1] + idx[2] - idx[3]) % d
    return idx


def _balance(letters: str, value: dict, d: int) -> np.ndarray:
    """The value of the one letter of the index string ``letters`` missing
    from ``value`` that gives it charge 0; the charge is the sum of the
    column indices (odd positions) minus the row indices (even ones)."""
    (missing,) = [c for c in letters if c not in value]
    rest = sum(value[c] * (1 if p % 2 else -1) for p, c in enumerate(letters) if c != missing)
    return (-rest if letters.index(missing) % 2 else rest) % d


@lru_cache(maxsize=96)
def _graded_plan(d: int, legs_x: str, legs_y: str) -> tuple:
    """Index arrays (px, py) into the twist tables (:func:`_graded_layout`)
    of x and y such that x[px] * y[py] is the product ``x_{legs_x} y_{legs_y}``
    at the entries of :func:`_graded_slice`, in that order: a factor's entry
    (a, b, c, e) is its table's entry ((b - a) mod d, (a - e) mod d).

    Products add charges, so both factors of charge 0 give a product of
    charge 0.  Given an output entry, the shared index is the one that gives
    x charge 0, so of the d terms of its sum at most one is nonzero, and an
    entry is one multiplication."""
    inputs, out = _LEG_PRODUCT_SPECS[(legs_x, legs_y)].split("->")
    xs, ys = inputs.split(",")
    value = dict(zip(out, _graded_slice(d)))
    (shared,) = set(xs) & set(ys)
    value[shared] = _balance(xs, value, d)
    return tuple(
        (value[b] - value[a]) % d * d + (value[a] - value[e]) % d for a, b, _, e in (xs, ys)
    )


def leg_product(
    x: MatrixTensor2, legs_x: str, y: MatrixTensor2, legs_y: str
) -> MatrixTensor3:
    """The product ``x_{legs_x} y_{legs_y}`` of two embedded two-leg tensors.

    Equal to ``x.embed(legs_x).mul(y.embed(legs_y))`` up to rounding, but
    O(n^7) instead of O(n^9): only the leg the two pairs share contracts,
    as one (n^3, n) x (n, n^3) BLAS matrix product.  Entries differ from the
    exact-order ``einsum`` of :func:`aybe.bruteforce.leg_product_einsum` by
    at most 1e-14 of the product's Frobenius norm.
    """
    return MatrixTensor3(leg_product_array(x.coeffs, legs_x, y.coeffs, legs_y))


def from_pair(a: np.ndarray, b: np.ndarray) -> MatrixTensor2:
    """Pure tensor a (x) b of two n x n matrices."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return MatrixTensor2(np.einsum("ij,kl->ijkl", a, b))


def identity2(n: int) -> MatrixTensor2:
    """The tensor 1 (x) 1."""
    eye = np.eye(n, dtype=complex)
    return from_pair(eye, eye)

