"""Column-major array arithmetic.

All multi-dimensional data in this package uses the column-major (first
index fastest) linearisation, so ``vec(A) == A.ravel(order="F")``.  The
rotated mode transform ``rho`` multiplies a matrix onto the first mode of
an array and rotates that mode to the last position; composing it over
all modes computes a Kronecker-structured matrix-vector product

    (X_d kron ... kron X_1) vec(A) = vec(rho(X_d, ... rho(X_1, A)))

without ever forming the Kronecker matrix.  In column-major order,
reversing an array's modes is numpy's ``.T``, so the adjoint, used for
gradient evaluation, is ``rho_transposed(x, b) == rho(x.T, b.T).T`` and
``rho`` is the package's only mode transform.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .errors import ShapeError


def vec(a):
    """Column-major flatten."""
    return np.asarray(a, dtype=np.float64).ravel(order="F")


def rho(x, a):
    """Multiply ``x`` onto the first mode of ``a`` and rotate it to the last.

    ``x`` is ``n x p`` and ``a`` is ``p x r2 x ... x rd``; the result is
    ``r2 x ... x rd x n``.  For a vector ``a`` this is the ordinary
    matrix-vector product.
    """
    x = np.asarray(x, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"expected a matrix factor, got ndim={x.ndim}")
    if a.ndim == 0:
        raise ShapeError("operand must have at least one mode")
    n, p = x.shape
    if a.shape[0] != p:
        raise ShapeError(f"factor has {p} columns but operand mode-1 size is {a.shape[0]}")
    return (x @ a.reshape(p, -1, order="F")).T.reshape(a.shape[1:] + (n,), order="F")


def rho_transposed(x, b):
    """Adjoint of :func:`rho`: multiply ``x.T`` onto the last mode of ``b``
    and rotate it to the front.

    Satisfies ``<rho(x, a), b> == <a, rho_transposed(x, b)>`` exactly in
    exact arithmetic.
    """
    return rho(np.asarray(x).T, np.asarray(b).T).T


def rho_chain(factors, a):
    """Apply :func:`rho` once per mode, factors listed in mode order.

    The result's vec equals ``(X_d kron ... kron X_1) vec(a)``.
    """
    out = np.asarray(a, dtype=np.float64)
    for x in factors:
        out = rho(x, out)
    return out


def rho_transposed_chain(factors, b):
    """Adjoint of :func:`rho_chain` for the same factor list.

    The result's vec equals ``(X_d kron ... kron X_1)^T vec(b)``.
    """
    out = np.asarray(b, dtype=np.float64)
    for x in reversed(list(factors)):
        out = rho_transposed(x, out)
    return out


# -- DTA1 on-disk format ----------------------------------------------------
#
# One ASCII header line "DTA1 d N1 ... Nd\n" followed by the raw
# little-endian float64 payload in column-major order.


def write_dta1(path, a):
    """Write an array to ``path`` in the DTA1 format."""
    a = np.asarray(a, dtype=np.float64)
    dims = " ".join(str(s) for s in a.shape)
    header = f"DTA1 {a.ndim} {dims}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(a.astype("<f8", copy=False).tobytes(order="F"))


def read_dta1(path):
    """Read a DTA1 file back into an array.

    Raises :class:`ShapeError` for a malformed file: a wrong magic, a
    missing, non-integer or negative order or dimension, a dimension count
    that differs from the order, or a payload of the wrong size.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        fields = header.decode("ascii").split()
    except UnicodeDecodeError:
        fields = []
    if not fields or fields[0] != "DTA1":
        raise ShapeError(f"{path}: not a DTA1 file")
    try:
        numbers = [int(t) for t in fields[1:]]
    except ValueError:
        raise ShapeError(f"{path}: header fields must be integers: {header!r}") from None
    if not numbers or min(numbers) < 0:
        raise ShapeError(f"{path}: header needs a non-negative order and dims: {header!r}")
    order, dims = numbers[0], numbers[1:]
    if len(dims) != order:
        raise ShapeError(f"{path}: header announces {order} dims, lists {len(dims)}")
    expected = prod(dims)
    if len(payload) != 8 * expected:
        raise ShapeError(f"{path}: expected {expected} values, found {len(payload)} bytes")
    values = np.frombuffer(payload, dtype="<f8")
    return values.reshape(dims, order="F").astype(np.float64)
