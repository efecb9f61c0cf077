"""Matrix-free regression design over the array data.

The autoregression stacks one ``D x p`` design block per modeled frame,
but that matrix is never built.  Its action decomposes into three parts
evaluated through mode transforms on small marginal factors:

* stimulus block: ``phi_t kron phi_y kron phi_x`` acting on ``alpha``,
* propagation block: ``conv kron int_y kron int_x`` acting on ``beta``,
  where ``conv`` is the ``M x (p_x p_y p_l)`` convolution tensor of
  basis-weighted lagged field sums,
* memory block: a Hadamard product of the one-step-lagged data with the
  spatial field spanned by ``gamma``.

Each part is a :class:`_KronBlock`.  A :class:`_StackedBlock` puts blocks
side by side: over all three it is the ``X`` of :func:`linear_predictor`
and :func:`gradient`, over network and memory the solver's joint block.
An :class:`ImplicitDesign` builds its blocks once and keeps them.

The design owns the precision weighting: each block carries the design's
``omega`` and is the only code that applies it, so ``X^T Omega r`` has one
implementation.  A block's ``gram()`` is its normal operator ``X^T (I_M
kron Omega) X`` in factored form, built on first use and kept, whose size
depends on the basis dimensions only: a Kronecker product of small factor
Grams per block (Currie, Durban & Eilers 2006), plus a dense
network-memory cross term for the joint block.  Building it costs one
pass over the data.  The solver iterates on a Gram's restriction to a
working set of coordinates, ``restrict(W)``: the dense ``G[W, W]``
gathered from the factors while it holds no more entries than the Gram
itself, the full apply between a scatter and a gather otherwise.  Its
periodic KKT checks, which grow the working set, use the full ``apply``.

The response for modeled frame ``k`` is observation frame ``k + 1``.  The
lagged frame ``k`` enters as a fixed offset, so the regression target is
the frame-to-frame increment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from typing import Optional

import numpy as np

from .arrays import rho_chain, rho_transposed_chain
from .bases import DriftCoefficients
from .errors import ShapeError


def compute_convolution_tensor(data, basis):
    """Rows of basis-weighted lagged sums, shape ``(M, p_x * p_y * p_l)``.

    Row ``k`` contracts the ``n_lags`` frames before frame ``k`` with the
    pointwise source bases and the lag-interval integrals; it equals the
    mode-transform chain of the transposed marginals applied to the lag
    window, vectorized column-major.
    """
    grid = basis.grid
    n_lags, n_steps = grid.n_lags, grid.n_steps
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 3 or data.shape[:2] != (grid.n_x, grid.n_y):
        raise ShapeError(f"data has shape {data.shape}, expected ({grid.n_x}, {grid.n_y}, frames)")
    if data.shape[2] < n_steps + n_lags:
        raise ValueError(
            f"insufficient history: need at least {n_steps + n_lags} frames, got {data.shape[2]}"
        )
    # Contract the spatial modes once for all frames, then fold every lag
    # window (frames k-L .. k-1 of the model clock) against the lag integrals.
    spatial = rho_chain([basis.phi_x.T, basis.phi_y.T], data)  # (frames, p_x, p_y)
    windows = np.lib.stride_tricks.sliding_window_view(spatial, n_lags, axis=0)[:n_steps]
    rows = np.einsum("kabw,wq->kabq", windows, basis.int_l)
    # column-major order of (a, b, q) within each row
    return rows.transpose(0, 3, 2, 1).reshape(n_steps, -1)


@dataclass(frozen=True)
class ImplicitDesign:
    """Factors and data views needed to act with the design matrix.

    ``response`` holds frames ``1..M``; ``v_lag1`` the frames ``0..M-1``,
    which enter as a fixed additive term and feed the memory block.
    ``omega`` optionally weights frames by a precision matrix during
    fitting; it enters only through the design's blocks.
    """

    basis: object
    response: np.ndarray
    v_lag1: np.ndarray
    phi_xyt: np.ndarray
    omega: Optional[np.ndarray] = None

    @property
    def grid(self):
        return self.basis.grid

    @property
    def target(self):
        """Response minus the lagged frames: the one-step increments."""
        return self.response - self.v_lag1

    @cached_property
    def blocks(self):
        """The design's blocks by name, built once: the parts of ``X``, all
        of ``X`` (``design``), the solver's joint ``network+memory`` block,
        and the rank-one stimulus's factor blocks.  All carry the design's
        ``omega`` but ``stimulus-zeta``, which acts on time profiles."""
        b, omega = self.basis, self.omega
        shapes = b.coef_shapes
        stimulus = _KronBlock("stimulus", [b.phi_x, b.phi_y, b.phi_t], shapes["stimulus"],
                              omega=omega)
        network = _KronBlock("network", [b.int_x, b.int_y, self.phi_xyt], shapes["network"],
                             omega=omega)
        memory = _KronBlock("memory", [b.phi_x, b.phi_y], shapes["memory"],
                            multiplier=self.v_lag1, omega=omega)
        blocks = (
            stimulus, network, memory,
            _StackedBlock("design", [stimulus, network, memory]),
            _StackedBlock("network+memory", [network, memory]),
            _KronBlock("stimulus-eta", [b.phi_x, b.phi_y], shapes["stimulus"][:-1], omega=omega),
            _KronBlock("stimulus-zeta", [b.phi_t], shapes["stimulus"][-1:]),
        )
        return {block.name: block for block in blocks}

    def with_omega(self, omega):
        """The same data weighted by ``omega``, with blocks of its own."""
        return replace(self, omega=omega)


def build_design(data, basis, response="levels"):
    """Slice the observed frames into an :class:`ImplicitDesign`.

    Frame ``k+1`` is regressed with frame ``k`` as a fixed offset;
    ``'levels'`` is the only ``response`` convention.
    """
    if response != "levels":
        raise ValueError(f"unknown response convention {response!r}")
    grid = basis.grid
    data = np.asarray(data, dtype=np.float64)
    expected = (grid.n_x, grid.n_y, grid.n_frames)
    if data.shape != expected:
        raise ShapeError(f"data has shape {data.shape}, expected {expected}")
    n_lags, n_steps = grid.n_lags, grid.n_steps
    return ImplicitDesign(
        basis=basis,
        response=data[:, :, n_lags + 1 : n_lags + n_steps + 1],
        v_lag1=data[:, :, n_lags : n_lags + n_steps],
        phi_xyt=compute_convolution_tensor(data, basis),
    )


class _Block:
    """What every design block shares: the design's precision ``omega``
    (``None`` when unweighted), the one place where it meets the data, and
    the normal operator, built on the first :meth:`gram` call and kept."""

    _gram = None

    def weigh(self, fieldarr):
        """``(I_M kron Omega) r``: every frame of ``r`` times ``Omega``."""
        if self.omega is None:
            return fieldarr
        flat = fieldarr.reshape(self.omega.shape[0], -1, order="F")
        return (self.omega @ flat).reshape(fieldarr.shape, order="F")

    def weighted_adjoint(self, fieldarr):
        """``X^T (I_M kron Omega) r``; the loss gradient at residual ``r``
        is its negative."""
        return self.adjoint(self.weigh(fieldarr))

    def gram(self):
        """The normal operator ``X^T (I_M kron Omega) X`` in factored form."""
        if self._gram is None:
            self._gram = self._build_gram()
        return self._gram


class _KronBlock(_Block):
    """One design block: a chain of mode factors, optionally followed by a
    Hadamard multiplier, acting on a coefficient array.

    Coefficient modes beyond the last factor are folded (column-major) into
    that factor's mode.  A multiplier adds the frame mode: the chain's
    output is repeated over the frames and multiplied by it, and the
    adjoint sums over the frames.
    """

    def __init__(self, name, factors, coef_shape, multiplier=None, omega=None):
        self.name = name
        self.factors = [np.asarray(f, dtype=np.float64) for f in factors]
        self.coef_shape = tuple(coef_shape)
        last = len(self.factors) - 1
        self.kron_shape = self.coef_shape[:last] + (math.prod(self.coef_shape[last:]),)
        self.multiplier = multiplier
        self.omega = omega

    def predict(self, coef):
        arr = np.asarray(coef, dtype=np.float64).reshape(self.kron_shape, order="F")
        out = rho_chain(self.factors, arr)
        if self.multiplier is not None:
            out = out[..., None] * self.multiplier
        return out

    def adjoint(self, fieldarr):
        arr = fieldarr
        if self.multiplier is not None:
            arr = (arr * self.multiplier).sum(axis=-1)
        out = rho_transposed_chain(self.factors, arr)
        return out.reshape(self.coef_shape, order="F")

    def spatial(self):
        """The first two factors folded into ``S = F_y kron F_x``."""
        if len(self.factors) == 1:
            return self.factors[0]
        return np.kron(self.factors[1], self.factors[0])

    def _build_gram(self):
        """The spatial pair enters as one matrix: the Gram is ``S^T (Omega o
        V V^T) S``, with ``V`` the multiplier as a ``(D, M)`` matrix,
        followed by the other factors' own Grams.  Without ``Omega`` the
        weight ``I o V V^T`` is diagonal, kept as the vector ``sum_k
        v_k^2``; without a multiplier it is ``Omega``; with neither the
        first factor is ``S^T S``.
        """
        spatial = self.spatial()
        weight = self.omega
        if self.multiplier is not None:
            v = self.multiplier.reshape(spatial.shape[0], -1, order="F")
            weight = (v * v).sum(axis=1) if weight is None else weight * (v @ v.T)
        if weight is None:
            head = spatial.T @ spatial
        elif weight.ndim == 1:
            head = (spatial.T * weight) @ spatial
        else:
            head = spatial.T @ weight @ spatial
        return _Gram([head] + [f.T @ f for f in self.factors[2:]], self.coef_shape)


class _GramBase:
    """What both Gram forms share: the restriction to a working set.

    ``size`` counts the entries the Gram stores, ``n_coef`` its
    coordinates; the subclass supplies ``apply`` and ``submatrix``.
    """

    def restrict(self, index):
        """``G[W, W]`` as a function on W-vectors, for sorted flat
        (column-major) coordinate indices ``index``.  It is the dense
        ``submatrix`` while that holds no more entries than the Gram
        stores, and otherwise the full apply between a scatter into and a
        gather from a full-length vector.
        """
        index = np.asarray(index, dtype=np.intp)
        if index.size ** 2 <= self.size:
            return self.submatrix(index).__matmul__

        def apply(vector):
            full = np.zeros(self.n_coef)
            full[index] = vector
            return np.ravel(self.apply(full), order="F")[index]
        return apply


class _Gram(_GramBase):
    """A block's normal operator as a Kronecker product of small symmetric
    factors, applied by mode products: its size depends on the basis
    dimensions only, not on the frame or pixel count.  The factors are
    square, so their orders are the Kronecker shape, into which the
    coefficients of ``coef_shape`` fold column-major.

    ``lipschitz`` is its largest eigenvalue, the product of the factors'
    top eigenvalues; ``diagonal`` (coefficient-shaped) the product of the
    factors' diagonals.
    """

    def __init__(self, factors, coef_shape):
        self.factors = factors
        self.coef_shape = coef_shape
        self.kron_shape = tuple(len(f) for f in factors)
        self.n_coef = math.prod(coef_shape)
        self.size = sum(f.size for f in factors)
        self.lipschitz = float(np.prod([np.linalg.eigvalsh(f)[-1] for f in factors]))

    @property
    def diagonal(self):
        diag = reduce(np.multiply.outer, [np.diag(f) for f in self.factors])
        return diag.reshape(self.coef_shape, order="F")

    def apply(self, coef):
        arr = np.reshape(coef, self.kron_shape, order="F")
        return rho_chain(self.factors, arr).reshape(self.coef_shape, order="F")

    def submatrix(self, index, out=None):
        """Dense ``G[W, W]``: entry ``(i, j)`` is the product over the
        factors of their entries at the modes of ``i`` and ``j``.  Written
        into ``out`` (a ``|W| x |W|`` array or view) when given."""
        modes = np.unravel_index(np.asarray(index, dtype=np.intp), self.kron_shape, order="F")
        if out is None:
            out = np.empty((len(index), len(index)))
        out[...] = self.factors[0][np.ix_(modes[0], modes[0])]
        for factor, mode in zip(self.factors[1:], modes[1:]):
            out *= factor[np.ix_(mode, mode)]
        return out


class _StackedBlock(_Block):
    """Blocks side by side, ``[X_1 X_2 ...]``, acting on one flat vector that
    concatenates the parts' column-major coefficients in block order."""

    def __init__(self, name, blocks):
        self.name = name
        self.blocks = list(blocks)
        self._bounds = np.cumsum([0] + [int(np.prod(b.coef_shape)) for b in self.blocks])
        self.coef_shape = (int(self._bounds[-1]),)
        self.omega = self.blocks[0].omega

    def split(self, coef):
        """Views of the flat vector in the parts' coefficient shapes."""
        return [np.ravel(coef)[lo:hi].reshape(b.coef_shape, order="F")
                for b, lo, hi in zip(self.blocks, self._bounds[:-1], self._bounds[1:])]

    def stack(self, parts):
        return np.concatenate([np.ravel(p, order="F") for p in parts])

    def predict(self, coef):
        preds = [b.predict(part) for b, part in zip(self.blocks, self.split(coef))]
        return sum(preds[1:], preds[0])

    def adjoint(self, fieldarr):
        return self.stack([b.adjoint(fieldarr) for b in self.blocks])

    def _build_gram(self):
        """A :class:`_StackedGram` from the parts' own Grams and their cross
        term; defined for the network+memory pair, which the solver
        fits."""
        network, memory = self.blocks
        return _StackedGram([network.gram(), memory.gram()], _cross_gram(network, memory))


class _StackedGram(_GramBase):
    """Normal operator of ``[X_1 X_2]``: the parts' Grams on the diagonal
    and the dense cross term ``C = X_1^T (I_M kron Omega) X_2`` off it.

    ``lipschitz`` holds per-coordinate constants: ``2 L_b`` on the
    coordinates of part ``b``, with ``L_b`` its exact constant.  They
    majorize the stacked normal operator, because ``X^T X <= 2 diag(X_1^T
    X_1, X_2^T X_2)`` for ``X = [X_1 X_2]``.  ``diagonal`` is the parts'
    diagonals, stacked.
    """

    def __init__(self, grams, cross):
        self.grams = grams
        self.cross = cross
        self.lipschitz = np.repeat([2 * g.lipschitz for g in grams], cross.shape)
        self.n_coef = sum(cross.shape)
        self.size = sum(g.size for g in grams) + cross.size

    @property
    def diagonal(self):
        return np.concatenate([np.ravel(g.diagonal, order="F") for g in self.grams])

    def apply(self, coef):
        coef = np.ravel(coef)
        left, right = coef[:len(self.cross)], coef[len(self.cross):]
        top, bottom = self.grams
        return np.concatenate([np.ravel(top.apply(left), order="F") + self.cross @ right,
                               np.ravel(bottom.apply(right), order="F") + self.cross.T @ left])

    def submatrix(self, index):
        """Dense ``G[W, W]``: the parts' own submatrices on the diagonal,
        rows and columns of the cross term off it."""
        index = np.asarray(index, dtype=np.intp)
        split = int(np.searchsorted(index, len(self.cross)))
        left, right = index[:split], index[split:] - len(self.cross)
        top, bottom = self.grams
        out = np.empty((index.size, index.size))
        top.submatrix(left, out=out[:split, :split])
        out[:split, split:] = self.cross[np.ix_(left, right)]
        out[split:, :split] = out[:split, split:].T
        bottom.submatrix(right, out=out[split:, split:])
        return out


def _cross_gram(left, right):
    """Dense ``X_left^T (I_M kron Omega) X_right`` for a left block without
    multiplier (two spatial factors, then a time factor ``T``) and a right
    block whose multiplier ``V`` repeats a spatial chain over the frames:
    the network and memory blocks.

    Column ``b`` of ``X_right`` is ``V`` scaled row-wise by the spatial
    column ``s_b``, so column ``b`` of the cross term is ``vec((Omega
    S_left o s_b)^T (V T))``: one contraction of the data with ``T``, then
    one over the pixels per column.
    """
    s_left = left.weigh(left.spatial())
    s_right = right.spatial()
    u = right.multiplier.reshape(s_right.shape[0], -1, order="F") @ left.factors[2]
    cross = np.empty((s_left.shape[1] * u.shape[1], s_right.shape[1]))
    for b, column in enumerate(s_right.T):
        cross[:, b] = ((s_left * column[:, None]).T @ u).ravel(order="F")
    return cross


def network_block(design):
    """The design's network block, ``conv kron int_y kron int_x``."""
    return design.blocks["network"]


def linear_predictor(coeffs, design):
    """Action of the design on the coefficients, shape ``(n_x, n_y, M)``."""
    coeffs.validate(design.basis)
    block = design.blocks["design"]
    return block.predict(block.stack(coeffs.arrays()))


def gradient(residual, design):
    """Adjoint design action on a (precision-weighted) residual array.

    Returns the three blocks of ``X^T (Omega r)`` as a
    :class:`DriftCoefficients`; the gradient of the squared-error loss at
    the point with residual ``r`` is the negative of this.
    """
    residual = np.asarray(residual, dtype=np.float64)
    if residual.shape != design.response.shape:
        raise ShapeError(f"residual has shape {residual.shape}, expected {design.response.shape}")
    block = design.blocks["design"]
    alpha, beta, gamma = block.split(block.weighted_adjoint(residual))
    return DriftCoefficients(alpha=alpha, beta=beta, gamma=gamma)


def model_parameter_count(p_x, p_y, p_t, p_l):
    """Total coefficient count of the three tensor-expanded components."""
    return p_x * p_y * p_t + (p_x * p_y) ** 2 * p_l + p_x * p_y


def naive_var_parameter_count(n_lags, n_pixels):
    """Parameter count of an unrestricted lag-``L`` vector autoregression."""
    return n_lags * n_pixels**2
