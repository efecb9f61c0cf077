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

A block's ``gram(omega)`` is its normal operator ``X^T (I_M kron Omega)
X`` in factored form, whose size depends on the basis dimensions only: a
Kronecker product of small factor Grams per block (Currie, Durban & Eilers
2006), plus a dense network-memory cross term for the joint block.  The
solver iterates on it; building it costs one pass over the data.

The response for modeled frame ``k`` is observation frame ``k + 1``.  The
lagged frame ``k`` enters as a fixed offset, so the regression target is
the frame-to-frame increment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .arrays import rho_chain, rho_transposed_chain
from .bases import DriftCoefficients
from .errors import ShapeError


def compute_convolution_tensor(data, basis, n_lags=None):
    """Rows of basis-weighted lagged sums, shape ``(M, p_x * p_y * p_l)``.

    Row ``k`` contracts the ``n_lags`` frames before frame ``k`` with the
    pointwise source bases and the lag-interval integrals; it equals the
    mode-transform chain of the transposed marginals applied to the lag
    window, vectorized column-major.
    """
    grid = basis.grid
    n_lags = grid.n_lags if n_lags is None else int(n_lags)
    data = np.asarray(data, dtype=np.float64)
    n_steps = grid.n_steps
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
    fitting.
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

    def with_omega(self, omega):
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


class _KronBlock:
    """One design block: a chain of mode factors, optionally followed by a
    Hadamard multiplier, acting on a coefficient array.

    Coefficient modes beyond the last factor are folded (column-major) into
    that factor's mode.  A multiplier with more modes than the factor chain
    repeats the chain's output along its trailing modes; the adjoint sums
    over them.
    """

    def __init__(self, name, factors, coef_shape, multiplier=None):
        self.name = name
        self.factors = [np.asarray(f, dtype=np.float64) for f in factors]
        self.coef_shape = tuple(coef_shape)
        last = len(self.factors) - 1
        self.kron_shape = self.coef_shape[:last] + (math.prod(self.coef_shape[last:]),)
        self.multiplier = multiplier
        self._repeat = 0 if multiplier is None else multiplier.ndim - len(self.factors)

    def predict(self, coef):
        arr = np.asarray(coef, dtype=np.float64).reshape(self.kron_shape, order="F")
        out = rho_chain(self.factors, arr)
        if self.multiplier is not None:
            out = out.reshape(out.shape + (1,) * self._repeat) * self.multiplier
        return out

    def adjoint(self, fieldarr):
        arr = fieldarr
        if self.multiplier is not None:
            arr = arr * self.multiplier
            if self._repeat:
                arr = arr.sum(axis=tuple(range(-self._repeat, 0)))
        out = rho_transposed_chain(self.factors, arr)
        return out.reshape(self.coef_shape, order="F")

    def spatial(self):
        """The first two factors folded into ``S = F_y kron F_x``."""
        if len(self.factors) == 1:
            return self.factors[0]
        return np.kron(self.factors[1], self.factors[0])

    def gram(self, omega=None):
        """The normal operator ``X^T (I_M kron Omega) X`` as a :class:`_Gram`.

        Without Omega or a multiplier it is the Kronecker product of the
        factors' own Grams.  Omega and the multiplier couple the two spatial
        factors, so those are folded into ``S`` and enter as ``S^T (Omega o
        V V^T) S``, with ``V`` the multiplier as a ``(D, M)`` matrix (a
        multiplier repeats a spatial-only chain over the frames), followed
        by the other factors' Grams.
        """
        if omega is None and self.multiplier is None:
            return _Gram([f.T @ f for f in self.factors], self.coef_shape, self.kron_shape)
        spatial = self.spatial()
        weight = np.eye(spatial.shape[0]) if omega is None else omega
        if self.multiplier is not None:
            v = self.multiplier.reshape(spatial.shape[0], -1, order="F")
            weight = weight * (v @ v.T)
        factors = [spatial.T @ weight @ spatial] + [f.T @ f for f in self.factors[2:]]
        kron_shape = (math.prod(self.kron_shape[:2]),) + self.kron_shape[2:]
        return _Gram(factors, self.coef_shape, kron_shape)

    def lipschitz(self, omega=None):
        """Largest eigenvalue of the normal operator ``X^T (I_M kron Omega) X``."""
        return self.gram(omega).lipschitz


class _Gram:
    """A block's normal operator as a Kronecker product of small symmetric
    factors, applied by mode products: its size depends on the basis
    dimensions only, not on the frame or pixel count.

    ``lipschitz`` is its largest eigenvalue, the product of the factors'
    top eigenvalues.
    """

    def __init__(self, factors, coef_shape, kron_shape):
        self.factors = factors
        self.coef_shape = coef_shape
        self.kron_shape = kron_shape
        self.lipschitz = float(np.prod([np.linalg.eigvalsh(f)[-1] for f in factors]))

    def apply(self, coef):
        arr = np.reshape(coef, self.kron_shape, order="F")
        return rho_chain(self.factors, arr).reshape(self.coef_shape, order="F")


def stimulus_block(design):
    b = design.basis
    return _KronBlock("stimulus", [b.phi_x, b.phi_y, b.phi_t], b.coef_shapes["stimulus"])


def network_block(design):
    b = design.basis
    return _KronBlock("network", [b.int_x, b.int_y, design.phi_xyt], b.coef_shapes["network"])


def memory_block(design):
    b = design.basis
    return _KronBlock("memory", [b.phi_x, b.phi_y], b.coef_shapes["memory"],
                      multiplier=design.v_lag1)


class _StackedBlock:
    """Blocks side by side, ``[X_1 X_2 ...]``, acting on one flat vector that
    concatenates the parts' column-major coefficients in block order."""

    def __init__(self, name, blocks):
        self.name = name
        self.blocks = list(blocks)
        self._bounds = np.cumsum([0] + [int(np.prod(b.coef_shape)) for b in self.blocks])
        self.coef_shape = (int(self._bounds[-1]),)

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

    def gram(self, omega=None):
        """The stacked normal operator as a :class:`_StackedGram`: each part's
        own Gram on the diagonal and the dense cross terms off it."""
        grams = [b.gram(omega) for b in self.blocks]
        cross = {(i, j): _cross_gram(self.blocks[i], self.blocks[j], omega)
                 for i in range(len(self.blocks)) for j in range(i + 1, len(self.blocks))}
        return _StackedGram(self, grams, cross)

    def lipschitz(self, omega=None):
        return self.gram(omega).lipschitz


class _StackedGram:
    """Normal operator of ``[X_1 X_2 ...]``: block ``(i, j)`` is ``X_i^T
    (I_M kron Omega) X_j``.

    ``lipschitz`` holds per-coordinate constants: ``n L_b`` on the
    coordinates of part ``b``, with ``L_b`` its exact constant and ``n`` the
    part count.  They majorize the stacked normal operator, because ``X^T X
    <= n diag(X_1^T X_1, ..., X_n^T X_n)`` for ``X = [X_1 ... X_n]``.
    """

    def __init__(self, block, grams, cross):
        self.block = block
        self.grams = grams
        self.cross = cross
        n = len(grams)
        self.lipschitz = np.repeat([n * g.lipschitz for g in grams], np.diff(block._bounds))

    def apply(self, coef):
        parts = [np.ravel(p, order="F") for p in self.block.split(coef)]
        out = [np.ravel(g.apply(p), order="F") for g, p in zip(self.grams, parts)]
        for (i, j), c in self.cross.items():
            out[i] += c @ parts[j]
            out[j] += c.T @ parts[i]
        return np.concatenate(out)


def _cross_gram(left, right, omega):
    """Dense ``X_left^T (I_M kron Omega) X_right`` for a left block without
    multiplier (two spatial factors, then a time factor ``T``) and a right
    block whose multiplier ``V`` repeats a spatial chain over the frames:
    the network and memory blocks.

    Column ``b`` of ``X_right`` is ``V`` scaled row-wise by the spatial
    column ``s_b``, so column ``b`` of the cross term is ``vec((Omega
    S_left o s_b)^T (V T))``: one contraction of the data with ``T``, then
    one over the pixels per column.
    """
    s_left = left.spatial()
    if omega is not None:
        s_left = omega @ s_left
    s_right = right.spatial()
    u = right.multiplier.reshape(s_right.shape[0], -1, order="F") @ left.factors[2]
    cross = np.empty((s_left.shape[1] * u.shape[1], s_right.shape[1]))
    for b, column in enumerate(s_right.T):
        cross[:, b] = ((s_left * column[:, None]).T @ u).ravel(order="F")
    return cross


def _design_blocks(design):
    blocks = (stimulus_block(design), network_block(design), memory_block(design))
    return {b.name: b for b in blocks}


def network_memory_block(design):
    """The network and memory blocks, fitted as one lasso by the solver."""
    return _StackedBlock("network+memory", [network_block(design), memory_block(design)])


def design_block(design):
    """The whole design ``X``: stimulus, network and memory in that order."""
    return _StackedBlock("design", _design_blocks(design).values())


def weight_frames(fieldarr, omega):
    """Left-multiply each frame by the precision matrix ``omega``, if any."""
    if omega is None:
        return fieldarr
    d = omega.shape[0]
    flat = fieldarr.reshape(d, -1, order="F")
    return (omega @ flat).reshape(fieldarr.shape, order="F")


def linear_predictor(coeffs, design):
    """Action of the design on the coefficients, shape ``(n_x, n_y, M)``."""
    coeffs.validate(design.basis)
    block = design_block(design)
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
    block = design_block(design)
    alpha, beta, gamma = block.split(block.adjoint(weight_frames(residual, design.omega)))
    return DriftCoefficients(alpha=alpha, beta=beta, gamma=gamma)


def model_parameter_count(p_x, p_y, p_t, p_l):
    """Total coefficient count of the three tensor-expanded components."""
    return p_x * p_y * p_t + (p_x * p_y) ** 2 * p_l + p_x * p_y


def naive_var_parameter_count(n_lags, n_pixels):
    """Parameter count of an unrestricted lag-``L`` vector autoregression."""
    return n_lags * n_pixels**2
