import numpy as np
import pytest

from fieldnet.arrays import (
    read_dta1,
    rho,
    rho_chain,
    rho_transposed,
    rho_transposed_chain,
    vec,
    write_dta1,
)
from fieldnet.errors import ShapeError
from oracles import kron_matrix


class TestRho:
    def test_identity_factors_leave_array_unchanged(self, rng):
        a = rng.standard_normal((2, 3, 4))
        out = rho_chain([np.eye(2), np.eye(3), np.eye(4)], a)
        assert np.allclose(out, a, atol=1e-15)

    def test_single_vector_is_matvec(self, rng):
        x = rng.standard_normal((4, 3))
        v = rng.standard_normal(3)
        assert np.allclose(rho(x, v), x @ v, atol=1e-15)

    def test_two_factor_kronecker_oracle(self, rng):
        x1 = rng.standard_normal((2, 2))
        x2 = rng.standard_normal((3, 2))
        a = rng.standard_normal((2, 2))
        lhs = kron_matrix([x1, x2]) @ vec(a)
        rhs = vec(rho(x2, rho(x1, a)))
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_mode_rotation_shape(self, rng):
        x = rng.standard_normal((5, 2))
        a = rng.standard_normal((2, 3, 4))
        assert rho(x, a).shape == (3, 4, 5)

    def test_random_chains_match_kronecker(self, rng):
        for _ in range(30):
            d = int(rng.integers(1, 5))
            dims = [(int(rng.integers(1, 6)), int(rng.integers(1, 6))) for _ in range(d)]
            factors = [rng.standard_normal(s) for s in dims]
            a = rng.standard_normal([s[1] for s in dims])
            lhs = kron_matrix(factors) @ vec(a)
            rhs = vec(rho_chain(factors, a))
            scale = max(1.0, np.abs(lhs).max())
            assert np.abs(lhs - rhs).max() <= 1e-10 * scale

    def test_shape_error(self, rng):
        with pytest.raises(ShapeError):
            rho(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))


class TestRhoTransposed:
    def test_identity(self, rng):
        b = rng.standard_normal((3, 4, 2))
        out = rho_transposed_chain([np.eye(3), np.eye(4), np.eye(2)], b)
        assert np.allclose(out, b, atol=1e-15)

    def test_two_factor_transpose_oracle(self, rng):
        factors = [rng.standard_normal((4, 2)), rng.standard_normal((3, 5))]
        b = rng.standard_normal((4, 3))
        lhs = kron_matrix(factors).T @ vec(b)
        rhs = vec(rho_transposed_chain(factors, b))
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_random_chains_match_kronecker(self, rng, layout):
        # the adjoint runs rho on transposed operands, so check it on every
        # memory layout an operand can arrive in, size-1 modes included
        chains = [[(int(rng.integers(1, 6)), int(rng.integers(1, 6)))
                   for _ in range(int(rng.integers(1, 5)))] for _ in range(30)]
        chains += [[(1, 3)], [(4, 1), (1, 1)], [(1, 2), (3, 1), (1, 1), (2, 2)]]
        for dims in chains:
            d = len(dims)
            factors = [rng.standard_normal(s) for s in dims]
            shape = [s[0] for s in dims]
            if layout == "strided":
                b = rng.standard_normal([2 * n for n in shape])[(slice(None, None, 2),) * d]
            else:
                b = np.asarray(rng.standard_normal(shape), order=layout)
            lhs = kron_matrix(factors).T @ vec(b)
            rhs = vec(rho_transposed_chain(factors, b))
            scale = max(1.0, np.abs(lhs).max())
            assert np.abs(lhs - rhs).max() <= 1e-10 * scale

    def test_adjoint_identity(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 5))
            dims = [(int(rng.integers(1, 6)), int(rng.integers(1, 6))) for _ in range(d)]
            factors = [rng.standard_normal(s) for s in dims]
            a = rng.standard_normal([s[1] for s in dims])
            b = rng.standard_normal([s[0] for s in dims])
            lhs = np.vdot(rho_chain(factors, a), b)
            rhs = np.vdot(a, rho_transposed_chain(factors, b))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_shape_error(self, rng):
        with pytest.raises(ShapeError):
            rho_transposed(rng.standard_normal((3, 2)), rng.standard_normal((2, 2)))


class TestDta1:
    def test_roundtrip(self, rng, tmp_path):
        a = rng.standard_normal((3, 4, 2))
        path = tmp_path / "a.dta1"
        write_dta1(path, a)
        assert np.array_equal(read_dta1(path), a)

    def test_header_layout(self, rng, tmp_path):
        a = rng.standard_normal((2, 5))
        path = tmp_path / "a.dta1"
        write_dta1(path, a)
        raw = path.read_bytes()
        header, _, payload = raw.partition(b"\n")
        assert header == b"DTA1 2 2 5"
        assert payload == a.astype("<f8").tobytes(order="F")

    def test_truncated_payload_rejected(self, rng, tmp_path):
        path = tmp_path / "a.dta1"
        write_dta1(path, rng.standard_normal((3, 3)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            read_dta1(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "b.dta1"
        path.write_bytes(b"NOPE 1 3\n" + b"\0" * 24)
        with pytest.raises(ValueError):
            read_dta1(path)
