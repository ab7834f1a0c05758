"""Forward values, backward rules, and tape contracts of the tensor core."""

import numpy as np
import pytest

from pwvae import nvdm
from pwvae import tensor as T

import nvdm_oracle as oracle
from gradcheck import max_rel_err, numerical_grad


def taped_grad(op, *arrays, wrt=0, **kwargs):
    """Analytic gradient of sum(op(...)) with respect to one input."""
    tensors = [T.Tensor(a) for a in arrays]
    with T.Tape() as tape:
        out = op(*tensors, **kwargs)
        tape.backward(T.sum_all(out))
    return tape.grad(tensors[wrt])


def fd_grad(op, arrays, wrt, h=1e-6, **kwargs):
    def f(arr):
        inputs = [T.Tensor(arr if i == wrt else a) for i, a in enumerate(arrays)]
        return float(T.sum_all(op(*inputs, **kwargs)))

    return numerical_grad(f, arrays[wrt], h=h)


def identity_decoder(n):
    """A float64 model over n words whose decoder's logits b - z @ R are -z: R is the (n, n) identity and b zero.

    Each logit at latent rows -x is 0 - (-x) = x for finite nonzero x,
    since the product adds only zeros to -x.  So ``loglik`` is the
    decoder's likelihood at given logits, and the logits' gradient is
    minus the latent rows'.
    """
    model = nvdm.init_model("g", n, hidden=1, gauss_dims=n, seed=0, dtype=np.float64)
    return model.replaced({"dec_r": np.eye(n), "dec_b": np.zeros(n)})


def loglik(counts, z):
    """``decode_logprob`` of (B, n) counts through ``identity_decoder`` at (B, n) latent rows z, the negated logits: arrays or Tensors."""
    z = z if isinstance(z, T.Tensor) else T.Tensor(z)
    counts = counts if isinstance(counts, T.Tensor) else T.Tensor(counts)
    return nvdm.decode_logprob(identity_decoder(counts.data.shape[-1]), z, counts)


class TestAffine:
    def test_identity(self):
        out = T.affine(T.Tensor([[1.0, 2.0]]), T.Tensor(np.eye(2)), T.Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_forced_arithmetic(self):
        out = T.affine(T.Tensor([[1.0, 1.0]]), T.Tensor([[2.0, 3.0]]), T.Tensor([-5.0]))
        np.testing.assert_array_equal(out.data, [[0.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(1, 2\).*\(2, 3\)"):
            T.affine(T.Tensor([[1.0, 2.0]]), T.Tensor(np.zeros((2, 3))), T.Tensor([0.0, 0.0]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        x, w, b = rng.normal(size=(1, 3)), rng.normal(size=(4, 3)), rng.normal(size=4)
        for wrt in range(3):
            ana = taped_grad(T.affine, x, w, b, wrt=wrt)
            num = fd_grad(T.affine, [x, w, b], wrt)
            assert max_rel_err(ana, num) < 1e-6

    def test_weight_gradient_is_outer_product(self):
        rng = np.random.default_rng(8)
        x, w, b = rng.normal(size=(1, 3)), rng.normal(size=(4, 3)), rng.normal(size=4)
        ana = taped_grad(T.affine, x, w, b, wrt=1)
        np.testing.assert_allclose(ana, np.outer(np.ones(4), x[0]), rtol=1e-12)


class TestActivations:
    def test_prelu_definition(self):
        out = T.prelu(T.Tensor([[-1.0, 2.0]]), T.Tensor([0.5, 0.5]))
        np.testing.assert_array_equal(out.data, [[-0.5, 2.0]])

    def test_prelu_leak_has_the_trailing_shape_of_the_input(self):
        with pytest.raises(T.ShapeError, match=r"leak shape \(1,\).*\(1, 2\)"):
            T.prelu(T.Tensor([[-1.0, 2.0]]), T.Tensor([0.5]))

    def test_prelu_zero(self):
        out = T.prelu(T.Tensor([0.0]), T.Tensor([0.3]))
        np.testing.assert_array_equal(out.data, [0.0])

    def test_prelu_derivative_at_zero_is_one(self):
        g = taped_grad(T.prelu, np.array([0.0]), np.array([0.3]), wrt=0)
        np.testing.assert_array_equal(g, [1.0])

    def test_prelu_gradients(self):
        rng = np.random.default_rng(9)
        # Keep samples away from the kink at 0.
        x = rng.normal(size=(4, 2))
        x[np.abs(x) < 0.1] += 0.5
        leak = np.full(2, 0.25)
        for wrt in (0, 1):
            ana = taped_grad(T.prelu, x, leak, wrt=wrt)
            num = fd_grad(T.prelu, [x, leak], wrt)
            assert max_rel_err(ana, num) < 1e-6

    def test_prelu_per_element_leak(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=5) - 0.5
        leak = rng.uniform(0.1, 0.9, size=5)
        ana = taped_grad(T.prelu, x, leak, wrt=1)
        num = fd_grad(T.prelu, [x, leak], 1)
        assert max_rel_err(ana, num) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [500, 50], ids=["paper-h", "tiny-p"])
    @pytest.mark.parametrize("rows", [1, 3, 25, 64, 100])
    def test_prelu_equals_the_np_where_oracle(self, dtype, width, rows):
        """Values and both gradients have the bytes of choosing with ``np.where``, at the encoder's widths."""
        rng = np.random.default_rng(rows + width)
        x, upstream = (rng.normal(size=(rows, width)).astype(dtype) for _ in range(2))
        leak = rng.uniform(0.1, 0.4, size=width).astype(dtype)
        got, want = (oracle.prelu_results(op, x, leak, upstream) for op in (T.prelu, oracle.prelu))
        for i, (g, w) in enumerate(zip(got, want, strict=True)):
            assert g.dtype == w.dtype == dtype and g.tobytes() == w.tobytes(), i

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_prelu_equals_the_np_where_oracle_at_edge_inputs(self, dtype):
        """Every pair of ±0.0, subnormals, ±inf, NaN and ±1 in x against leaks of 0, -0.0, negative, above 1, inf and NaN, under such upstream gradients too."""
        tiny = np.finfo(dtype).smallest_subnormal
        edges = np.array([0.0, -0.0, tiny, -tiny, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0], dtype=dtype)
        leak = np.array([0.0, -0.0, -0.5, 2.0, tiny, np.inf, np.nan, 0.25, -3.0, 1.0], dtype=dtype)
        x = np.repeat(edges, len(leak)).reshape(len(edges), len(leak))
        upstream = np.roll(x, 3, axis=0)
        with np.errstate(all="ignore"):
            got, want = (oracle.prelu_results(op, x, leak, upstream) for op in (T.prelu, oracle.prelu))
        for i, (g, w) in enumerate(zip(got, want, strict=True)):
            assert g.dtype == w.dtype == dtype and g.tobytes() == w.tobytes(), i
        # A negative leak turns an exact zero's sign, as leak * x does.
        assert np.signbit(got[0][0, 2]) and not np.signbit(got[0][1, 2])

    def test_softsign_values(self):
        out = T.softsign(T.Tensor([0.0, 1.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.5], rtol=0, atol=0)

    def test_softsign_gradients(self):
        x = np.random.default_rng(11).normal(size=9) * 3
        ana = taped_grad(T.softsign, x)
        num = fd_grad(T.softsign, [x], 0)
        assert max_rel_err(ana, num) < 1e-6

    def test_softplus_at_zero(self):
        assert float(T.softplus(T.Tensor([0.0])).data[0]) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_softplus_large_input_no_overflow(self):
        out = T.softplus(T.Tensor([1000.0]))
        assert np.isfinite(out.data[0])
        assert out.data[0] == pytest.approx(1000.0, rel=1e-12)

    def test_softplus_output_strictly_positive(self):
        x = np.random.default_rng(12).normal(size=100) * 20
        assert np.all(T.softplus(T.Tensor(x)).data > 0)

    def test_softplus_gradients_are_sigmoid(self):
        x = np.random.default_rng(13).normal(size=9) * 2
        ana = taped_grad(T.softplus, x)
        num = fd_grad(T.softplus, [x], 0)
        assert max_rel_err(ana, num) < 1e-6
        np.testing.assert_allclose(ana, 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)


def old_decoder_likelihood(counts, logits):
    """The likelihood as ``log_softmax`` then ``dot(counts, .)`` computed it: the value, and the logits gradient at g = 1."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    value = (counts[..., None, :] @ logp[..., :, None])[..., 0, 0]
    g = np.ones(value.shape)[..., None] * counts  # dot's gradient for logp
    return value, g - np.exp(logp) * g.sum(axis=-1, keepdims=True)


class TestMultinomialLoglik:
    def test_uniform(self):
        out = loglik([[1.0, 0.0, 2.5, 3.0]], -np.array([[0.0, 0.0, 0.0, 0.0]]))
        assert out.item() == pytest.approx(6.5 * np.log(0.25), rel=0, abs=1e-14)

    def test_shift_invariance(self):
        a, b = 0.3, -1.7
        one_hot = T.Tensor(np.eye(2))
        for c in (0.0, 5.0, -300.0, 1e8):
            base = loglik(one_hot, -np.array([[a, b], [a, b]])).data
            shifted = loglik(one_hot, -np.array([[c + a, c + b], [c + a, c + b]])).data
            np.testing.assert_allclose(shifted, base, atol=1e-9)

    def test_one_hot_counts_give_normalised_log_probabilities(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = rng.integers(2, 30)
            logits = np.tile(rng.normal(size=n) * 10, (n, 1))
            logp = loglik(np.eye(n), -logits).data
            assert logp.shape == (n,)
            assert abs(np.exp(logp).sum() - 1.0) < 1e-12
            assert np.all(logp <= 0.0)

    @pytest.mark.parametrize("shape", [(1, 7), (3, 7)])
    def test_gradients_match_finite_differences(self, shape):
        rng = np.random.default_rng(15)
        counts, logits = rng.uniform(0.0, 3.0, size=shape), rng.normal(size=shape)
        upstream = rng.normal(size=shape[:-1]) + 2.0  # g != 1 on every row

        def weighted(z):
            return T.sum_all(T.mul(loglik(counts, z), T.Tensor(upstream)))

        with T.Tape() as tape:
            z = T.Tensor(-logits)
            tape.backward(weighted(z))
        num = numerical_grad(lambda a: float(weighted(T.Tensor(a))), -logits)
        assert max_rel_err(tape.grad(z), num) < 1e-6

    def test_counts_get_no_gradient(self):
        rng = np.random.default_rng(16)
        with T.Tape() as tape:
            counts = T.Tensor(rng.uniform(size=(2, 5)))
            tape.backward(T.sum_all(loglik(counts, rng.normal(size=(2, 5)))))
        np.testing.assert_array_equal(tape.grad(counts), np.zeros((2, 5)))

    def test_bit_identical_to_log_softmax_then_dot(self):
        rng = np.random.default_rng(17)
        for shape in ((1, 50), (5, 50)):
            counts = rng.poisson(0.5, size=shape).astype(np.float64)
            logits = rng.normal(size=shape) * 3.0
            value, grad = old_decoder_likelihood(counts, logits)
            with T.Tape() as tape:
                z = T.Tensor(-logits)
                out = loglik(counts, z)
                tape.backward(T.sum_all(out))
            assert np.array_equal(out.data, value)
            assert np.array_equal(tape.grad(z), -grad)

    def test_rejects_mismatched_shapes_and_non_finite_logits(self):
        with pytest.raises(T.ShapeError, match="one shape"):
            nvdm.decode_logprob(identity_decoder(3), T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros(3)))
        with pytest.raises(T.ShapeError, match="one shape"):
            nvdm.decode_logprob(identity_decoder(3), T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 2, 3))))
        # A non-finite logit is not rejected: its row's value is not finite, and the other rows keep theirs.
        finite = loglik(np.ones((1, 3)), -np.array([[0.0, 1.0, 2.0]])).data
        for bad in (np.inf, -np.inf, np.nan):
            with np.errstate(invalid="ignore"):
                out = loglik(np.ones((2, 3)), -np.array([[0.0, 1.0, 2.0], [0.0, bad, 2.0]])).data
            assert out[0] == finite[0] and not np.isfinite(out[1]), bad


class TestBackwardContract:
    def test_identity_gradient(self):
        x = T.Tensor([3.0])
        with T.Tape() as tape:
            tape.backward(T.sum_all(x))
        np.testing.assert_array_equal(tape.grad(x), [1.0])

    def test_square_gradient(self):
        x = T.Tensor([3.0])
        with T.Tape() as tape:
            y = T.mul(x, x)
            tape.backward(T.sum_all(y))
        np.testing.assert_array_equal(tape.grad(x), [6.0])

    def test_non_scalar_root_rejected(self):
        x = T.Tensor([1.0, 2.0])
        with T.Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(T.TapeError, match="scalar"):
            tape.backward(y)

    def test_double_backward_rejected(self):
        x = T.Tensor([1.0])
        with T.Tape() as tape:
            s = T.sum_all(T.mul(x, x))
        tape.backward(s)
        with pytest.raises(T.TapeError, match="already"):
            tape.backward(s)

    def test_unused_tensor_grad_is_zero(self):
        x, unused = T.Tensor([1.0]), T.Tensor([5.0, 6.0])
        with T.Tape() as tape:
            tape.backward(T.sum_all(T.mul(x, x)))
        np.testing.assert_array_equal(tape.grad(unused), [0.0, 0.0])

    def test_grad_before_backward_rejected(self):
        x = T.Tensor([1.0])
        with T.Tape() as tape:
            T.mul(x, x)
            with pytest.raises(T.TapeError, match="has not run"):
                tape.grad(x)
            tape.backward(T.sum_all(T.mul(x, x)))


class TestElementwiseAndReductions:
    def test_binary_op_gradients(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        for op in (T.add, T.sub, T.mul):
            for wrt in (0, 1):
                ana = taped_grad(op, a, b, wrt=wrt)
                num = fd_grad(op, [a, b], wrt)
                assert max_rel_err(ana, num) < 1e-6, op.__name__

    def test_unary_op_gradients(self):
        rng = np.random.default_rng(18)
        positive = rng.uniform(0.5, 4.0, size=6)
        for op in (T.sqrt, T.exp_clamped):
            ana = taped_grad(op, positive)
            num = fd_grad(op, [positive], 0)
            assert max_rel_err(ana, num) < 1e-6, op.__name__

    def test_exp_clamped_saturates_without_overflow(self):
        out = T.exp_clamped(T.Tensor([31.0, 30.0, -31.0]))
        np.testing.assert_allclose(out.data[:2], np.exp(30.0))
        assert out.data[2] == pytest.approx(np.exp(-30.0))
        g = taped_grad(T.exp_clamped, np.array([31.0]))
        np.testing.assert_array_equal(g, [0.0])

    def test_concat_scale_shift_gradients(self):
        rng = np.random.default_rng(19)
        a, b = rng.normal(size=5), rng.normal(size=5)
        for wrt in (0, 1):
            assert max_rel_err(taped_grad(T.concat, a, b, wrt=wrt), fd_grad(T.concat, [a, b], wrt)) < 1e-6
        ana = taped_grad(T.scale_shift, a, scale=-2.5, shift=0.75)
        num = fd_grad(T.scale_shift, [a], 0, scale=-2.5, shift=0.75)
        assert max_rel_err(ana, num) < 1e-6

    def test_tile_rows_and_row_block_gradients(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(2, 3))
        for reps in (1, 3):
            weights = rng.normal(size=(2 * reps, 3))
            tiled = lambda t: T.mul(T.tile_rows(t, reps), T.Tensor(weights))
            np.testing.assert_array_equal(T.tile_rows(T.Tensor(x), reps).data, np.tile(x, (reps, 1)))
            assert max_rel_err(taped_grad(tiled, x), fd_grad(tiled, [x], 0)) < 1e-6
        block = lambda t: T.scale_shift(T.row_block(t, 1, 2), -2.0, 0.0)
        np.testing.assert_array_equal(taped_grad(block, x), [[0.0] * 3, [-2.0] * 3])

    def test_row_blocks_keep_the_sign_of_a_zero_gradient(self):
        w = np.array([[-0.0, 1.0, 2.0], [3.0, -0.0, 4.0]])
        split = lambda t: T.add(*(T.sum_all(T.mul(T.row_block(t, i, i + 1), T.Tensor(w[i : i + 1]))) for i in range(2)))
        assert taped_grad(split, np.ones((2, 3))).tobytes() == w.tobytes()

    def test_tile_rows_and_row_block_pass_every_row_through(self):
        x = T.Tensor(np.ones((2, 3)))
        assert T.tile_rows(x, 1) is x and T.row_block(x, 0, 2) is x
        with pytest.raises(T.ShapeError, match="tile_rows"):
            T.tile_rows(T.Tensor(np.ones(3)), 2)

    def test_shared_input_accumulates(self):
        # f(x) = x*x + 3x has gradient 2x + 3.
        x = T.Tensor([2.0])
        with T.Tape() as tape:
            y = T.add(T.mul(x, x), T.scale_shift(x, 3.0, 0.0))
            tape.backward(T.sum_all(y))
        np.testing.assert_allclose(tape.grad(x), [7.0])

    def test_sqrt_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            T.sqrt(T.Tensor([1.0, -1e-300]))


class TestDeterminismAndImmutability:
    def test_forward_deterministic(self):
        rng = np.random.default_rng(20)
        w, x = rng.normal(size=(30, 40)), rng.normal(size=(1, 40))
        first = T.affine(T.Tensor(x), T.Tensor(w), T.Tensor(np.zeros(30))).data
        second = T.affine(T.Tensor(x), T.Tensor(w), T.Tensor(np.zeros(30))).data
        np.testing.assert_array_equal(first, second)

    def test_tensor_values_are_read_only(self):
        t = T.Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=50) * 50
        for op in (T.softplus, T.softsign, T.exp_clamped):
            assert np.all(np.isfinite(op(T.Tensor(x)).data)), op.__name__
        assert np.isfinite(loglik(np.abs(x[None]), -x[None]).item())

    def test_parallel_tapes_are_independent(self):
        import threading

        results = {}

        def run(key, value):
            x = T.Tensor([value])
            with T.Tape() as tape:
                s = T.sum_all(T.mul(x, x))
                tape.backward(s)
            results[key] = float(tape.grad(x)[0])

        threads = [threading.Thread(target=run, args=(i, float(i + 1))) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {0: 2.0, 1: 4.0, 2: 6.0, 3: 8.0}


class TestRows:
    """(B, n) rows: batched products, last-axis reductions, broadcast gradients."""

    def test_row_ops_match_finite_differences(self):
        rng = np.random.default_rng(22)
        x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(5, 3)), rng.normal(size=5)
        for wrt in range(3):
            assert max_rel_err(taped_grad(T.affine, x, w, b, wrt=wrt), fd_grad(T.affine, [x, w, b], wrt)) < 1e-6
        rows, other = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        for wrt in (0, 1):
            assert max_rel_err(taped_grad(T.concat, rows, other, wrt=wrt), fd_grad(T.concat, [rows, other], wrt)) < 1e-6
        counts = np.abs(other)
        assert max_rel_err(taped_grad(loglik, counts, rows, wrt=1), fd_grad(loglik, [counts, rows], 1)) < 1e-6

    def test_rows_equal_stacked_one_row_calls(self):
        rng = np.random.default_rng(23)
        x, w = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        counts = rng.uniform(0.0, 3.0, size=(4, 5))
        b = rng.normal(size=5)
        model = nvdm.init_model("g", 5, hidden=1, gauss_dims=3, seed=0, dtype=np.float64).replaced({"dec_r": w.T, "dec_b": b})
        rows = nvdm.decode_logprob(model, T.Tensor(x), T.Tensor(counts)).data
        one = lambda i: nvdm.decode_logprob(model, T.Tensor(x[i : i + 1]), T.Tensor(counts[i : i + 1])).data
        np.testing.assert_allclose(rows, np.concatenate([one(i) for i in range(4)]), rtol=1e-14)
        np.testing.assert_array_equal(T.concat(T.Tensor(x), T.Tensor(w[:4])).data, np.hstack([x, w[:4]]))

    def test_weight_gradient_is_sum_of_outer_products(self):
        rng = np.random.default_rng(24)
        x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(5, 3)), rng.normal(size=5)
        ana = taped_grad(T.affine, x, w, b, wrt=1)
        np.testing.assert_allclose(ana, sum(np.outer(np.ones(5), row) for row in x), rtol=1e-12)

    def test_vector_operand_broadcasts_and_sums_its_gradient(self):
        rng = np.random.default_rng(25)
        rows, vec = rng.normal(size=(4, 3)), rng.normal(size=3)
        for op in (T.add, T.sub, T.mul):
            for args in ((rows, vec), (vec, rows)):
                for wrt in (0, 1):
                    ana = taped_grad(op, *args, wrt=wrt)
                    assert ana.shape == args[wrt].shape
                    assert max_rel_err(ana, fd_grad(op, list(args), wrt)) < 1e-6, op.__name__
        leak = rng.uniform(0.1, 0.9, size=3)
        ana = taped_grad(T.prelu, rows, leak, wrt=1)
        assert max_rel_err(ana, fd_grad(T.prelu, [rows, leak], 1)) < 1e-6

    def test_shapes_that_do_not_broadcast_are_rejected(self):
        with pytest.raises(T.ShapeError, match="broadcast"):
            T.add(T.Tensor(np.zeros((4, 3))), T.Tensor(np.zeros(4)))
        with pytest.raises(T.ShapeError):
            loglik(np.zeros((2, 3)), np.zeros(3))
        with pytest.raises(T.ShapeError):
            T.concat(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 3))))
        with pytest.raises(T.ShapeError, match="conform"):
            T.affine(T.Tensor(np.zeros((4, 2))), T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros(2)))

    def test_deferred_gradients_accumulate_like_eager_ones(self):
        # The weight enters twice, so its deferred parts are summed.
        rng = np.random.default_rng(26)
        w, x = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
        with T.Tape() as tape:
            wt, xt = T.Tensor(w), T.Tensor(x)
            bt = T.Tensor(np.zeros(3))
            y = T.add(T.affine(xt, wt, bt), T.affine(T.scale_shift(xt, 2.0, 0.0), wt, bt))
            tape.backward(T.sum_all(y))
        np.testing.assert_allclose(tape.grad(wt), 3.0 * np.ones((3, 1)) * x.sum(axis=0), rtol=1e-12)
        np.testing.assert_allclose(tape.grad(xt), 3.0 * np.ones((4, 1)) * w.sum(axis=0), rtol=1e-12)
        assert tape.grad(wt) is tape.grad(wt)


    def test_grad_writes_into_out_and_keeps_no_reference(self):
        """``affine``'s deferred products and sum are computed into ``out``, other gradients copied, an unused input's zeroed."""
        rng = np.random.default_rng(27)
        x, w, b, leak = rng.normal(size=(4, 2)), rng.normal(size=(3, 2)), rng.normal(size=3), rng.uniform(0.1, 0.9, size=3)
        with T.Tape() as tape:
            xt, wt, bt, lt, unused = (T.Tensor(a) for a in (x, w, b, leak, np.ones(2)))
            tape.backward(T.sum_all(T.prelu(T.affine(xt, wt, bt), lt)))
        for t in (xt, wt, bt, lt, unused):
            out = np.full(t.data.shape, np.nan)
            assert tape.grad(t, out=out) is out
            if t is wt or t is bt:
                assert callable(tape._grads[t])
            kept = tape.grad(t)
            assert kept is not out and kept.tobytes() == out.tobytes()
        np.testing.assert_array_equal(out, 0.0)

    def test_grad_rejects_an_out_it_cannot_write(self):
        with T.Tape() as tape:
            xt, wt, bt = T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 3))), T.Tensor(np.zeros(4))
            tape.backward(T.sum_all(T.affine(xt, wt, bt)))
        read_only = np.zeros((4, 3))
        read_only.flags.writeable = False
        for out in (np.zeros((3, 4)), np.zeros((4, 3), dtype=np.float32), read_only):
            with pytest.raises(ValueError, match=r"out must be a writable float64 array of shape \(4, 3\)"):
                tape.grad(wt, out=out)


def gradients(build, leaves):
    """Gradients of the scalar ``build(*tensors)`` in each leaf array."""
    tensors = [T.Tensor(a) for a in leaves]
    with T.Tape() as tape:
        tape.backward(build(*tensors))
    return [tape.grad(t) for t in tensors]


class TestTapeAliasing:
    """The tape keeps a rule's returned array uncopied only when nothing else holds it.

    Each case's gradients are bit-identical to a tape that copies every
    first gradient it stores, and match the analytic values.
    """

    def check(self, build, leaves, expected, monkeypatch):
        kept = gradients(build, leaves)
        with monkeypatch.context() as patch:
            patch.setattr(T, "_owned", lambda *args: False)
            copied = gradients(build, leaves)
        for grad, reference, want in zip(kept, copied, expected):
            assert grad.shape == reference.shape and grad.tobytes() == reference.tobytes()
            np.testing.assert_allclose(grad, want, rtol=1e-12)

    def test_one_array_returned_for_two_inputs(self, monkeypatch):
        """u = x + y by a rule that returns one array for both; x's gradient then gets x*x's added in place."""
        rng = np.random.default_rng(30)
        x, y = rng.normal(size=4), rng.normal(size=4)

        def rule(g):
            h = g * 1.0  # a fresh array, returned for both inputs
            return h, h

        def build(xt, yt):
            square = T.mul(xt, xt)
            return T.sum_all(T.add(square, T.custom_op(xt.data + yt.data, (xt, yt), rule)))

        self.check(build, [x, y], [2.0 * x + 1.0, np.ones(4)], monkeypatch)

    def test_add_and_concat_return_g_and_its_views(self, monkeypatch):
        """``add`` hands back g for both operands and ``concat`` slices of g; each operand's gradient is then added into."""
        rng = np.random.default_rng(31)
        x, y = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))

        def build(xt, yt):
            a, b = T.scale_shift(xt, 2.0, 0.0), T.scale_shift(yt, -1.0, 0.0)
            squares = T.add(T.sum_all(T.mul(a, a)), T.sum_all(T.mul(b, b)))
            joined = T.concat(a, b)
            doubled = T.add(joined, joined)
            return T.add(squares, T.sum_all(T.add(doubled, T.concat(xt, yt))))

        # d/dx = 2 (2a + 2) + 1 with a = 2x, and d/dy = -(2b + 2) + 1 with b = -y.
        self.check(build, [x, y], [8.0 * x + 5.0, 2.0 * y - 1.0], monkeypatch)

    @pytest.mark.parametrize("with_base", [False, True])
    def test_reshaped_view_of_a_fresh_array(self, with_base, monkeypatch):
        """u = x + y for (2, 3) x and (6,) y by a rule that returns a fresh array reshaped for y, and under ``with_base`` the fresh array itself for x; both gradients are then added into."""
        rng = np.random.default_rng(33)
        x, y = rng.normal(size=(2, 3)), rng.normal(size=6)

        def rule(g):
            h = g * 1.0
            return (h if with_base else g * 1.0), h.reshape(6)

        def build(xt, yt):
            squares = T.add(T.sum_all(T.mul(xt, xt)), T.sum_all(T.mul(yt, yt)))
            return T.add(squares, T.sum_all(T.custom_op(xt.data + yt.data.reshape(2, 3), (xt, yt), rule)))

        self.check(build, [x, y], [2.0 * x + 1.0, 2.0 * y + 1.0], monkeypatch)

    def test_one_row_bias_gradient_does_not_alias_g(self, monkeypatch):
        """``affine`` of one (1, m) row defers a bias gradient that sums g's one row, and input products that read g; the bias's later gradient, added into its sum, must not reach g."""
        rng = np.random.default_rng(34)
        x, w, b = rng.normal(size=(1, 2)), rng.normal(size=(3, 2)), rng.normal(size=3)

        def build(xt, wt, bt):
            return T.add(T.sum_all(T.mul(bt, bt)), T.sum_all(T.affine(xt, wt, bt)))

        self.check(build, [x, w, b], [w.sum(axis=0, keepdims=True), np.ones((3, 1)) * x, 2.0 * b + 1.0], monkeypatch)

    def test_tiled_rows_split_back_into_blocks(self, monkeypatch):
        """``tile_rows`` hands one input several views of g, and each ``row_block`` a full-size array; x also gets x*x's gradient."""
        rng = np.random.default_rng(35)
        x = rng.normal(size=(2, 3))

        def build(xt):
            tiled = T.tile_rows(xt, 3)
            blocks = [T.sum_all(T.scale_shift(T.row_block(tiled, 2 * s, 2 * s + 2), s + 1.0, 0.0)) for s in range(3)]
            return T.add(T.sum_all(T.mul(xt, xt)), T.add(T.add(blocks[0], blocks[1]), blocks[2]))

        self.check(build, [x], [2.0 * x + 6.0], monkeypatch)

    @pytest.mark.parametrize("deferred_last", [True, False])
    def test_deferred_and_eager_gradients_accumulate_into_one_tensor(self, deferred_last, monkeypatch):
        """The weight's deferred ``affine`` product and an eager ``mul`` gradient, in either tape order."""
        rng = np.random.default_rng(32)
        x, w = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))

        def build(xt, wt):
            parts = [lambda: T.sum_all(T.mul(wt, wt)), lambda: T.sum_all(T.affine(xt, wt, T.Tensor(np.zeros(3))))]
            first, second = parts if deferred_last else parts[::-1]
            return T.add(first(), second())

        self.check(build, [x, w], [np.ones((4, 1)) * w.sum(axis=0), 2.0 * w + x.sum(axis=0)], monkeypatch)
