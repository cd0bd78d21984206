import numpy as np
import pytest

import boxquery.autodiff as ad
from boxquery.autodiff import (
    AdamState,
    Tensor2,
    adam_step,
    affine,
    finite_diff_check,
    relu,
    tensor,
)
from boxquery.boxes import box_distance_t


class TestAffine:
    def test_identity(self):
        x = tensor([1.0, 2.0])
        w = tensor(np.eye(2))
        b = tensor([0.0, 0.0])
        np.testing.assert_array_equal(affine(x, w, b).data, [[1.0, 2.0]])

    def test_hand_product(self):
        x = tensor([1.0, 0.0])
        w = tensor([[2.0, 3.0], [4.0, 5.0]])
        b = tensor([1.0, 1.0])
        np.testing.assert_array_equal(affine(x, w, b).data, [[3.0, 4.0]])

    def test_hand_gradients(self):
        # upstream gradient of all ones: dL/db = 1s, dL/dW = outer(x, 1s)
        x = tensor([1.0, 2.0], requires_grad=True)
        w = tensor(np.zeros((2, 2)), requires_grad=True)
        b = tensor([0.0, 0.0], requires_grad=True)
        ad.sum_all(affine(x, w, b)).backward()
        np.testing.assert_array_equal(b.grad, [[1.0, 1.0]])
        np.testing.assert_array_equal(w.grad, [[1.0, 1.0], [2.0, 2.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            affine(tensor([1.0, 2.0, 3.0]), tensor(np.eye(2)), tensor([0.0, 0.0]))
        with pytest.raises(ValueError):
            affine(tensor([1.0, 2.0]), tensor(np.eye(2)), tensor([0.0, 0.0, 0.0]))


class TestRelu:
    def test_forward(self):
        np.testing.assert_array_equal(
            relu(tensor([-1.0, 0.0, 2.0])).data, [[0.0, 0.0, 2.0]]
        )

    def test_subgradient_zero_at_zero(self):
        x = tensor([-1.0, 0.0, 2.0], requires_grad=True)
        ad.sum_all(relu(x)).backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])

    def test_idempotent(self, rng):
        x = tensor(rng.normal(size=(3, 4)))
        once = relu(x).data
        np.testing.assert_array_equal(relu(relu(x)).data, once)


def _step(state, grads):
    """Write ``grads`` into the packed ``.grad`` views, mark every row, and step."""
    for p, g in zip(state.params, grads):
        p.grad[...] = g
        p.grad_rows = ad.ANY_ROW
    adam_step(state)


class TestAdam:
    def test_first_step_closed_form(self):
        p = tensor([[0.0]], requires_grad=True)
        state = AdamState([p], lr=0.01)
        _step(state, [np.array([[0.5]])])
        # bias correction makes m_hat = g and v_hat = g^2 on step one
        expected = -0.01 * 0.5 / (0.5 + 1e-8)
        assert state.t == 1
        np.testing.assert_allclose(p.data, [[expected]], rtol=1e-12)

    @pytest.mark.parametrize("lr", [-0.1, float("nan"), float("inf")])
    def test_learning_rate_outside_zero_to_infinity_rejected(self, lr):
        with pytest.raises(ValueError, match=r"lr must be in \[0, inf\)"):
            AdamState([tensor([[0.0]], requires_grad=True)], lr=lr)
        assert AdamState([tensor([[0.0]], requires_grad=True)], lr=0.0).lr == 0.0

    def test_zero_gradient_keeps_params(self):
        p = tensor([[1.0, -2.0]], requires_grad=True)
        state = AdamState([p])
        _step(state, [np.zeros((1, 2))])
        np.testing.assert_array_equal(p.data, [[1.0, -2.0]])

    def test_deterministic(self, rng):
        g = rng.normal(size=(3, 3))

        def run():
            p = tensor(np.ones((3, 3)), requires_grad=True)
            state = AdamState([p], lr=0.05)
            for _ in range(10):
                _step(state, [g])
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch(self):
        p = tensor([[0.0]], requires_grad=True)
        state = AdamState([p])
        p.grad = np.zeros((2, 2))
        with pytest.raises(ValueError):
            adam_step(state)


class TestAdamContract:
    """The state owns the packed layout; gradients reach it only through it."""

    @staticmethod
    def _pair():
        a = tensor(np.ones((2, 3)), requires_grad=True)
        b = tensor(np.full((3, 3), 2.0), requires_grad=True)
        return [a, b], AdamState([a, b], lr=0.1)

    def test_reassigned_grad_raises_naming_the_tensor(self):
        params, state = self._pair()
        params[1].grad = np.ones((3, 3))
        with pytest.raises(ValueError, match=r"parameter 1 \(shape 3x3\): \.grad"):
            adam_step(state)
        assert state.t == 0 and not state.m_flat.any()

    def test_reassigned_data_raises_naming_the_tensor(self):
        params, state = self._pair()
        params[0].data = params[0].data.copy()
        with pytest.raises(ValueError, match=r"parameter 0 \(shape 2x3\): \.data"):
            adam_step(state)
        assert state.t == 0 and not state.m_flat.any()

    def test_a_second_state_makes_the_first_raise(self):
        params, first = self._pair()
        second = AdamState(params, lr=0.1)
        params[0].grad[...] = 1.0
        params[0].grad_rows = ad.ANY_ROW
        with pytest.raises(ValueError, match="parameter 0"):
            adam_step(first)
        adam_step(second)
        assert second.t == 1 and (params[0].data < 1.0).all()
        np.testing.assert_array_equal(first.data, [1.0] * 6 + [2.0] * 9)


class TestTouchedRowAdam:
    """Unmarked rows and tensors take shortcuts that keep every bit."""

    @staticmethod
    def _sides():
        """Two equal (params, state) pairs after one step with gradients
        everywhere but in the second, dead tensor."""
        rng = np.random.default_rng(5)
        table = rng.normal(size=(5, 3))
        table[0, 0] = table[3, 1] = -0.0
        dead = rng.normal(size=(2, 3))
        dead[1, 2] = -0.0
        weight = rng.normal(size=(3, 3))
        first = [rng.normal(size=(5, 3)), np.zeros((2, 3)), rng.normal(size=(3, 3))]
        first[0][0, 0] = first[0][3, 1] = 0.0  # -0.0 parameters with zero moments
        sides = []
        for _ in range(2):
            params = [tensor(a.copy(), requires_grad=True) for a in (table, dead, weight)]
            state = AdamState(params, lr=0.1)
            _step(state, first)
            sides.append((params, state))
        return sides

    @staticmethod
    def _bits(state):
        return state.data.tobytes(), state.m_flat.tobytes(), state.v_flat.tobytes()

    def test_negative_zero_gradients_match_unmarked_rows_bitwise(self):
        (full, full_state), (marked, marked_state) = self._sides()
        grads = [np.full(p.shape, -0.0) for p in full]
        grads[0][2] = [0.5, -0.25, 1.0]
        _step(full_state, grads)

        for p in marked:
            p.zero_grad()
        marked[0].grad[2] = grads[0][2]
        marked[0].grad_rows = [np.array([2])]
        marked[0].grad[4] = -0.0  # a zero gradient needs no mark, whatever its sign
        adam_step(marked_state)

        assert self._bits(marked_state) == self._bits(full_state)
        assert marked_state._moving == [True, False, True]
        assert all(np.signbit([marked[0].data[0, 0], marked[0].data[3, 1], marked[1].data[1, 2]]))


class TestRowMarks:
    def test_backward_marks_rows_and_zero_grad_clears_them(self):
        x = tensor(np.arange(12.0).reshape(6, 2), requires_grad=True)
        ad.sum_all(ad.gather_rows(x, [4, 1, 4])).backward()
        assert [r.tolist() for r in x.grad_rows] == [[1, 4]]
        ad.sum_all(ad.gather_rows(x, [-1])).backward()  # wraps to row 5
        assert [r.tolist() for r in x.grad_rows] == [[1, 4], [5]]
        x.zero_grad()
        assert x.grad_rows is None and x.grad.tobytes() == bytes(x.grad.nbytes)
        ad.sum_all(x * 2.0).backward()
        assert x.grad_rows is ad.ANY_ROW
        ad.sum_all(ad.gather_rows(x, [0])).backward()
        assert x.grad_rows is ad.ANY_ROW
        x.zero_grad()
        assert x.grad_rows is None and x.grad.tobytes() == bytes(x.grad.nbytes)

    def test_zero_grad_clears_only_marked_rows(self):
        x = tensor(np.zeros((3, 2)), requires_grad=True)
        ad.sum_all(ad.gather_rows(x, [0])).backward()
        x.grad[2] = 7.0  # in place and unmarked, against the contract
        x.zero_grad()
        np.testing.assert_array_equal(x.grad, [[0, 0], [0, 0], [7, 7]])

    def test_assigning_grad_marks_every_row(self):
        x = tensor(np.zeros((3, 2)), requires_grad=True)
        x.grad = np.ones((3, 2))
        assert x.grad_rows is ad.ANY_ROW
        x.zero_grad()
        assert x.grad_rows is None and not x.grad.any()


class TestBackward:
    def test_accumulation_doubles(self):
        x = tensor([[1.0, -2.0]], requires_grad=True)
        loss = ad.sum_all(relu(x * 2.0))
        loss.backward()
        first = x.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(x.grad, 2 * first)

    def test_scalar_only(self):
        x = tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_shared_subexpression(self):
        x = tensor([[3.0]], requires_grad=True)
        y = x + x  # d/dx = 2
        ad.sum_all(y).backward()
        np.testing.assert_array_equal(x.grad, [[2.0]])

    def test_only_leaves_keep_gradients(self):
        x = tensor([[1.0, -2.0]], requires_grad=True)
        w = tensor(np.eye(2), requires_grad=True)
        hidden = relu(ad.matmul(x * 2.0, w))
        loss = ad.sum_all(hidden)
        loss.backward()
        np.testing.assert_array_equal(x.grad, [[2.0, 0.0]])
        np.testing.assert_array_equal(w.grad, [[2.0, 0.0], [-4.0, 0.0]])
        assert hidden.grad is None and loss.grad is None


class TestFiniteDiff:
    def test_square(self):
        x = tensor([[1.0]], requires_grad=True)
        err = finite_diff_check(lambda: ad.matmul(x, x), [x])
        assert err < 1e-6
        np.testing.assert_allclose(x.grad, [[2.0]], atol=1e-12)

    def test_constant(self):
        x = tensor([[5.0]], requires_grad=True)
        err = finite_diff_check(lambda: tensor([[1.0]]) * 1.0 + 0.0 * ad.sum_all(x), [x])
        assert err < 1e-8

    def test_all_ops_random_trials(self):
        # 20 random trials per differentiable op, away from kinks
        rng = np.random.default_rng(1234)
        failures = []
        for trial in range(20):
            a = tensor(rng.normal(size=(3, 2)), requires_grad=True)
            b = tensor(rng.normal(size=(3, 2)), requires_grad=True)
            row = tensor(rng.normal(size=(1, 2)), requires_grad=True)
            w = tensor(rng.normal(size=(2, 3)), requires_grad=True)
            bias = tensor(rng.normal(size=(1, 3)))
            cases = {
                "add": (lambda: ad.sum_all(a + b), [a, b]),
                "add_broadcast": (lambda: ad.sum_all(a + row), [a, row]),
                "sub_broadcast": (lambda: ad.sum_all(row - a), [a, row]),
                "scale_shift": (lambda: ad.sum_all(a * -1.7 + 0.3), [a]),
                "matmul": (lambda: ad.sum_all(ad.matmul(a, w)), [a, w]),
                "affine": (lambda: ad.sum_all(affine(a, w, bias)), [a, w]),
                "relu": (lambda: ad.sum_all(relu(a + 0.05)), [a]),
                "maximum": (lambda: ad.sum_all(ad.maximum(a, b)), [a, b]),
                "softplus": (lambda: ad.sum_all(ad.softplus(a)), [a]),
                "mean": (lambda: ad.mean_all(a), [a]),
                "gather": (
                    lambda: ad.sum_all(ad.gather_rows(a, [0, 2, 0])),
                    [a],
                ),
                "slice": (lambda: ad.sum_all(ad.slice_cols(a, 1, 2)), [a]),
            }
            for name, (f, params) in cases.items():
                # skip configurations that sit on a kink
                if name == "relu" and np.any(np.abs(a.data + 0.05) < 1e-4):
                    continue
                if name == "maximum" and np.any(
                    np.abs(a.data - b.data) < 1e-4
                ):
                    continue
                err = finite_diff_check(f, params)
                if err >= 1e-4:
                    failures.append((trial, name, err))
        assert not failures, failures

    def test_gather_accumulates_duplicates(self):
        x = tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        ad.sum_all(ad.gather_rows(x, [1, 1])).backward()
        np.testing.assert_array_equal(x.grad, [[0, 0], [2, 2], [0, 0]])

    @pytest.mark.parametrize("dense_term", [False, True])
    def test_row_sparse_adjoint_matches_dense_bitwise(self, dense_gather, dense_term):
        # repeated, unsorted, negative and single ids and rows shared between
        # gathers, added to a gradient buffer that already holds values; with
        # dense_term the table also gets a dense adjoint, directly and through
        # a gather from a non-leaf
        rng = np.random.default_rng(7)
        table = rng.normal(size=(6, 3))
        held = rng.normal(size=(6, 3)) * 1e3  # makes the order of additions show
        w = tensor(rng.normal(size=(3, 2)))
        id_lists = ([4, 1, 4, -2, 0], [2, 3], [5], [0, 1, 2])

        def grad_bytes():
            x = tensor(table.copy(), requires_grad=True)
            x.grad = held.copy()
            total = tensor(0.0)
            for ids in id_lists:
                part = ad.matmul(ad.gather_rows(x, ids), w)
                total = total + ad.sum_all(ad.softplus(part))
            if dense_term:
                scaled = ad.matmul(ad.gather_rows(x * 1.5, [3, 3, 0]), w)
                total = total + ad.sum_all(ad.softplus(scaled))
                total = total + ad.sum_all(ad.softplus(x))
            total.backward()
            return x.grad.tobytes()

        sparse = grad_bytes()
        with dense_gather():
            assert grad_bytes() == sparse


class TestRowProducts:
    def test_matmul_rows_match_one_row_products_bitwise(self, rng):
        # numpy's many-row product (gemm) differs from one-row products in
        # the last bits; matmul must not
        x = tensor(rng.normal(size=(40, 64)) * 10.0)
        w = tensor(rng.normal(size=(64, 64)))
        whole = ad.matmul(x, w).data
        for i in range(x.rows):
            assert whole[i].tobytes() == (x.data[i : i + 1] @ w.data).tobytes()

    def test_gathered_one_row_is_matmul_then_scale_bitwise(self, rng):
        x = tensor(rng.normal(size=(1, 6)), requires_grad=True)
        ws = [tensor(rng.normal(size=(6, 6)), requires_grad=True) for _ in range(3)]
        scale = 1.0 / 3.0

        def run(f):
            for t in (x, *ws):
                t.grad = None
            out = f()
            ad.sum_all(ad.softplus(out)).backward()  # a non-uniform adjoint
            return out.data.tobytes(), x.grad.tobytes(), ws[1].grad.tobytes()

        fused = run(lambda: ad.gathered_matmul(x, ws, [1], [scale]))
        assert ws[0].grad is None and ws[2].grad is None  # not in the graph
        assert fused == run(lambda: ad.matmul(x, ws[1]) * scale)

    def test_gathered_rows_match_one_row_products_bitwise(self, rng):
        x = tensor(rng.normal(size=(30, 8)) * 10.0)
        ws = [tensor(rng.normal(size=(8, 8))) for _ in range(4)]
        idx = rng.integers(0, 3, 30)  # the last weight goes unused
        scale = 1.0 / rng.integers(1, 4, 30)
        out = ad.gathered_matmul(x, ws, idx, scale).data
        for i in range(30):
            row = (x.data[i : i + 1] @ ws[idx[i]].data) * scale[i]
            assert out[i].tobytes() == row[0].tobytes()

    def test_gathered_rows_against_finite_differences(self, rng):
        x = tensor(rng.normal(size=(3, 4)), requires_grad=True)
        ws = [tensor(rng.normal(size=(4, 5)), requires_grad=True) for _ in range(3)]

        def f():
            out = ad.gathered_matmul(x, ws, [2, 0, 2], [0.5, 1.0, 1.0 / 3.0])
            return ad.sum_all(ad.softplus(out))

        assert finite_diff_check(f, [x, *ws]) < 1e-6
        assert ws[1].grad is None  # unused, so outside the graph

    def test_gathered_rejects_bad_positions_and_lengths(self):
        x = tensor(np.ones((2, 2)))
        ws = [tensor(np.eye(2))]
        with pytest.raises(ValueError):
            ad.gathered_matmul(x, ws, [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError):
            ad.gathered_matmul(x, ws, [0], [1.0])
        with pytest.raises(ValueError):
            ad.gathered_matmul(x, [tensor(np.eye(3))] * 2, [0, 1], [1.0, 1.0])


class TestShapes:
    def test_coercion(self):
        assert tensor(3.0).shape == (1, 1)
        assert tensor([1.0, 2.0]).shape == (1, 2)
        with pytest.raises(ValueError):
            tensor(np.zeros((2, 2, 2)))

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError):
            tensor(np.zeros((2, 3))) + tensor(np.zeros((2, 2)))

    def test_box_distance_requires_matching_shapes(self):
        # (query center, query offset, entity centers, entity offsets)
        for shapes in (
            [(1, 2), (1, 2), (2, 2), (1, 2)],  # entity centers and offsets differ in rows
            [(1, 2), (1, 2), (2, 2), (3, 2)],
            [(1, 2), (1, 3), (2, 2), (2, 2)],  # query offset too wide
            [(2, 2), (1, 2), (3, 2), (3, 2)],  # query rows neither 1 nor n
        ):
            with pytest.raises(ValueError):
                box_distance_t(*(tensor(np.zeros(shape)) for shape in shapes))


class TestNoGrad:
    @staticmethod
    def _forward():
        """Every operation once, on leaves that require gradients."""
        rng = np.random.default_rng(3)
        x = tensor(rng.normal(size=(4, 6)), requires_grad=True)
        w = tensor(rng.normal(size=(6, 6)), requires_grad=True)
        b = tensor(rng.normal(size=(1, 6)), requires_grad=True)
        rows = ad.gather_rows(x, [2, 0, 2])
        h = relu(affine(rows, w, b))
        low = ad.slice_cols(h, 0, 3)
        high = ad.slice_cols(h - 0.5, 3, 6)
        mixed = ad.maximum(low, high) * 2.0 - 1.0
        out = box_distance_t(
            ad.slice_cols(b, 0, 3), relu(ad.slice_cols(b, 3, 6)), mixed, relu(high)
        )
        return (x, w, b), [rows, h, low, high, mixed, out, ad.mean_all(ad.softplus(out))]

    def test_values_are_bit_identical(self):
        _, taped = self._forward()
        with ad.no_grad():
            _, untaped = self._forward()
        assert [t.data.tobytes() for t in untaped] == [t.data.tobytes() for t in taped]

    def test_results_record_no_graph(self):
        with ad.no_grad():
            leaves, results = self._forward()
        for t in results:
            assert t._parents == () and t._vjp is None and not t.requires_grad
        results[-1].backward()
        assert all(leaf.grad is None for leaf in leaves)
        _, taped = self._forward()
        assert all(t._parents and t._vjp is not None for t in taped)

    def test_state_restored_after_exception_and_nesting(self):
        x = tensor([1.0, -2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("inside")
        assert relu(x)._parents == (x,)
        with ad.no_grad():
            with ad.no_grad():
                assert relu(x)._parents == ()
            assert relu(x)._parents == ()  # the outer block still holds
        assert relu(x)._parents == (x,)


class TestExpit:
    """The softplus adjoint's sigmoid, computed without scipy."""

    EDGES = [
        0.0, -0.0, np.inf, -np.inf, np.nan,
        709.78, -709.78, 709.79, -709.79, 745.2, -745.2, 745.13, -745.13,
        700.0, -700.0, -700.0000000001, 36.7, -36.7,
        5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e308, -1e308, 1e-16, -1e-16,
    ]

    def test_same_bits_as_scipy(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(0)
        values = np.concatenate([
            self.EDGES,
            rng.normal(0.0, 5.0, 40_000),
            rng.uniform(-750.0, 750.0, 30_000),
            rng.standard_cauchy(30_000),
        ]).reshape(-1, 2)
        got = ad._expit(values)
        want = special.expit(values)
        assert got.shape == values.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_overflow_gives_zero_and_nan_stays_nan(self):
        got = ad._expit(np.array([[-1e308, -np.inf, np.nan, np.inf]]))
        assert got[0, 0] == 0.0 and got[0, 1] == 0.0
        assert np.isnan(got[0, 2]) and got[0, 3] == 1.0


NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError

from boxquery import (SamplerConfig, TrainConfig, classify, evaluate,
                      generate_datasets, split_edges, train)
from boxquery.synthetic import toy_collaboration_graph

kg = toy_collaboration_graph()
split = split_edges(kg, 0.10, seed=0)
instances, _ = generate_datasets(
    kg, split, SamplerConfig(quotas={"1-chain": 6, "2-inter": 4}, seed=0))
result = train(kg, {"train": instances, "val": [], "test": []},
               TrainConfig(aggregation="tm", dim=4, layers=1, max_steps=20, seed=0))
assert result.steps == 20, result.steps
report = evaluate(result.ps, instances, mode="both")
answers = [classify(result.ps, inst.query) for inst in instances]
loaded = sorted(name for name, module in sys.modules.items()
                if name.split(".")[0] == "scipy" and module is not None)
print(len(answers), report.overall["pairwise"], loaded)
assert not loaded, loaded
"""


def test_package_trains_and_answers_without_scipy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import boxquery

    env = dict(os.environ)
    src = str(Path(boxquery.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("[]")
