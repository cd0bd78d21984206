import numpy as np
import pytest

import boxquery.autodiff as ad
from boxquery import training
from boxquery.autodiff import Tensor2, finite_diff_check, tensor
from boxquery.boxes import (
    Box,
    box_distance_t,
    contains,
    contains_box,
    distance,
    distance_inside,
    distance_outside,
    intersects,
    materialize,
    overlap_buffer,
    overlaps,
    random_box,
    separation,
    split_raw_box,
)


def box(center, offset):
    return Box(np.asarray(center, float), np.asarray(offset, float))


class TestMaterialize:
    def test_clamps_negative_offsets(self):
        b = materialize([0.0, 0.0], [3.2, -0.1])
        np.testing.assert_array_equal(b.offset, [3.2, 0.0])

    def test_nonnegative_unchanged(self):
        b = materialize([1.0, 2.0], [0.5, 0.0])
        np.testing.assert_array_equal(b.offset, [0.5, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            materialize([0.0, 0.0], [1.0])


class TestPredicates:
    def test_contains(self):
        b = box([0, 0], [1, 1])
        assert contains(b, [0.5, -0.5])
        assert contains(b, [1.0, 1.0])  # closed boundary
        assert not contains(b, [1.5, 0.0])

    def test_intersects_identical(self):
        b = box([0.3, -2.0], [1.0, 0.1])
        assert intersects(b, b)

    def test_intersects_gap(self):
        assert not intersects(box([0, 0], [1, 1]), box([3, 0], [1, 1]))

    def test_intersects_touching(self):
        assert intersects(box([0.0], [1.0]), box([2.0], [1.0]))

    def test_containment_implies_intersection(self, rng):
        for _ in range(200):
            outer = random_box(rng, 3)
            # shrink into the outer box
            inner = Box(outer.center + 0.1 * outer.offset, 0.5 * outer.offset)
            assert contains_box(outer, inner) or not np.all(outer.offset > 0)
            if contains_box(outer, inner):
                assert intersects(outer, inner)


class TestDistance:
    def test_identical_boxes_zero(self):
        b = box([1.0, -2.0], [0.5, 1.5])
        assert distance(b, b, alpha=0.02) == 0.0

    def test_hand_value_disjoint(self):
        a = box([0, 0], [1, 1])
        b2 = box([3, 0], [1, 1])
        # outside gap 1 in dim 0; inside min(3,2)+min(0,2)=2
        assert distance(a, b2, alpha=0.02) == pytest.approx(1.04)

    def test_hand_value_overlapping(self):
        a = box([0.0], [2.0])
        b2 = box([1.0], [2.0])
        assert distance(a, b2, alpha=0.02) == pytest.approx(0.02)

    def test_symmetry_and_sign(self, rng):
        for _ in range(300):
            a = random_box(rng, 4)
            b2 = random_box(rng, 4)
            d1 = distance(a, b2)
            assert d1 >= 0.0
            assert d1 == pytest.approx(distance(b2, a), rel=1e-12)

    def test_alpha_monotone(self, rng):
        for _ in range(100):
            a = random_box(rng, 3)
            b2 = random_box(rng, 3)
            assert distance(a, b2, alpha=0.01) <= distance(a, b2, alpha=0.02) + 1e-15

    def test_intersection_iff_zero_outside(self, rng):
        hits = 0
        for _ in range(2000):
            a = random_box(rng, 3)
            b2 = random_box(rng, 3)
            hit = intersects(a, b2)
            hits += hit
            assert hit == (distance_outside(a, b2) == 0.0)
        assert 0 < hits < 2000  # both branches exercised


class TestOverlaps:
    def test_overlap_decides_membership(self):
        # entity v against three query boxes: inside A, touching B, outside C
        v_center, v_offset = np.array([0.0]), np.array([0.5])
        queries = {
            "A": (np.array([0.4]), np.array([0.2])),
            "B": (np.array([1.0]), np.array([0.5])),
            "C": (np.array([2.0]), np.array([0.4])),
        }
        verdict = {
            name: bool(
                overlaps(*separation(c, o, v_center[None, :], v_offset[None, :]))[0]
            )
            for name, (c, o) in queries.items()
        }
        assert verdict == {"A": True, "B": True, "C": False}

    def test_matches_zero_outside_distance(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = random_box(rng, dim=3)
            b = random_box(rng, dim=3)
            mask = overlaps(*separation(
                a.center, a.offset, b.center[None, :], b.offset[None, :]
            ))[0]
            assert bool(mask) == (distance_outside(a, b) == 0.0)

    @pytest.mark.parametrize("width", [*range(1, 18), 32])
    def test_word_reduction_matches_all_over_each_row(self, width):
        # rows that overlap, touch exactly, miss in one column, or hold NaN
        # and infinities, against the byte-by-byte reduction
        rng = np.random.default_rng(width)
        rows = 96
        delta = rng.uniform(0.0, 2.0, (rows, width))
        span = delta + rng.uniform(0.0, 1.0, (rows, width))  # every column overlaps
        span[1::6] = delta[1::6]  # touching faces
        miss = rng.integers(0, width, rows)
        span[2::6, :] = delta[2::6, :]
        span[np.arange(2, rows, 6), miss[2::6]] = np.nextafter(
            delta[np.arange(2, rows, 6), miss[2::6]], -np.inf)
        delta[3::12, miss[3]] = np.nan
        span[9::12, miss[9]] = np.nan
        delta[4::12, miss[4]] = np.inf
        span[4::12, miss[4]] = np.inf  # inf <= inf
        span[10::12, miss[10]] = -np.inf
        delta[5::6, miss[5]] = np.inf  # a finite span misses it
        want = np.less_equal(delta, span).all(axis=1)
        assert want.any() and not want.all()
        got = overlaps(delta, span)
        assert got.dtype == bool and got.tobytes() == want.tobytes()
        buffer = overlap_buffer(rows, width)
        assert buffer.shape[1] % 8 == 0 and buffer[:, width:].all()
        for _ in range(2):  # the buffer is reused, its padding kept
            assert overlaps(delta, span, buffer).tobytes() == want.tobytes()
            assert buffer[:, width:].all()


class TestOneRowWrappers:
    """The Box predicates and distances read the table kernel on one row;
    their values are those of the same formulas on the two vectors."""

    @staticmethod
    def direct(a, b, alpha):
        delta = np.abs(a.center - b.center)
        total = a.offset + b.offset
        outside = float(np.maximum(delta - total, 0.0).sum())
        inside = float(np.minimum(delta, total).sum())
        return bool(np.all(delta <= total)), outside, inside, outside + alpha * inside

    @staticmethod
    def wrapped(a, b, alpha):
        return (intersects(a, b), distance_outside(a, b), distance_inside(a, b),
                distance(a, b, alpha))

    def assert_bitwise(self, a, b, alpha=0.02):
        want, got = self.direct(a, b, alpha), self.wrapped(a, b, alpha)
        assert got[0] == want[0]
        assert np.array(got[1:]).tobytes() == np.array(want[1:]).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 17, 64, 129, 1000])
    def test_random_pairs(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(20):
            a, b = random_box(rng, dim), random_box(rng, dim)
            self.assert_bitwise(a, b)
            self.assert_bitwise(b, a, alpha=0.5)
            self.assert_bitwise(a, a)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_touching_nan_and_infinite_boxes(self):
        values = [np.nan, np.inf, -np.inf, 0.0, -0.0, 2.0, 1e308]
        for c1 in values:
            for o1 in values:
                for c2 in values:
                    for o2 in (0.0, 1.0, np.inf, np.nan):
                        a = box([c1, 0.5], [o1, 1.0])
                        b = box([c2, 0.5], [o2, 1.0])
                        self.assert_bitwise(a, b)
                        self.assert_bitwise(b, a, alpha=0.0)
        self.assert_bitwise(box([0.0], [1.0]), box([2.0], [1.0]))
        self.assert_bitwise(box([], []), box([], []))  # zero width: an empty all

    def test_dimension_mismatch(self):
        for fn in (intersects, distance_outside, distance_inside, distance):
            with pytest.raises(ValueError):
                fn(box([0.0], [1.0]), box([0.0, 0.0], [1.0, 1.0]))


class TestDifferentiablePath:
    def test_split_matches_materialize(self, rng):
        raw = rng.normal(size=(1, 8))
        center_t, offset_t = split_raw_box(tensor(raw))
        b = materialize(raw[0, :4], raw[0, 4:])
        np.testing.assert_array_equal(center_t.data[0], b.center)
        np.testing.assert_array_equal(offset_t.data[0], b.offset)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            split_raw_box(tensor(np.zeros((1, 5))))

    def test_matches_plain_distance(self, rng):
        for _ in range(50):
            qa = rng.normal(size=(1, 6))
            eb = rng.normal(size=(5, 6))
            qc, qo = split_raw_box(tensor(qa))
            ec, eo = split_raw_box(tensor(eb))
            got = box_distance_t(qc, qo, ec, eo, alpha=0.02).data[:, 0]
            want = [
                distance(
                    materialize(qa[0, :3], qa[0, 3:]),
                    materialize(eb[i, :3], eb[i, 3:]),
                    alpha=0.02,
                )
                for i in range(5)
            ]
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_gradient_away_from_kinks(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 20:
            q = tensor(rng.normal(0, 2, size=(1, 6)), requires_grad=True)
            e = tensor(rng.normal(0, 2, size=(3, 6)), requires_grad=True)

            def f():
                qc, qo = split_raw_box(q)
                ec, eo = split_raw_box(e)
                return ad.sum_all(box_distance_t(qc, qo, ec, eo, alpha=0.02))

            # reject configurations near clamp or min/max kinks
            delta = np.abs(e.data[:, :3] - q.data[:, :3])
            total = np.maximum(e.data[:, 3:], 0) + np.maximum(q.data[:, 3:], 0)
            if (
                np.any(np.abs(delta - total) < 1e-3)
                or np.any(np.abs(q.data[:, 3:]) < 1e-3)
                or np.any(np.abs(e.data[:, 3:]) < 1e-3)
                or np.any(delta < 1e-3)
            ):
                continue
            assert finite_diff_check(f, [q, e]) < 1e-4
            checked += 1


# The distance as tape operations, the form box_distance_t replaced; the
# bitwise tests below keep it as the reference.


def _absolute(x):
    s = np.sign(x.data)
    return Tensor2._result(np.abs(x.data), (x,), lambda g: (g * s,))


def _minimum(a, b):
    take_a = a.data <= b.data  # ties route to the first argument
    return Tensor2._result(
        np.minimum(a.data, b.data), (a, b), lambda g: (g * take_a, g * ~take_a)
    )


def _row_sum(x):
    return Tensor2._result(
        x.data.sum(axis=1, keepdims=True),
        (x,),
        lambda g: (np.broadcast_to(g, x.shape).copy(),),
    )


def composed_distance(q_center, q_offset, e_centers, e_offsets, alpha):
    delta = _absolute(e_centers - q_center)
    total = e_offsets + q_offset
    outside = _row_sum(ad.relu(delta - total))
    inside = _row_sum(_minimum(delta, total))
    return outside + alpha * inside


class TestOneNodeDistance:
    """box_distance_t against the composed form, value and gradients bit for bit."""

    @staticmethod
    def run(distance, arrays, reads):
        leaves = [tensor(a, requires_grad=True) for a in arrays]
        d = distance(*leaves, 0.02)
        loss = ad.mean_all(ad.softplus(d - 1.0))
        if reads == 2:  # a second consumer, so the node's adjoint has two terms
            loss = loss + ad.sum_all(d * -0.37)
        loss.backward()
        return [d.data.tobytes()] + [leaf.grad.tobytes() for leaf in leaves]

    @pytest.mark.parametrize("reads", [1, 2])
    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("quarters", [False, True], ids=["random", "quarters"])
    def test_gradients_match_the_composition_bitwise(self, rows, reads, quarters):
        # on a grid of quarters, centers coincide and delta == span often
        rng = np.random.default_rng(rows * 10 + reads)
        ties = zeros = 0
        for _ in range(20):
            if quarters:
                draw = lambda n: rng.integers(-6, 7, size=(n, 5)) / 4.0
            else:
                draw = lambda n: rng.normal(0.0, 2.0, size=(n, 5))
            arrays = [draw(1), np.abs(draw(1)), draw(rows), np.abs(draw(rows))]
            delta = np.abs(arrays[2] - arrays[0])
            ties += np.count_nonzero(delta == arrays[3] + arrays[1])
            zeros += np.count_nonzero(delta == 0.0)
            assert self.run(box_distance_t, arrays, reads) == self.run(
                composed_distance, arrays, reads
            )
        if quarters:
            assert ties and zeros

    def test_training_loss_matches_the_composition_bitwise(self, monkeypatch):
        # one table feeds the query through two gathers of the same row
        # (repeated anchors) and both distance calls, so that row gathers
        # four adjoints, whose order of addition shows in the bits
        rng = np.random.default_rng(5)
        table = rng.normal(size=(6, 8)) * np.array([1e3, 1.0, 1e-3, 1.0] * 2)

        def grads():
            t = tensor(table.copy(), requires_grad=True)
            raw = ad.gather_rows(t, [0]) + ad.gather_rows(t, [0]) * 0.5
            qc, qo = split_raw_box(raw)
            pc, po = split_raw_box(ad.gather_rows(t, [0, 3]))
            nc, no = split_raw_box(ad.gather_rows(t, [1, 0, 5]))
            training.loss_terms(qc, qo, pc, po, nc, no, gamma=1.0, alpha=0.02).backward()
            return t.grad.tobytes()

        got = grads()
        monkeypatch.setattr(training, "box_distance_t", composed_distance)
        assert got == grads()

    def test_non_finite_inputs_match_the_composition_bitwise(self):
        # a NaN takes neither mask and an infinite span swallows the gap
        arrays = [
            np.array([[0.0, 1.0, 2.0, np.nan]]),
            np.array([[0.5, 0.5, np.inf, 1.0]]),
            np.array([[1.0, np.nan, 9.0, 2.0], [np.inf, 1.5, 0.0, 1.0]]),
            np.array([[0.5, 1.0, 1.0, np.nan], [1.0, 0.0, np.inf, 0.25]]),
        ]

        def run(distance):
            leaves = [tensor(a, requires_grad=True) for a in arrays]
            ad.sum_all(distance(*leaves, 0.02)).backward()
            return [leaf.grad.tobytes() for leaf in leaves]

        with np.errstate(invalid="ignore"):
            assert run(box_distance_t) == run(composed_distance)

    def test_records_one_tape_result(self):
        leaves = [tensor(np.ones((r, 3)), requires_grad=True) for r in (1, 1, 4, 4)]
        d = box_distance_t(*leaves)
        assert d.shape == (4, 1) and d._parents and all(p in leaves for p in d._parents)
