import contextlib

import numpy as np
import pytest

from boxquery import autodiff as ad
from boxquery.synthetic import toy_collaboration_graph


@pytest.fixture(scope="session")
def kg_t():
    """Seven-entity collaboration graph used across the suite.

    Edges: works_on(Alice,T1), works_on(Bob,T1), works_on(Bob,T2),
    related(T1,P1), related(T1,P2), related(T2,P3).
    """
    return toy_collaboration_graph()


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def ids(kg, *labels):
    """Entity ids for a list of labels, convenience for assertions."""
    return [kg.entity_id(x) for x in labels]


@pytest.fixture
def dense_gather(monkeypatch):
    """Context manager that swaps in the dense adjoint of ``gather_rows``.

    Inside it, every gather's adjoint is a zero copy of the whole table
    with ``np.add.at`` scattered into it, the form the row-sparse adjoint
    must reproduce bit for bit.
    """

    def gather_rows(x, indices):
        idx = np.asarray(indices, dtype=np.intp)

        def vjp(g):
            out = np.zeros_like(x.data)
            np.add.at(out, idx, g)
            return (out,)

        return ad.Tensor2._result(x.data[idx], (x,), vjp)

    @contextlib.contextmanager
    def patched():
        with monkeypatch.context() as m:
            m.setattr(ad, "gather_rows", gather_rows)
            yield

    return patched
