import pytest

from eagibench.bank import instantiate, load_shipped_bank
from eagibench.design_space import ObjectiveVector, ReferenceFront, report_objectives
from eagibench.propulsion import evaluate_design


@pytest.fixture(scope="session")
def bank():
    return load_shipped_bank()


@pytest.fixture(scope="session")
def instances(bank):
    return {t.id: instantiate(t, bank) for t in bank.templates}


def objective_vector(design, env):
    return report_objectives(evaluate_design(design, env))


def brute_force_front(vectors):
    """Independent O(n^2) pairwise filter over raw objective tuples."""

    def dom(a, b):
        ge = a[0] <= b[0] and a[1] >= b[1] and a[2] >= b[2]
        st_ = a[0] < b[0] or a[1] > b[1] or a[2] > b[2]
        return ge and st_

    tuples = [(v.hover_current_per_motor, v.thrust_margin, v.endurance) for v in vectors]
    return [
        i
        for i, v in enumerate(tuples)
        if not any(j != i and dom(w, v) for j, w in enumerate(tuples))
    ]


def front_of(vectors) -> ReferenceFront:
    """The reference front of a feasible set by brute force: its non-dominated
    vectors in input order, and each objective's range (all 0.0 when it is empty)."""
    columns = list(zip(*vectors)) or [(0.0,)] * 3
    return ReferenceFront(tuple(vectors[i] for i in brute_force_front(vectors)),
                          ObjectiveVector(*(max(c) - min(c) for c in columns)))
