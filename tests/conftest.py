import numpy as np
import pytest

from greyrisk import AreaSeries, AssessmentInput, IndexDefinition, Orientation, standardize_all
from greyrisk.pipeline import load_bundled_case


def make_input(matrices, index_weights=None, time_weights=None, orientations=None,
               names=None):
    """Assemble an AssessmentInput from raw m x T matrices.

    Defaults: uniform weights summing to 1, benefit orientation, names
    area1..areaN. Does not validate.
    """
    mats = [np.asarray(v, dtype=float) for v in matrices]
    m, T = mats[0].shape
    if index_weights is None:
        index_weights = [1.0 / m] * m
    if time_weights is None:
        time_weights = [1.0 / T] * T
    if orientations is None:
        orientations = [Orientation.benefit()] * m
    if names is None:
        names = [f"area{k + 1}" for k in range(len(mats))]
    indices = tuple(
        IndexDefinition(id=f"e{j + 1}", name=f"criterion {j + 1}",
                        orientation=orientations[j], weight=float(index_weights[j]))
        for j in range(m)
    )
    return AssessmentInput(
        indices=indices,
        periods=tuple(f"t{t + 1}" for t in range(T)),
        time_weights=np.asarray(time_weights, dtype=float),
        areas=tuple(AreaSeries(name=n, values=v) for n, v in zip(names, mats)),
    )


def standardized(inp):
    """Standardized (n, m, T) scores of an input's areas."""
    return standardize_all(np.stack([a.values for a in inp.areas]), inp.indices)


# Three tiny areas where area1 sits strictly farthest from both ideal
# matrices, so both of its incidence degrees are exactly zero and the
# superiority degree is undefined.
DEGENERATE_MATRICES = (
    [[6.0, 2.0], [0.0, 2.0]],
    [[3.0, 6.0], [3.0, 0.0]],
    [[2.0, 4.0], [6.0, 5.0]],
)


@pytest.fixture(scope="session")
def bundled_input():
    return load_bundled_case()


@pytest.fixture
def degenerate_input():
    return make_input(DEGENERATE_MATRICES)
