import numpy as np
import pytest

from horomix.spectral_model import Perturbation, SpectralModel


@pytest.fixture(scope="session")
def model_d1():
    """Genus-2, rank-1 model with unit pairing: branch pi * w^2."""
    m = SpectralModel(genus=2, rank_d=1, gram=[[1.0]], gap_delta=0.1)
    m.validate()
    return m


@pytest.fixture(scope="session")
def model_d2():
    """Genus-2, rank-2 identity-pairing model: branch pi * |w|^2."""
    m = SpectralModel(genus=2, rank_d=2, gram=np.eye(2), gap_delta=0.1)
    m.validate()
    return m


@pytest.fixture(scope="session")
def model_d1_quartic():
    m = SpectralModel(
        genus=2, rank_d=1, gram=[[1.0]],
        perturbation=Perturbation("quartic", 1.0), gap_delta=0.1,
    )
    m.validate()
    return m


@pytest.fixture(scope="session")
def found_gram():
    """A rank-3 Gram of condition 15, whose face rule needs 40 points per
    axis where an identity Gram needs 16."""
    return np.array([[1.361592, 0.401569, 0.53899],
                     [0.401569, 0.55953, -0.438512],
                     [0.53899, -0.438512, 1.702497]])
