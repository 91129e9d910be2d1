import math
from itertools import product

import numpy as np
import pytest

from horomix._stencils import fornberg_weights, tensor_grid
from horomix.errors import LatticeSizeError


class TestFornbergWeights:
    NODES = np.array([-0.7, -0.25, 0.1, 0.55, 1.3, 2.0])  # non-uniform
    X0 = 0.37  # off every node

    @pytest.mark.parametrize("order", range(6))
    @pytest.mark.parametrize("degree", range(6))
    def test_exact_on_polynomials_below_node_count(self, order, degree):
        w = fornberg_weights(self.NODES, self.X0, order)
        exact = (
            math.factorial(degree) / math.factorial(degree - order) * self.X0 ** (degree - order)
            if order <= degree
            else 0.0
        )
        assert w @ self.NODES**degree == pytest.approx(exact, rel=1e-10, abs=1e-10)


class TestTensorGrid:
    def test_lex_order(self):
        axes = [np.array([0.0, 1.0]), np.array([10.0, 20.0, 30.0]), np.array([-1.0, 5.0])]
        np.testing.assert_array_equal(tensor_grid(axes), list(product(*axes)))

    def test_cap_refuses_before_allocation(self):
        # 1e6^3 points would need 2.4e19 bytes; only the axes are allocated
        axis = np.zeros(1_000_000)
        with pytest.raises(LatticeSizeError):
            tensor_grid([axis, axis, axis])

    def test_cap_is_inclusive(self):
        assert tensor_grid([np.arange(3.0), np.arange(4.0)], cap=12).shape == (12, 2)
        with pytest.raises(LatticeSizeError):
            tensor_grid([np.arange(3.0), np.arange(4.0)], cap=11)
