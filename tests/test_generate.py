import pytest

from indexcoding import ValidationError
from indexcoding.generate import random_instance


class TestRandomInstance:
    def test_deterministic_for_seed(self):
        a = random_instance(6, 6, 0.4, (1, 2), seed=7)
        b = random_instance(6, 6, 0.4, (1, 2), seed=7)
        c = random_instance(6, 6, 0.4, (1, 2), seed=8)
        assert a == b
        assert a != c

    def test_always_validates(self):
        for seed in range(50):
            n = 1 + seed % 7
            random_instance(n, seed % 8, 0.5, (1, min(2, n)), seed=seed)  # raises if invalid

    def test_demand_sizes_within_range(self):
        inst = random_instance(6, 20, 0.3, (2, 3), seed=1)
        for r in inst.receivers:
            assert 2 <= len(r.wants) <= 3

    def test_zero_density_no_side_info(self):
        inst = random_instance(5, 10, 0.0, (1, 2), seed=3)
        assert all(not r.has for r in inst.receivers)

    def test_full_density_has_everything_else(self):
        inst = random_instance(5, 10, 1.0, (1, 2), seed=4)
        for r in inst.receivers:
            assert r.has == frozenset(range(1, 6)) - r.wants

    def test_infeasible_demand_range(self):
        with pytest.raises(ValidationError, match="demand range"):
            random_instance(3, 2, 0.5, (1, 4), seed=0)

    def test_bad_density(self):
        with pytest.raises(ValidationError, match="side_density"):
            random_instance(3, 2, 1.5, (1, 1), seed=0)

