import pytest

from oddmult import a_parity_series, build_table
from oddmult.gf2series import Gf2Series


@pytest.fixture(scope="session")
def oracle_2000():
    """Exact a(0..2000), the integer ground truth for parity spot checks."""
    return build_table(2000)


@pytest.fixture(scope="session")
def parity_10k():
    return a_parity_series(10_000)


@pytest.fixture
def newton_steps(monkeypatch):
    """Count Newton steps, one dilation by 2 each.

    newton_steps(start, n) returns the list of step lengths and the bound
    ceil(log2(n / start)), the doublings that lifting from start to n
    coefficients needs. A step past the bound raises, so a loop that stops
    advancing fails instead of running forever.
    """
    real_dilate = Gf2Series.dilate

    def install(start, n):
        bound = (-(-n // start) - 1).bit_length()
        steps = []

        def counting_dilate(self, factor, trunc_len):
            steps.append(trunc_len)
            if len(steps) > bound:
                raise AssertionError(f"lifting {start} -> {n} took over {bound} steps: {steps}")
            return real_dilate(self, factor, trunc_len)

        monkeypatch.setattr(Gf2Series, "dilate", counting_dilate)
        return steps, bound

    return install
