import sys

import pytest

from sirtimes import ModelParams, kernels


@pytest.fixture
def p23():
    # rho = 1.5
    return ModelParams(beta=2.0, gamma=3.0, mu=1.0)


@pytest.fixture
def p33():
    # rho = 1
    return ModelParams(beta=3.0, gamma=3.0, mu=1.0)


@pytest.fixture
def scalar_refinements():
    """A function that runs its argument and returns (its result, the number
    of calls of the scalar crossing refinement kernels._refine_crossing
    made meanwhile). The calls are counted by code object: kernels._locate
    reaches the loop through its operations bundle, not by module name."""
    code = kernels._refine_crossing.__code__

    def run(fn, *args):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code is code:
                calls += 1

        sys.setprofile(profile)
        try:
            result = fn(*args)
        finally:
            sys.setprofile(None)
        return result, calls

    return run
