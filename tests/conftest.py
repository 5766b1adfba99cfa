import sys

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, max_examples=150)
settings.load_profile("deterministic")


@pytest.fixture
def digit_limit():
    """CPython's limit on the digits of an int converted from or to text, set
    to its least value, 640, for one test and restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before 3.10.7 there is no limit
        pytest.skip("this interpreter has no integer digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield 640
    finally:
        sys.set_int_max_str_digits(saved)
