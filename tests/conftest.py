"""The fixture shared across the test suite; the oracles are in ``oracles``."""

import pytest

from pbwpcn import load_paper_instance


@pytest.fixture
def paper():
    """(params, channels) of the fixed 3-pair instance, budget 1 J."""
    return load_paper_instance(e_b_tot=1.0)
