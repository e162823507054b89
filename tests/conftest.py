import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from tuneforge import expr  # noqa: E402


@pytest.fixture(autouse=True)
def cold_parse_cache():
    """Empty the parse cache before every test.

    Every test then runs the cold path, so test order cannot hide a cold-path
    defect; only tests that warm the cache themselves cover the warm path.
    """
    expr._parse_text.cache_clear()
