import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from tuneforge import docgen, expr  # noqa: E402


@pytest.fixture(autouse=True)
def cold_memos():
    """Empty the parse cache and the document-hash memo before every test.

    Every test then runs the cold path, so test order cannot hide a cold-path
    defect; only tests that warm the memos themselves cover the warm path.
    """
    expr._parse_text.cache_clear()
    with docgen._hash_memo_lock:
        docgen._hash_memo.clear()
