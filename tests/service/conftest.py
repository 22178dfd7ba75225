"""The service suite's ranking parametrization."""

from __future__ import annotations

import pytest

from repro.core.semiring import RANKING_SEMIRINGS


@pytest.fixture(params=RANKING_SEMIRINGS)
def ranking(request) -> str:
    """A service's ``semiring=``: every test that reaches a k-best
    stream runs once per ranking semiring with the same assertions.
    Uniform default weights make most-probable-first rank exactly as
    shortest-first does (``0.5 ** length`` orders as ``length``)."""
    return request.param
