"""Shared fixtures: canonical grammars, graphs and backend parametrization."""

from __future__ import annotations

import json
import socket

import pytest

from repro.grammar import CFG, parse_grammar
from repro.graph import LabeledGraph, two_cycles, word_chain
from repro.matrices import available_backends, get_backend


@pytest.fixture
def anbn_grammar() -> CFG:
    """``S -> a S b | a b`` — the canonical {aⁿbⁿ} grammar (non-CNF)."""
    return parse_grammar("S -> a S b | a b", terminals=["a", "b"])


@pytest.fixture
def dyck_grammar() -> CFG:
    """Dyck-1 over a/b: ``S -> a S b | a b | S S``."""
    return parse_grammar("S -> a S b | a b | S S", terminals=["a", "b"])


@pytest.fixture
def ab_cnf_grammar() -> CFG:
    """{aⁿbⁿ} already in CNF: S -> A S1 | A B; S1 -> S B; A -> a; B -> b."""
    return parse_grammar(
        """
        S -> A S1
        S -> A B
        S1 -> S B
        A -> a
        B -> b
        """,
        terminals=["a", "b"],
    )


@pytest.fixture
def two_cycle_graph() -> LabeledGraph:
    """The classic worst case: an a-cycle of length 2 and a b-cycle of
    length 3 sharing node 0."""
    return two_cycles(2, 3, "a", "b")


@pytest.fixture
def aabb_chain() -> LabeledGraph:
    """A chain spelling 'aabb' — S must relate exactly (0,4) and (1,3)."""
    return word_chain(["a", "a", "b", "b"])


@pytest.fixture(params=available_backends())
def backend_name(request) -> str:
    """Parametrize a test over every registered matrix backend."""
    return request.param


@pytest.fixture
def backend(backend_name):
    """The backend object for :func:`backend_name`."""
    return get_backend(backend_name)


@pytest.fixture
def jsonl_connect():
    """Client side of the JSONL TCP protocol: ``connect(address)`` opens
    one connection and returns ``call(request) -> response`` over it.
    Every connection is closed at teardown."""
    sockets: list = []

    def connect(address):
        sock = socket.create_connection(address, timeout=30)
        sockets.append(sock)
        stream = sock.makefile("rw", encoding="utf-8")

        def call(request: dict) -> dict:
            stream.write(json.dumps(request) + "\n")
            stream.flush()
            return json.loads(stream.readline())

        return call

    yield connect
    for sock in sockets:
        sock.close()
