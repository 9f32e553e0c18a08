"""The check of the chains forced by Z_j^2 = -1 (``elliptic.check_minus_one_chains``).

Each of its raises is reached by a sequence built by hand from the true
sequence of fig2312(2), whose cycles Z_t = E_t + ... + E_4 all have
Z_t^2 = -1.  The check as it stood before it was telescoped, with its
chain-adjacency test and its adjunction clause, is kept as
``oracles.check_minus_one_chains``; both give the same report, or raise
the same check, on the corpus and on every broken sequence.
"""

from __future__ import annotations

import re

import pytest

import oracles
from singlab.corpus import brell3, fig244, fig2312
from singlab.elliptic import EllipticSequence, check_minus_one_chains, elliptic_sequence
from singlab.errors import InternalCheckError
from singlab.graph import Cycle

CHECK = "minus-one-chain-structure"
CORPUS = {
    f"{family.__name__}({p})": family(p)
    for family, params in ((fig2312, range(9)), (fig244, range(7)), (brell3, range(7)))
    for p in params
}


def _replaced(s, cycles):
    return EllipticSequence(s.graph, s.supports[:len(cycles)], tuple(cycles))


# each builder takes the true sequence of fig2312(2) and returns one that
# breaks the check at the raise named by the key, matched by its message
BROKEN = {
    # Z_1 doubled: 2 Z_1 meets E_1 with pairing -2
    "no unique curve of pairing -1": lambda s: _replaced(
        s, (s.cycles[0], 2 * s.cycles[1]) + s.cycles[2:]),
    # Z_2 dropped: Z_1 - Z_3 = E_1 + E_2
    "is not the curve F_1": lambda s: _replaced(
        s, s.cycles[:2] + s.cycles[3:]),
    # E_min alone above the zero cycle: F_0 = E_4, the genus-1 (-1)-curve
    "E4 is not a genus-0 (-2)-curve": lambda s: _replaced(
        s, (s.cycles[4], Cycle.zero(s.graph))),
    # Z_2 + E_2 put first, of degree 5: C_m = (0, 0, 3, 3, 4) meets F_1 = E_2
    "total cycle meets E2": lambda s: _replaced(
        s, (s.cycles[2] + Cycle(s.graph, (0, 0, 1, 0, 0)),) + s.cycles[2:]),
}


@pytest.mark.parametrize("message", list(BROKEN))
def test_every_raise_is_reached(message):
    seq = BROKEN[message](elliptic_sequence(fig2312(2)))
    with pytest.raises(InternalCheckError, match=re.escape(message)) as caught:
        check_minus_one_chains(seq.graph, seq)
    assert caught.value.check == CHECK


@pytest.mark.parametrize("message", list(BROKEN))
def test_the_oracle_raises_the_same_check(message):
    seq = BROKEN[message](elliptic_sequence(fig2312(2)))
    with pytest.raises(InternalCheckError) as caught:
        oracles.check_minus_one_chains(seq.graph, seq)
    assert caught.value.check == CHECK


@pytest.mark.parametrize("graph", list(CORPUS))
def test_the_report_agrees_with_the_oracle(graph):
    g = CORPUS[graph]
    seq = elliptic_sequence(g)
    assert check_minus_one_chains(g, seq) == oracles.check_minus_one_chains(g, seq)
