"""Reference 5-user network with two interference strength levels.

Direct links have strength 1, strong cross links strength 1, weak cross
links strength 1/2.  Sending the weak links to the power-control side and
the strong links to the vector-space side yields symmetric GDoF 3/10; the
weak (receiver 2 <- transmitter 3) link is the one whose reassignment to
the vector-space side improves that to 1/3, which is why this topology
anchors the golden tests.
"""

from __future__ import annotations

from fractions import Fraction

from .model import ChannelMatrix

# (receiver, transmitter) pairs, 0-based
STRONG_LINKS = ((0, 3), (1, 0), (2, 1), (2, 4), (3, 0), (4, 3))
WEAK_LINKS = ((0, 1), (1, 2), (1, 4), (2, 3), (3, 4))
MOVABLE_WEAK_LINK = (1, 2)


def five_user_network() -> ChannelMatrix:
    alpha = [[Fraction(0)] * 5 for _ in range(5)]
    for k in range(5):
        alpha[k][k] = Fraction(1)
    for k, i in STRONG_LINKS:
        alpha[k][i] = Fraction(1)
    for k, i in WEAK_LINKS:
        alpha[k][i] = Fraction(1, 2)
    return ChannelMatrix(5, tuple(tuple(row) for row in alpha))


# TIM sides of the two reference maps (see decomp.split)
BASELINE_TIM_LINKS = frozenset(STRONG_LINKS)  # weak links to power control: symmetric GDoF 3/10
IMPROVED_TIM_LINKS = BASELINE_TIM_LINKS | {MOVABLE_WEAK_LINK}  # the one weak link moved: 1/3
