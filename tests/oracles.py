"""Reference computations that only the tests read."""

import math
from typing import Sequence

import numpy as np


def geometric_decay_rate(points: Sequence) -> float:
    """Least-squares geometric rate of a positive decaying series:
    fits log v against g and returns exp(slope).  For an order-1 chain
    the MI tail decays at the squared second eigenvalue."""
    pts = [(float(g), float(v)) for g, v in points if float(v) > 0]
    if len(pts) < 2 or len({g for g, _ in pts}) < 2:
        raise ValueError("need at least two positive points to fit a rate")
    gs = [g for g, _ in pts]
    logs = [math.log(v) for _, v in pts]
    slope = float(np.polyfit(gs, logs, 1)[0])
    return math.exp(slope)
