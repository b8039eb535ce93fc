"""Seeded braid-closure diagrams and the census rows the program must reject.

A braid word is a list of nonzero integers: ``i`` is the generator
sigma_i (the strand at position i-1 crosses the one at position i, left
strand under) and ``-i`` its inverse.  ``braid_pd`` closes the braid and
writes its planar diagram code with the labels counterclockwise from the
incoming under-edge, as ``plainsphere.diagram`` expects.  The same word
always gives the same PD text, byte for byte.
"""

from __future__ import annotations

import random

BRAID_STRANDS = (3, 6)     # braid index range of the random items
BRAID_LENGTH = (16, 26)    # crossing count range of the random items


def braid_pd(word: list[int], strands: int) -> str:
    """PD text of the closure of `word` on `strands` strands."""
    position = list(range(strands))  # current edge label at each position
    next_label = strands
    tuples = []
    for g in word:
        i = abs(g) - 1
        x, y = position[i], position[i + 1]          # incoming: left, right
        x2, y2 = next_label, next_label + 1          # outgoing: left, right
        next_label += 2
        if g > 0:   # left-to-right strand x -> y2 passes under
            tuples.append((x, x2, y2, y))
        else:       # right-to-left strand y -> x2 passes under
            tuples.append((y, x, x2, y2))
        position[i], position[i + 1] = x2, y2
    # Closing the braid glues each bottom edge onto the top edge of its column.
    glue = dict(zip(position, range(strands)))
    order: dict[int, int] = {}
    for t in tuples:
        for label in t:
            order.setdefault(glue.get(label, label), len(order) + 1)
    return " ".join(
        "X({},{},{},{})".format(*(order[glue.get(v, v)] for v in t))
        for t in tuples
    )


def braid_components(word: list[int], strands: int) -> int:
    """Link components of the closure: cycles of the braid's permutation."""
    perm = list(range(strands))
    for g in word:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, cycles = set(), 0
    for start in range(strands):
        if start not in seen:
            cycles += 1
            p = start
            while p not in seen:
                seen.add(p)
                p = perm[p]
    return cycles


def trefoil_sum_word(k: int) -> tuple[list[int], int]:
    """sigma_1^3 sigma_2^3 ... sigma_k^3 on k+1 strands: k trefoils summed."""
    return [i for i in range(1, k + 1) for _ in range(3)], k + 1


def random_braid(index: int, accept) -> tuple[list[int], int, str]:
    """Random item `index`: (word, strands, pd), redrawn until `accept(pd)`.

    A word that leaves out some generator is redrawn too: its closure is
    split, and an untouched column would be a circle the PD cannot show.
    Each index has its own generator, so any subset of items can be
    rebuilt alone and always comes out the same.
    """
    rng = random.Random(f"braid-{index}")
    while True:
        strands = rng.randint(*BRAID_STRANDS)
        length = rng.randint(*BRAID_LENGTH)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(length)]
        if len({abs(g) for g in word}) < strands - 1:
            continue
        pd = braid_pd(word, strands)
        if accept(pd):
            return word, strands, pd


# Rows a census must skip, with the error class it must name.
REJECT_ROWS = (
    ("reject_malformed", "X(1,2,3) X(3,2,1)", "MalformedPD"),
    ("reject_split",
     "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3) X(7,10,8,11) X(9,12,10,7) X(11,8,12,9)",
     "DisconnectedProjection"),
    ("reject_closed_over", "X(2,1,3,4) X(3,1,2,4)", "ClosedOverComponent"),
)
