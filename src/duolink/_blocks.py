"""Block size of a trial's elementwise stages.

A trial holds whole only the arrays that a whole-trace step needs: the two
received streams, the two phase traces and the uint8 quadrant decisions.
Every elementwise stage in between runs over blocks of BLOCK symbols, so its
temporaries stay the size of one block however long the trial is. No result
depends on BLOCK.
"""

BLOCK = 1 << 16


def blocks(start: int, stop: int):
    """Consecutive slices of at most BLOCK indices covering [start, stop)."""
    for a in range(start, stop, BLOCK):
        yield slice(a, min(a + BLOCK, stop))
