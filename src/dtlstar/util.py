"""Shared helpers: bitmask world sets, a backtracking enumerator and check
verdicts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def choices(n: int, allowed: Callable[[int, list], Iterable]) -> Iterator[tuple]:
    """Every n-tuple whose entry i is drawn from ``allowed(i, chosen)``, depth
    first and in the order ``allowed`` lists them.  ``chosen`` holds entries
    0..i-1 and changes as the search moves, so ``allowed`` reads it at once."""
    if n == 0:
        yield ()
        return
    chosen: list = []
    stack = [iter(allowed(0, chosen))]
    while stack:
        for x in stack[-1]:
            chosen.append(x)
            if len(chosen) == n:
                yield tuple(chosen)
                chosen.pop()
            else:
                stack.append(iter(allowed(len(chosen), chosen)))
                break
        else:
            stack.pop()
            if chosen:
                chosen.pop()


@dataclass(frozen=True)
class Verdict:
    """Boolean check result with an optional failure witness.

    Truthiness follows ``ok``; ``reason`` and ``witness`` describe the first
    violation found when the check fails.
    """

    ok: bool
    reason: str = ""
    witness: Any = None

    def __bool__(self) -> bool:
        return self.ok


OK = Verdict(True)


def fail(reason: str, witness: Any = None) -> Verdict:
    return Verdict(False, reason, witness)
