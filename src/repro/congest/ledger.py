"""Round-cost accounting for emulated CONGEST algorithms.

The paper's multi-phase algorithm runs on auxiliary contracted graphs and
is *emulated* on the underlying network through trees (paper Sections
2.1.5, 2.1.6 and 4.1).  The emulated layer in this library performs the
algorithm's state changes directly and charges the communication cost of
every step to a :class:`RoundLedger`, using explicit formulas recorded
alongside each charge.  This keeps round accounting auditable: every
benchmark row can be traced back to a list of (rounds, category, note)
records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List


@dataclass(frozen=True)
class ChargeRecord:
    """A single round charge."""

    rounds: int
    category: str
    note: str = ""


@dataclass
class RoundLedger:
    """Accumulates round charges, grouped by category.

    Categories are free-form dotted strings such as ``"stage1.forest"`` or
    ``"stage2.bfs"``; :meth:`by_category` groups by full category string.
    """

    records: List[ChargeRecord] = field(default_factory=list)

    def charge(self, rounds: int, category: str, note: str = "") -> int:
        """Record *rounds* rounds of cost; returns the charged amount."""
        if rounds < 0:
            raise ValueError(f"cannot charge a negative number of rounds: {rounds}")
        if rounds:
            self.records.append(ChargeRecord(int(rounds), category, note))
        return int(rounds)

    @property
    def total(self) -> int:
        """Total rounds charged so far."""
        return sum(r.rounds for r in self.records)

    def by_category(self) -> Dict[str, int]:
        """Total rounds per full category string."""
        out: Dict[str, int] = {}
        for record in self.records:
            out[record.category] = out.get(record.category, 0) + record.rounds
        return out

    def merge(self, other: "RoundLedger") -> None:
        """Append all records from *other*."""
        self.records.extend(other.records)

    def __iter__(self) -> Iterator[ChargeRecord]:
        return iter(self.records)

    def summary(self, indent: str = "") -> str:
        """Human-readable multi-line summary."""
        lines = [f"{indent}total rounds: {self.total}"]
        for category, rounds in sorted(self.by_category().items()):
            lines.append(f"{indent}  {category}: {rounds}")
        return "\n".join(lines)


@dataclass
class TreeCostModel:
    """Cost formulas for the tree-based emulation primitives.

    All formulas are expressed in rounds on the underlying graph ``G`` and
    follow the paper's emulation arguments:

    * broadcasting one ``O(log n)``-bit message down a tree of height ``h``
      takes ``h`` rounds; a message of ``w`` words pipelines in
      ``h + w - 1`` rounds;
    * convergecast of ``k`` distinct ``O(log n)``-bit messages up a tree of
      height ``h`` pipelines in ``h + k - 1`` rounds;
    * one neighbor exchange across part boundaries is 1 round.
    """

    def broadcast(self, height: int, words: int = 1) -> int:
        """Rounds to broadcast a *words*-word message down the tree."""
        if height < 0:
            raise ValueError("height must be non-negative")
        return max(1, height + max(1, words) - 1)

    def convergecast(self, height: int, messages: int = 1) -> int:
        """Rounds to aggregate *messages* distinct words up the tree."""
        if height < 0:
            raise ValueError("height must be non-negative")
        return max(1, height + max(1, messages) - 1)

    def neighbor_exchange(self) -> int:
        """Rounds for a single exchange over part-boundary edges."""
        return 1

    def super_round(self, height: int, alpha: int) -> int:
        """Rounds to emulate one super-round of forest decomposition.

        Per paper Section 2.1.5: one boundary exchange, a convergecast in
        which each node forwards at most ``3*alpha + 1`` aggregated
        (root-id, count) messages, and a broadcast of the Active/Inactive
        decision.
        """
        k = 3 * alpha + 1
        return (
            self.neighbor_exchange()
            + self.convergecast(height, messages=k)
            + self.broadcast(height)
        )

    def aux_message_relay(self, height: int, words: int = 1) -> int:
        """Rounds to relay one auxiliary-graph message via part trees.

        A message from ``v(P)`` to an auxiliary neighbor travels down P's
        tree, over a boundary edge, and up the neighboring part's tree
        (paper Section 2.1.6): ``2h + 1`` for one-word messages.
        """
        return self.broadcast(height, words) + 1 + self.convergecast(height, words)
