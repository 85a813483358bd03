"""Small self-contained data structures used across the library.

Currently:

* :class:`DisjointSets` -- union-find with path compression and union by
  size, used by the contraction steps of Stage I and by graph utilities.
* :class:`FenwickTree` -- a binary indexed tree over integer positions
  (point updates, prefix and range sums in O(log n)).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List


class DisjointSets:
    """Union-find over arbitrary hashable elements.

    Elements are added lazily on first use.  ``find`` uses path compression
    and ``union`` uses union by size, giving effectively-constant amortized
    operations.
    """

    def __init__(self, elements: Iterable[Hashable] = ()):  # noqa: D107
        self._parent: Dict[Hashable, Hashable] = {}
        self._size: Dict[Hashable, int] = {}
        for element in elements:
            self.add(element)

    def add(self, element: Hashable) -> None:
        """Register *element* as a singleton set if it is new."""
        if element not in self._parent:
            self._parent[element] = element
            self._size[element] = 1

    def __contains__(self, element: Hashable) -> bool:
        return element in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, element: Hashable) -> Hashable:
        """Return the canonical representative of *element*'s set."""
        self.add(element)
        root = element
        parent = self._parent
        while parent[root] != root:
            root = parent[root]
        # Path compression.
        while parent[element] != root:
            parent[element], element = root, parent[element]
        return root

    def union(self, a: Hashable, b: Hashable) -> Hashable:
        """Merge the sets containing *a* and *b*; return the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return ra

    def connected(self, a: Hashable, b: Hashable) -> bool:
        """Return True when *a* and *b* are in the same set."""
        return self.find(a) == self.find(b)

    def groups(self) -> Dict[Hashable, List[Hashable]]:
        """Return a mapping from set representative to member list."""
        out: Dict[Hashable, List[Hashable]] = {}
        for element in self._parent:
            out.setdefault(self.find(element), []).append(element)
        return out

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._parent)


class FenwickTree:
    """Binary indexed tree supporting point updates and prefix sums.

    Positions are 0-based integers in ``[0, size)``.
    """

    def __init__(self, size: int):  # noqa: D107
        if size < 0:
            raise ValueError("FenwickTree size must be non-negative")
        self._size = size
        self._tree = [0] * (size + 1)

    @property
    def size(self) -> int:
        """Number of addressable positions."""
        return self._size

    def add(self, index: int, delta: int = 1) -> None:
        """Add *delta* at *index*."""
        if not 0 <= index < self._size:
            raise IndexError(f"index {index} out of range [0, {self._size})")
        i = index + 1
        tree = self._tree
        while i <= self._size:
            tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        """Return the sum of values at positions ``0 .. index`` inclusive.

        ``index = -1`` yields 0; indices beyond the end are clamped.
        """
        i = min(index, self._size - 1) + 1
        total = 0
        tree = self._tree
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total

    def range_sum(self, lo: int, hi: int) -> int:
        """Return the sum of values at positions ``lo .. hi`` inclusive."""
        if hi < lo:
            return 0
        return self.prefix_sum(hi) - self.prefix_sum(lo - 1)

    def total(self) -> int:
        """Return the sum of all values."""
        return self.prefix_sum(self._size - 1)
