"""Dewey order identifiers for XML nodes.

A Dewey ID encodes a node's position as the path of 1-based child
ordinals from the document root, e.g. ``1.2.2.1`` (Tatarinov et al. [19],
cited by the paper for node references in query results).  Dewey IDs give
us document order (lexicographic comparison), ancestor/descendant tests
(prefix tests), and stable node references for the complete-result tuples
of Figure 3 -- all without touching the tree.
"""

import functools


@functools.total_ordering
class DeweyID:
    """An immutable Dewey order identifier.

    ``components`` is a tuple of 1-based ordinals; the document root is
    ``(1,)``.  Comparison order is document order: ancestors sort before
    their descendants, earlier siblings before later ones.
    """

    __slots__ = ("components",)

    def __init__(self, components):
        self.components = tuple(components)
        if not self.components:
            raise ValueError("a Dewey ID needs at least one component")
        for part in self.components:
            if not isinstance(part, int) or part < 1:
                raise ValueError(
                    f"Dewey components must be positive integers, got {part!r}"
                )

    @classmethod
    def root(cls):
        """The Dewey ID of a document root."""
        return cls((1,))

    @classmethod
    def parse(cls, text):
        """Parse the dotted string form, e.g. ``"1.2.2.1"``."""
        try:
            return cls(tuple(int(piece) for piece in text.split(".")))
        except ValueError:
            raise ValueError(f"invalid Dewey ID string {text!r}") from None

    # -- derivation --------------------------------------------------------

    def child(self, ordinal):
        """The Dewey ID of this node's ``ordinal``-th child (1-based)."""
        if ordinal < 1:
            raise ValueError("child ordinal must be >= 1")
        return DeweyID(self.components + (ordinal,))

    def parent(self):
        """The parent's Dewey ID, or ``None`` for the root."""
        if len(self.components) == 1:
            return None
        return DeweyID(self.components[:-1])

    # -- relationships -------------------------------------------------------

    @property
    def depth(self):
        """Number of components; the root has depth 1."""
        return len(self.components)

    def is_ancestor_of(self, other):
        """True when this ID is a *proper* ancestor of ``other``."""
        mine, theirs = self.components, other.components
        return len(mine) < len(theirs) and theirs[: len(mine)] == mine

    def is_descendant_of(self, other):
        """True when this ID is a *proper* descendant of ``other``."""
        return other.is_ancestor_of(self)

    def common_ancestor(self, other):
        """The lowest common ancestor of the two IDs (may be either one)."""
        return DeweyID(self.components[: self._shared_depth(other)])

    def tree_distance(self, other):
        """Number of parent/child edges between the two nodes."""
        shared = self._shared_depth(other)
        return len(self.components) + len(other.components) - 2 * shared

    def _shared_depth(self, other):
        """Depth of the lowest common ancestor of the two IDs."""
        shared = 0
        for a, b in zip(self.components, other.components):
            if a != b:
                break
            shared += 1
        if not shared:
            raise ValueError(
                "Dewey IDs from the same document always share the root; "
                f"{self} and {other} do not"
            )
        return shared

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, DeweyID):
            return NotImplemented
        return self.components == other.components

    def __lt__(self, other):
        if not isinstance(other, DeweyID):
            return NotImplemented
        return self.components < other.components

    def __hash__(self):
        return hash(self.components)

    def __str__(self):
        return ".".join(str(part) for part in self.components)

    def __repr__(self):
        return f"DeweyID({self})"
