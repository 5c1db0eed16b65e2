"""Relative XML keys (Buneman et al. [5], as used in Section 7).

A relative key for a node ``n`` is a list of path expressions; each is
either *absolute* (``/country/year`` -- resolved from the document
root) or *relative* (``.`` for the node itself, ``../trade_country``
for a sibling -- resolved from ``n``).  The paper's running example:
the key of the percentage fact is
``(/country, /country/year, ../trade_country)``.

Resolution enforces the paper's stated assumptions: every component
must resolve to *exactly one* node ("this assumes that every percentage
in the result will have exactly one such sibling, as well as that every
document in the result will have exactly one /country and
/country/year elements") -- anything else raises
:class:`KeyResolutionError` so that the caller can warn the user.
"""


class KeyResolutionError(ValueError):
    """A key component resolved to zero or multiple nodes."""

    def __init__(self, component, node, count):
        super().__init__(
            f"key component {component!r} resolved to {count} nodes "
            f"(expected exactly 1) relative to node at {node.path}"
        )
        self.component = component
        self.count = count


class RelativeKey:
    """An ordered list of absolute/relative path components."""

    __slots__ = ("components",)

    def __init__(self, components):
        self.components = tuple(components)
        if not self.components:
            raise ValueError("a relative key needs at least one component")
        for component in self.components:
            if not (
                component == "."
                or component.startswith("/")
                or component.startswith("..")
            ):
                raise ValueError(
                    f"key component {component!r} must be '.', absolute "
                    "(/a/b), or relative (../a)"
                )

    # -- resolution --------------------------------------------------------

    def resolve_nodes(self, collection, node_id):
        """Resolve every component to a node id, relative to ``node_id``.

        Returns a list aligned with ``components``.  Raises
        :class:`KeyResolutionError` on missing or ambiguous components.
        """
        node = collection.node(node_id)
        resolved = []
        for component in self.components:
            matches = self._resolve_component(collection, node, component)
            if len(matches) != 1:
                raise KeyResolutionError(component, node, len(matches))
            resolved.append(matches[0])
        return resolved

    def resolve_values(self, collection, node_id):
        """Key values (node contents) for ``node_id``, component order."""
        return tuple(
            collection.node(resolved).value
            for resolved in self.resolve_nodes(collection, node_id)
        )

    def _resolve_component(self, collection, node, component):
        if component == ".":
            return [node.node_id]
        if component.startswith("/"):
            # Absolute: all nodes on that path within the same document.
            return [
                node_id
                for node_id in collection.by_path(component)
                if collection.node(node_id).doc_id == node.doc_id
            ]
        # Relative: ../step/step...
        current = [node.node_id]
        for step in component.split("/"):
            next_nodes = []
            for node_id in current:
                data_node = collection.node(node_id)
                if step == "..":
                    if data_node.parent_id is not None:
                        next_nodes.append(data_node.parent_id)
                elif step == ".":
                    next_nodes.append(node_id)
                else:
                    for child_id in data_node.child_ids:
                        if collection.node(child_id).tag == step:
                            next_nodes.append(child_id)
            current = next_nodes
        return current

    # -- verification -----------------------------------------------------------

    def verify_uniqueness(self, collection, node_ids):
        """Check the key uniquely identifies each node in ``node_ids``.

        The paper: "The system automatically verifies the keys by
        computing them for every cni in R(q) and checking their
        uniqueness."  Returns ``(is_unique, duplicates)`` where
        duplicates lists offending key tuples.
        """
        seen = {}
        duplicates = []
        for node_id in node_ids:
            values = self.resolve_values(collection, node_id)
            if values in seen and seen[values] != node_id:
                duplicates.append(values)
            else:
                seen[values] = node_id
        return (not duplicates), duplicates

    # -- dunder ------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RelativeKey):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def __repr__(self):
        return f"RelativeKey({list(self.components)!r})"
