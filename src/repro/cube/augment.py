"""Step 2 -- augmenting the result with key columns.

"Given the sets Ffinal and Dfinal, we may need to expand R(q) to make
sure it includes all key and value columns of every fact and
dimension."  The canonical example: the percentage fact's key is
``(/country, /country/year, ../trade_country)`` and ``year`` is not in
R(q) -- so a ``/country/year`` column is added, and because that path
is the context of the known ``year`` dimension, the dimension joins
``Dfinal`` automatically.
"""

from repro.cube.keys import KeyResolutionError


class AugmentedResult:
    """A result table extended with resolved key columns.

    ``added_columns`` maps a key component (path expression string) to
    a per-row list of resolved node ids (``None`` where resolution
    failed); base term columns are reused when the component is already
    bound by the query.
    """

    def __init__(self, base, fact_columns, added_columns, auto_dimensions,
                 failures):
        self.base = base
        self.fact_columns = fact_columns
        self.added_columns = added_columns
        self.auto_dimensions = auto_dimensions
        self.failures = failures

    def column_values(self, component):
        """Content values for an added key column, row order."""
        collection = self.base.collection
        return [
            collection.node(node_id).value if node_id is not None else None
            for node_id in self.added_columns[component]
        ]

    def __len__(self):
        return len(self.base)


class Augmenter:
    """Expands a result table with the key columns of chosen facts."""

    def __init__(self, collection, registry):
        self.collection = collection
        self.registry = registry

    def augment(self, result_table, facts, dimensions):
        """Resolve key components for every fact column.

        ``facts``/``dimensions`` are the user-adjusted Ffinal and
        Dfinal.  For each fact bound to a result column, every key
        component is resolved per row; components that are absolute
        paths and correspond to a known dimension's context pull that
        dimension into the returned ``auto_dimensions`` list (the
        Figure 3 year-dimension behavior).
        """
        fact_columns = self._bind_columns(result_table, facts)
        added_columns = {}
        failures = []
        auto_dimensions = []
        seen_dimensions = {dimension.name for dimension in dimensions}

        row_count = len(result_table.rows)
        for fact, column_index in fact_columns:
            for row_number, row in enumerate(result_table.rows):
                node_id = row[column_index]
                context = self.collection.node(node_id).path
                key = fact.key_for_context(context)
                if key is None:
                    failures.append(
                        (fact.name, row_number,
                         f"no key registered for context {context}")
                    )
                    continue
                try:
                    resolved = key.resolve_nodes(self.collection, node_id)
                except KeyResolutionError as error:
                    failures.append((fact.name, row_number, str(error)))
                    continue
                for component, resolved_id in zip(key, resolved):
                    if component == ".":
                        continue
                    column = added_columns.setdefault(
                        component, [None] * row_count
                    )
                    column[row_number] = resolved_id

        # Auto-match added absolute-path columns against known dimensions.
        for component in added_columns:
            if not component.startswith("/"):
                continue
            dimension = self.registry.dimension_for_context(component)
            if dimension is not None and dimension.name not in seen_dimensions:
                auto_dimensions.append(dimension)
                seen_dimensions.add(dimension.name)

        return AugmentedResult(
            result_table, fact_columns, added_columns, auto_dimensions,
            failures,
        )

    def _bind_columns(self, result_table, facts):
        """Pair each chosen fact with the result column it matched."""
        bindings = []
        for fact in facts:
            for index in range(len(result_table.query.terms)):
                paths = result_table.column_paths(index)
                if paths and paths <= fact.contexts:
                    bindings.append((fact, index))
                    break
        return bindings
