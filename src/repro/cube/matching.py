"""Step 1 -- matching query results to facts and dimensions.

"We say that a pair (cni, cpi) matches a fact f iff pi_cp(R) is a
subset of pi_context(f.ContextList)."  Three outcomes per column:

* **full match** -- every path in the column is a known context;
* **partial match** -- some paths intersect a definition's contexts
  ("SEDA issues a warning message to the user");
* **no match** -- the user may define a new fact or dimension from the
  column, or the column is ignored during cube creation ("those values
  may have been used only to restrict the data set").
"""

from repro.cube.registry import DIMENSION, FACT


class ColumnMatch:
    """Match outcome for one result column (one query term)."""

    __slots__ = ("index", "paths", "facts", "dimensions", "partial")

    def __init__(self, index, paths, facts, dimensions, partial):
        self.index = index
        self.paths = set(paths)
        self.facts = facts
        self.dimensions = dimensions
        self.partial = partial

    @property
    def matched(self):
        return bool(self.facts or self.dimensions)

    @property
    def has_warning(self):
        """Partial intersections trigger the Section 7 warning."""
        return bool(self.partial) and not self.matched

    def best(self):
        """The preferred definition: first dimension, then fact."""
        if self.dimensions:
            return self.dimensions[0]
        if self.facts:
            return self.facts[0]
        return None

    def __repr__(self):
        return (
            f"ColumnMatch(col={self.index}, facts={[f.name for f in self.facts]}, "
            f"dims={[d.name for d in self.dimensions]}, "
            f"partial={[p.name for p in self.partial]})"
        )


class MatchReport:
    """All column matches plus the derived Fq and Dq sets."""

    def __init__(self, columns):
        self.columns = columns

    @property
    def facts(self):
        """Fq: facts present in the result set, first-match per column."""
        seen = {}
        for column in self.columns:
            for fact in column.facts:
                seen.setdefault(fact.name, fact)
        return list(seen.values())

    @property
    def dimensions(self):
        """Dq: dimensions present in the result set."""
        seen = {}
        for column in self.columns:
            for dimension in column.dimensions:
                seen.setdefault(dimension.name, dimension)
        return list(seen.values())

    def warnings(self):
        """Columns with partial-intersection warnings."""
        messages = []
        for column in self.columns:
            for definition in column.partial:
                messages.append(
                    f"column {column.index + 1}: paths {sorted(column.paths)} "
                    f"intersect but do not all match {definition.kind} "
                    f"{definition.name!r}; verify the chosen context list"
                )
        return messages

    def unmatched_columns(self):
        return [column for column in self.columns if not column.matched]

    def column(self, index):
        return self.columns[index]

    def __iter__(self):
        return iter(self.columns)


class ResultMatcher:
    """Runs Step 1 over a :class:`~repro.twig.complete.ResultTable`."""

    def __init__(self, registry):
        self.registry = registry

    def match(self, result_table):
        """The :class:`MatchReport` for a complete result."""
        columns = []
        for index in range(len(result_table.query.terms)):
            paths = result_table.column_paths(index)
            facts = []
            dimensions = []
            partial = []
            for definition in self.registry.facts + self.registry.dimensions:
                if definition.matches_paths(paths):
                    if definition.kind == FACT:
                        facts.append(definition)
                    else:
                        dimensions.append(definition)
                elif definition.overlaps_paths(paths):
                    partial.append(definition)
            columns.append(
                ColumnMatch(index, paths, facts, dimensions, partial)
            )
        return MatchReport(columns)

    def define_new(self, name, kind, result_table, column_index, key,
                   collection, verify=True):
        """Create a fact/dimension from an unmatched column (Section 7).

        The key is verified by resolving it for every node in the
        column and checking uniqueness, unless ``verify`` is disabled.
        Returns the new :class:`CubeDefinition`.
        """
        paths = sorted(result_table.column_paths(column_index))
        if not paths:
            raise ValueError(
                f"column {column_index} is empty; nothing to define"
            )
        context_list = [(path, key) for path in paths]
        if verify:
            from repro.cube.keys import RelativeKey

            relative_key = key if isinstance(key, RelativeKey) else RelativeKey(key)
            node_ids = [row[column_index] for row in result_table.rows]
            unique, duplicates = relative_key.verify_uniqueness(
                collection, node_ids
            )
            if not unique:
                raise ValueError(
                    f"key {list(relative_key)} is not unique for column "
                    f"{column_index + 1}: duplicate key values "
                    f"{duplicates[:3]}"
                )
        if kind == FACT:
            return self.registry.add_fact(name, context_list)
        if kind == DIMENSION:
            return self.registry.add_dimension(name, context_list)
        raise ValueError(f"kind must be 'fact' or 'dimension', got {kind!r}")
