"""Step 3 -- extraction: generating and populating the star schema.

For every fact in Ffinal a fact table is generated; for every
dimension in Dfinal a dimension table.  Key components that correspond
to known dimensions take that dimension's name as their column name
(Figure 3's fact table columns: country, year, import-country).
Measure strings are parsed into numbers (``"16.9%"`` -> 16.9,
``"12.31T"`` -> 12.31e12) so that the OLAP layer can aggregate them.
"""

import re

from repro.cube.keys import KeyResolutionError
from repro.cube.star import DimensionTable, FactTable, StarSchema

_MEASURE_PATTERN = re.compile(
    r"^\s*\$?\s*(-?[0-9][0-9,]*(?:\.[0-9]+)?)\s*"
    r"(%|T|B|M|K|trillion|billion|million|thousand)?\s*$",
    re.IGNORECASE,
)

_SCALE = {
    "t": 1e12, "trillion": 1e12,
    "b": 1e9, "billion": 1e9,
    "m": 1e6, "million": 1e6,
    "k": 1e3, "thousand": 1e3,
}


def parse_measure(text):
    """Parse a measure string into a float, or ``None`` if non-numeric.

    Handles the World Factbook value shapes: percentages (unit
    suffix ``%`` is dropped -- ``"16.9%"`` -> 16.9), magnitude suffixes
    (``"12.31T"`` -> 1.231e13, ``"924.4B"`` -> 9.244e11), currency
    markers, and thousands separators.
    """
    if text is None:
        return None
    match = _MEASURE_PATTERN.match(text)
    if not match:
        return None
    number = float(match.group(1).replace(",", ""))
    suffix = match.group(2)
    if suffix and suffix != "%":
        number *= _SCALE[suffix.lower()]
    return number


class TableExtractor:
    """Generates fact and dimension tables from an augmented result."""

    def __init__(self, collection, registry):
        self.collection = collection
        self.registry = registry

    def extract(self, augmented, facts, dimensions, merge_facts=True,
                numeric_measures=True):
        """Build the :class:`StarSchema`.

        ``facts`` and ``dimensions`` are the final (augmented) sets.
        Rows whose key fails to resolve are skipped -- they are already
        recorded in ``augmented.failures``.
        """
        fact_tables = []
        dimension_members = {dimension.name: [] for dimension in dimensions}

        for fact, column_index in augmented.fact_columns:
            table = self._fact_table(
                augmented, fact, column_index, dimension_members,
                numeric_measures,
            )
            fact_tables.append(table)

        # Dimensions bound directly to result columns contribute their
        # column values as members.
        for dimension in dimensions:
            for index in range(len(augmented.base.query.terms)):
                paths = augmented.base.column_paths(index)
                if paths and paths <= dimension.contexts:
                    dimension_members[dimension.name].extend(
                        value
                        for value in augmented.base.values(index)
                        if value
                    )

        dimension_tables = [
            DimensionTable(name, members)
            for name, members in dimension_members.items()
        ]
        schema = StarSchema(fact_tables, dimension_tables)
        if merge_facts:
            schema.merge_compatible_facts()
        return schema

    # -- internals ------------------------------------------------------------

    def _fact_table(self, augmented, fact, column_index, dimension_members,
                    numeric_measures):
        base = augmented.base
        rows = []
        key_columns = None
        for row_number, row in enumerate(base.rows):
            node_id = row[column_index]
            context = self.collection.node(node_id).path
            key = fact.key_for_context(context)
            if key is None:
                continue
            try:
                resolved = key.resolve_nodes(self.collection, node_id)
            except KeyResolutionError:
                continue
            key_values = []
            column_names = []
            for component, resolved_id in zip(key, resolved):
                if component == ".":
                    continue  # the measure itself
                value = self.collection.node(resolved_id).value
                column_names.append(self._column_name(component, resolved_id))
                key_values.append(value)
            if key_columns is None:
                key_columns = column_names
            measure_text = self.collection.node(node_id).value
            measure = (
                parse_measure(measure_text) if numeric_measures
                else measure_text
            )
            if numeric_measures and measure is None:
                measure = measure_text  # keep raw when unparseable
            rows.append(tuple(key_values) + (measure,))
            # Key values feed the dimension member lists.
            for name, value in zip(column_names, key_values):
                if name in dimension_members and value:
                    dimension_members[name].append(value)
        if key_columns is None:
            key_columns = []
        deduped = sorted(set(rows), key=lambda r: tuple(str(c) for c in r))
        return FactTable(fact.name, key_columns, [fact.name], deduped)

    def _column_name(self, component, resolved_id):
        """Column name for a key component: the matching dimension's
        name when one exists, else the component's leaf step."""
        if component.startswith("/"):
            dimension = self.registry.dimension_for_context(component)
            if dimension is not None:
                return dimension.name
            return component.rsplit("/", 1)[-1]
        node = self.collection.node(resolved_id)
        dimension = self.registry.dimension_for_context(node.path)
        if dimension is not None:
            return dimension.name
        return component.rsplit("/", 1)[-1]
    # -- SQL/XML rendering -------------------------------------------------------

    def sql_for_fact(self, fact, context):
        """The SQL/XML query SEDA would generate for one fact context.

        Rendered for documentation parity with the paper ("we generate
        database queries to compute the fact and dimension tables");
        execution in this reproduction goes directly against the store.
        """
        key = fact.key_for_context(context)
        components = ", ".join(f"'{component}'" for component in key or ())
        return (
            "SELECT X.* FROM xml_documents, XMLTABLE("
            f"'{context}' COLUMNS value VARCHAR PATH '.', "
            f"key_components({components})) AS X;"
        )
