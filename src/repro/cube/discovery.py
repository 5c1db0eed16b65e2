"""Automatic discovery of facts, dimensions, and keys (Section 8).

The paper leaves two things manual and names them as future work:

* "SEDA could also take advantage of automated discovery of facts and
  dimensions" (Section 7) / "we plan to investigate automatic
  discovery of facts and dimensions from the data" (Section 8);
* "Currently, the keys are specified manually, but in the future we
  plan to adopt the techniques of GORDIAN [17] to discover them
  automatically" (Section 7).

This module implements both:

* :class:`FactDimensionDiscoverer` profiles every root-to-leaf path and
  proposes *fact candidates* (numeric-valued paths: measures) and
  *dimension candidates* (low-cardinality categorical paths), each with
  an automatically discovered relative key.
* :func:`discover_key` searches the space of key components (absolute
  paths of the same document plus near-sibling relative paths), in
  GORDIAN's spirit of exploring composite keys from a candidate
  attribute set, verifying uniqueness against the actual data and
  returning a minimal verified key.
"""

import itertools

from repro.cube.extract import parse_measure
from repro.cube.keys import KeyResolutionError, RelativeKey


class PathProfile:
    """Value statistics for one root-to-leaf path."""

    __slots__ = ("path", "count", "distinct", "numeric", "document_ids",
                 "samples")

    def __init__(self, path):
        self.path = path
        self.count = 0
        self.distinct = set()
        self.numeric = 0
        self.document_ids = set()
        self.samples = []

    @property
    def cardinality_ratio(self):
        """Distinct values / occurrences: low for dimensions."""
        if not self.count:
            return 0.0
        return len(self.distinct) / self.count

    @property
    def numeric_ratio(self):
        if not self.count:
            return 0.0
        return self.numeric / self.count

    def __repr__(self):
        return (
            f"PathProfile({self.path!r}, n={self.count}, "
            f"distinct={len(self.distinct)}, numeric={self.numeric_ratio:.2f})"
        )


class Candidate:
    """A discovered fact or dimension candidate."""

    __slots__ = ("kind", "path", "profile", "key", "score")

    def __init__(self, kind, path, profile, key, score):
        self.kind = kind
        self.path = path
        self.profile = profile
        self.key = key
        self.score = score

    def suggested_name(self):
        """A human-friendly default name from the leaf steps."""
        steps = [step for step in self.path.split("/") if step]
        if len(steps) >= 2:
            return f"{steps[-2]}-{steps[-1]}".replace("@", "")
        return steps[-1].replace("@", "")

    def __repr__(self):
        return (
            f"Candidate({self.kind}, {self.path!r}, score={self.score:.2f}, "
            f"key={list(self.key) if self.key else None})"
        )


def _sibling_components(collection, path, limit=6):
    """Relative components available next to nodes on ``path``.

    Candidate discriminators are the tags of sibling elements -- e.g.
    ``../trade_country`` for the percentage path -- collected from a
    sample of instances.
    """
    components = []
    seen = set()
    for node_id in collection.by_path(path)[:50]:
        node = collection.node(node_id)
        if node.parent_id is None:
            continue
        parent = collection.node(node.parent_id)
        for child_id in parent.child_ids:
            child = collection.node(child_id)
            if child.node_id == node_id or child.tag.startswith("@"):
                continue
            component = f"../{child.tag}"
            if component not in seen:
                seen.add(component)
                components.append(component)
            if len(components) >= limit:
                return components
    return components


def _document_level_components(collection, path, limit=6):
    """Absolute key-component candidates: document-unique paths.

    A path qualifies when every sampled document containing ``path``
    has exactly one node on it (the paper's key assumption for
    components such as ``/country`` and ``/country/year``).
    """
    root_tag = path.split("/")[1]
    doc_ids = set()
    for node_id in collection.by_path(path)[:50]:
        doc_ids.add(collection.node(node_id).doc_id)
    components = []
    for candidate in collection.paths():
        if len(components) >= limit:
            break
        if not candidate.startswith(f"/{root_tag}"):
            continue
        if candidate == path or "@" in candidate:
            continue
        if candidate.count("/") > 2:
            continue  # shallow components generalize best
        per_doc = {}
        for node_id in collection.by_path(candidate):
            doc_id = collection.node(node_id).doc_id
            if doc_id in doc_ids:
                per_doc[doc_id] = per_doc.get(doc_id, 0) + 1
        if per_doc and set(per_doc) >= doc_ids and all(
            count == 1 for count in per_doc.values()
        ):
            components.append(candidate)
    return components


def discover_key(collection, path, max_components=3):
    """A minimal verified relative key for nodes on ``path``.

    GORDIAN-style search: assemble a candidate component set (document
    -unique absolute paths, then sibling discriminators), try subsets
    in increasing size, verify uniqueness against every node on the
    path, and return the first (smallest) verified
    :class:`RelativeKey` -- or ``None`` when no combination works.
    """
    node_ids = collection.by_path(path)
    if not node_ids:
        return None
    absolute = _document_level_components(collection, path)
    relative = _sibling_components(collection, path)
    # Two-phase search: prefer keys that do not use the node's own
    # value ("."), matching the paper's fact keys; fall back to
    # self-inclusive keys, which is how Figure 3 keys dimensions
    # (e.g. import-country's key is (/country, /country/year, .)).
    for pool in (absolute + relative, ["."] + absolute + relative):
        if not pool:
            continue
        for size in range(1, min(max_components, len(pool)) + 1):
            for combo in itertools.combinations(pool, size):
                key = RelativeKey(list(combo))
                try:
                    unique, _duplicates = key.verify_uniqueness(
                        collection, node_ids
                    )
                except KeyResolutionError:
                    continue
                if unique:
                    return key
    return None


class FactDimensionDiscoverer:
    """Profiles a collection and proposes facts and dimensions.

    Heuristics (tunable):

    * a path is a *fact candidate* when at least ``numeric_threshold``
      of its values parse as numbers and it occurs at least
      ``min_occurrences`` times;
    * a path is a *dimension candidate* when it is categorical (mostly
      non-numeric), repeats values (cardinality ratio at most
      ``dimension_cardinality``), and spans several documents.

    Both kinds only qualify if a key can be discovered for them.
    """

    def __init__(self, collection, min_occurrences=5,
                 numeric_threshold=0.8, dimension_cardinality=0.5,
                 sample_values=5):
        self.collection = collection
        self.min_occurrences = min_occurrences
        self.numeric_threshold = numeric_threshold
        self.dimension_cardinality = dimension_cardinality
        self.sample_values = sample_values

    # -- profiling -----------------------------------------------------------

    def profile_paths(self, paths=None):
        """Value profiles for the given (default: all) paths."""
        if paths is None:
            paths = self.collection.paths()
        profiles = {}
        for path in paths:
            profile = PathProfile(path)
            for node_id in self.collection.by_path(path):
                node = self.collection.node(node_id)
                value = node.value
                if not value:
                    continue
                profile.count += 1
                profile.distinct.add(value)
                profile.document_ids.add(node.doc_id)
                if parse_measure(value) is not None:
                    profile.numeric += 1
                if len(profile.samples) < self.sample_values:
                    profile.samples.append(value)
            if profile.count:
                profiles[path] = profile
        return profiles

    # -- discovery ------------------------------------------------------------

    def discover(self, paths=None, discover_keys=True):
        """Fact and dimension candidates, best first.

        Returns ``(facts, dimensions)`` -- two lists of
        :class:`Candidate`.  With ``discover_keys`` (the default) each
        candidate carries a verified minimal key; candidates for which
        no key can be found are dropped, because SEDA "requires every
        dimension table to have a key in order to have meaningful
        aggregates".
        """
        profiles = self.profile_paths(paths)
        facts = []
        dimensions = []
        for path, profile in profiles.items():
            if profile.count < self.min_occurrences:
                continue
            kind = self._classify(profile)
            if kind is None:
                continue
            key = None
            if discover_keys:
                key = discover_key(self.collection, path)
                if key is None:
                    continue
            score = self._score(kind, profile)
            facts_or_dims = facts if kind == "fact" else dimensions
            facts_or_dims.append(Candidate(kind, path, profile, key, score))
        facts.sort(key=lambda c: -c.score)
        dimensions.sort(key=lambda c: -c.score)
        return facts, dimensions

    def register(self, registry, facts, dimensions):
        """Install discovered candidates into a cube registry."""
        for candidate in facts:
            if not registry.has_fact(candidate.suggested_name()):
                registry.add_fact(
                    candidate.suggested_name(),
                    [(candidate.path, candidate.key)],
                )
        for candidate in dimensions:
            if not registry.has_dimension(candidate.suggested_name()):
                registry.add_dimension(
                    candidate.suggested_name(),
                    [(candidate.path, candidate.key)],
                )
        return registry

    # -- internals ------------------------------------------------------------

    def _classify(self, profile):
        if profile.numeric_ratio >= self.numeric_threshold:
            return "fact"
        if (
            profile.numeric_ratio < 0.5
            and profile.cardinality_ratio <= self.dimension_cardinality
            and len(profile.document_ids) > 1
        ):
            return "dimension"
        return None

    def _score(self, kind, profile):
        """Coverage-weighted confidence in [0, ~1]."""
        coverage = len(profile.document_ids) / max(1, len(
            self.collection.documents
        ))
        if kind == "fact":
            return profile.numeric_ratio * coverage
        return (1.0 - profile.cardinality_ratio) * coverage
