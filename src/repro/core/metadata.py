"""The extensible meta-data description framework (D3.3 §2.1).

Datasets and operators are described by *trees* of properties.  Only the
first levels (``Constraints``, ``Execution``, ``Optimization``) are
predefined; users attach ad-hoc subtrees underneath.  Abstract descriptions
may leave fields empty or use the ``*`` wildcard; materialized descriptions
must fill every compulsory field.

Trees are stored with **string labels kept lexicographically ordered**, which
is what makes the one-pass ``O(t)`` tree-matching of the planner possible
(D3.3 §2.2.3): two sorted label sequences are merged like a sorted-list
intersection.

The on-disk syntax is the flat ``dotted.key=value`` format the deliverable
uses throughout (e.g. ``Constraints.OpSpecification.Algorithm.name=TF_IDF``).
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Mapping

WILDCARD = "*"

#: Top-level subtrees the framework predefines.  Anything else is ad-hoc.
PREDEFINED_ROOTS = ("Constraints", "Execution", "Optimization")


class MetadataError(ValueError):
    """Malformed meta-data description."""


@lru_cache(maxsize=4096)
def _split(dotted_key: str) -> tuple[str, ...]:
    """The labels of a dotted path (a plan asks for the same few dozen keys)."""
    parts = tuple(p for p in dotted_key.split(".") if p)
    if not parts:
        raise MetadataError("empty key")
    return parts


class MetadataTree:
    """A node of a meta-data tree.

    A node either holds a string ``value`` (leaf) or named children
    (internal node).  Children are kept in a plain dict but iterated in
    sorted label order, preserving the paper's lexicographic invariant.
    """

    __slots__ = ("value", "_children", "_labels")

    def __init__(self, value: str | None = None) -> None:
        self.value = value
        self._children: dict[str, MetadataTree] = {}
        #: sorted child labels, None until asked for and after a child is
        #: added or removed (``set``/``remove`` are the only writers)
        self._labels: tuple[str, ...] | None = None

    # -- construction --------------------------------------------------
    @classmethod
    def from_properties(cls, properties: Mapping[str, object] | Iterable[str]) -> "MetadataTree":
        """Build a tree from ``{dotted.key: value}`` or ``key=value`` lines."""
        tree = cls()
        if isinstance(properties, Mapping):
            items = properties.items()
        else:
            items = (cls._parse_line(line) for line in properties)
            items = [item for item in items if item is not None]
        for key, value in items:
            tree.set(key, value)
        return tree

    @staticmethod
    def _parse_line(line: str) -> tuple[str, str] | None:
        line = line.strip()
        if not line or line.startswith("#"):
            return None
        if "=" not in line:
            raise MetadataError(f"expected 'key=value', got {line!r}")
        key, _, value = line.partition("=")
        return key.strip(), value.strip()

    @classmethod
    def from_file(cls, path: str | Path) -> "MetadataTree":
        """Parse a description file in the deliverable's format."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_properties(handle)

    # -- mutation --------------------------------------------------------
    def set(self, dotted_key: str, value: object) -> None:
        """Set a leaf value at a dotted path, creating intermediate nodes."""
        node = self
        for part in _split(dotted_key):
            child = node._children.get(part)
            if child is None:
                child = node._children[part] = MetadataTree()
                node._labels = None
            node = child
        if node._children:
            raise MetadataError(f"{dotted_key!r} is an internal node, cannot assign a value")
        node.value = str(value)

    def remove(self, dotted_key: str) -> None:
        """Delete the node (leaf or subtree) at the given path."""
        parts = _split(dotted_key)
        node = self
        for part in parts[:-1]:
            child = node._children.get(part)
            if child is None:
                return
            node = child
        if node._children.pop(parts[-1], None) is not None:
            node._labels = None

    # -- access ----------------------------------------------------------
    def node(self, dotted_key: str) -> "MetadataTree | None":
        """Return the node at a dotted path, or None."""
        node = self
        for part in _split(dotted_key):
            node = node._children.get(part)
            if node is None:
                return None
        return node

    def get(self, dotted_key: str, default: str | None = None) -> str | None:
        """Return the leaf value at a dotted path, or ``default``."""
        node = self.node(dotted_key)
        if node is None or node.value is None:
            return default
        return node.value

    def get_float(self, dotted_key: str, default: float | None = None) -> float | None:
        """Leaf value parsed as float (MetadataError if not numeric)."""
        value = self.get(dotted_key)
        if value is None:
            return default
        try:
            return float(value)
        except ValueError as exc:
            raise MetadataError(f"{dotted_key}={value!r} is not numeric") from exc

    def get_int(self, dotted_key: str, default: int | None = None) -> int | None:
        """Leaf value parsed as int (via float, so '1E3' works)."""
        value = self.get_float(dotted_key)
        return default if value is None else int(value)

    def children(self) -> Iterator[tuple[str, "MetadataTree"]]:
        """Iterate children in lexicographic label order."""
        labels = self._labels
        if labels is None:
            labels = self._labels = tuple(sorted(self._children))
        children = self._children
        for label in labels:
            yield label, children[label]

    def leaves(self, prefix: str = "") -> Iterator[tuple[str, str]]:
        """Iterate ``(dotted_path, value)`` for every leaf, sorted."""
        if self.value is not None and not self._children:
            if prefix:
                yield prefix, self.value
            return
        for label, child in self.children():
            path = f"{prefix}.{label}" if prefix else label
            yield from child.leaves(path)

    def to_properties(self) -> dict[str, str]:
        """Flat ``{dotted.key: value}`` view of all leaves."""
        return dict(self.leaves())

    @property
    def is_leaf(self) -> bool:
        """True when the node has no children."""
        return not self._children

    def size(self) -> int:
        """Number of nodes in the tree (the ``t`` of the O(t) match)."""
        return 1 + sum(child.size() for child in self._children.values())

    def copy(self) -> "MetadataTree":
        """Deep copy of the subtree."""
        clone = MetadataTree(self.value)
        if self._children:
            clone._children = {k: v.copy() for k, v in self._children.items()}
            clone._labels = self._labels
        return clone

    # -- matching ----------------------------------------------------------
    def matches(self, other: "MetadataTree") -> bool:
        """One-pass subsumption match: does ``other`` satisfy this pattern?

        ``self`` plays the role of the *abstract* (required) tree: every leaf
        it defines must exist in ``other`` with an equal value, where the
        ``*`` wildcard (on either side) matches anything.  ``other`` may
        carry arbitrarily more fields.  Complexity is O(t) thanks to the
        sorted merge over child labels.
        """
        if self.is_leaf:
            if self.value is None or self.value == WILDCARD:
                return True
            if other.is_leaf:
                return other.value == WILDCARD or other.value == self.value
            return False
        for label, required in self.children():
            provided = other._children.get(label)
            if provided is None:
                return False
            if not required.matches(provided):
                return False
        return True

    def consistent_with(self, other: "MetadataTree") -> bool:
        """Symmetric consistency: all *shared* leaves agree (wildcards pass).

        Used to check whether a dataset can be fed to an operator input as-is
        — fields present on only one side impose no constraint.
        """
        if self.is_leaf or other.is_leaf:
            if self.is_leaf and other.is_leaf:
                if self.value in (None, WILDCARD) or other.value in (None, WILDCARD):
                    return True
                return self.value == other.value
            # leaf vs subtree on the same label: structurally inconsistent
            return self.value in (None, WILDCARD) or other.value in (None, WILDCARD)
        for label, mine in self.children():
            theirs = other._children.get(label)
            if theirs is not None and not mine.consistent_with(theirs):
                return False
        return True

    def merged_with(self, other: "MetadataTree") -> "MetadataTree":
        """Return a copy of ``self`` overlaid with all leaves of ``other``."""
        merged = self.copy()
        for path, value in other.leaves():
            merged.set(path, value)
        return merged

    # -- dunder ------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetadataTree):
            return NotImplemented
        return self.to_properties() == other.to_properties()

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.to_properties().items())))

    def __repr__(self) -> str:
        props = self.to_properties()
        inner = ", ".join(f"{k}={v}" for k, v in list(props.items())[:4])
        suffix = ", ..." if len(props) > 4 else ""
        return f"MetadataTree({inner}{suffix})"
