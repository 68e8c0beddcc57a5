"""Shared pieces of the JSON fuzz tests: every field path of a document,
and small JSON values of every type to put in one's place."""

from hypothesis import strategies as st


def field_paths(node, prefix=()):
    """The path of every field of a JSON document, nested ones included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, prefix + (key,))


def replaced(document, path, value):
    """A copy of ``document`` with the field at ``path`` set to ``value``;
    the empty path replaces the whole document."""
    if not path:
        return value
    copy = dict(document) if isinstance(document, dict) else list(document)
    copy[path[0]] = replaced(document[path[0]], path[1:], value)
    return copy


def field_at(document, path):
    for key in path:
        document = document[key]
    return document


# small JSON values of every type, so that any replacement stays cheap to run
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(-2, 9) | st.text("ab-", max_size=3),
    lambda inner: (st.lists(inner, max_size=2)
                   | st.dictionaries(st.text("ab", max_size=2), inner, max_size=2)),
    max_leaves=3,
)
