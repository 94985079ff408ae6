"""A property's example count under the loaded Hypothesis profile."""

from hypothesis import settings


def examples(n: int) -> int:
    """``n`` under the default profile, scaled as the loaded profile
    scales ``max_examples`` (``ci``: 5n; see ``conftest.py``).  An
    explicit ``settings(max_examples=...)`` overrides a profile's, so a
    test that should grow with the profile names its count through
    this."""
    default = settings.get_profile("default").max_examples
    return n * settings.default.max_examples // default
