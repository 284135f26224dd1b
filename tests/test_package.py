"""The package's public names."""

import schlicht


def test_all_is_sorted_unique_and_resolves():
    names = schlicht.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(schlicht, name)]
    assert missing == []
