"""Suite-wide pytest hooks."""


def pytest_collection_modifyitems(items):
    """Run the acceptance gate after the rest of the suite, so the tests that
    take seconds report before the ones that train models for minutes."""
    items.sort(key=lambda item: item.get_closest_marker("acceptance") is not None)
