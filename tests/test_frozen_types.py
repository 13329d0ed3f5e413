"""Every public dataclass is frozen, so its checks hold for its lifetime."""

import dataclasses

import mmwcodebook


def test_public_dataclasses_are_frozen():
    public = [getattr(mmwcodebook, name) for name in mmwcodebook.__all__]
    classes = {obj.__name__: obj for obj in public
               if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert {"HierarchicalCodebook", "CodebookLayer", "SearchResult",
            "LinkBudget"} <= set(classes)
    thawed = [name for name, cls in sorted(classes.items())
              if not cls.__dataclass_params__.frozen]
    assert thawed == []
