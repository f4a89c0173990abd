"""``import tightport`` gives exactly the names its modules list in ``__all__``."""

import inspect

import tightport
from tightport import bases, common, designs, errors, schemes, serialize, tensor

MODULES = (common, errors, tensor, designs, bases, schemes, serialize)


def test_public_names_are_the_modules_all():
    public = {
        name for name, value in vars(tightport).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed))
    assert public == set(listed)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(tightport, name) is getattr(module, name)
