import types

import tiltrotor


def test_public_names_resolve_once():
    names = tiltrotor.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(tiltrotor, n)]
    assert missing == []
    # and the other way: every public name the package binds, submodules
    # aside, is exported, so an import left behind by a retired export shows
    bound = [n for n, v in vars(tiltrotor).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert sorted(set(bound) - set(names)) == []
