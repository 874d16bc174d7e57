import tiltrotor


def test_public_names_resolve_once():
    names = tiltrotor.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(tiltrotor, n)]
    assert missing == []
