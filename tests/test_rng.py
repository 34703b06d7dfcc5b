import numpy as np

from gentac.rng import Rng


def test_same_seed_same_stream():
    a = Rng(3, ("x",)).normal((8,))
    b = Rng(3, ("x",)).normal((8,))
    assert a.tobytes() == b.tobytes()


def test_different_paths_differ():
    a = Rng(3, ("x",)).normal((8,))
    b = Rng(3, ("y",)).normal((8,))
    assert not np.array_equal(a, b)


def test_children_are_order_insensitive():
    root = Rng(5)
    first = root.child("a").normal((4,))
    # consuming from another child must not disturb "a"
    root.child("b").normal((100,))
    again = Rng(5).child("a").normal((4,))
    assert first.tobytes() == again.tobytes()


def test_nested_names_and_indices():
    a = Rng(1).child("sample", 3, "window", 2).uniform(shape=(5,))
    b = Rng(1).child("sample", 3).child("window", 2).uniform(shape=(5,))
    assert a.tobytes() == b.tobytes()


def test_describe_records_path():
    d = Rng(9).child("sample", 0).describe()
    assert d == {"seed": 9, "path": ["sample", "0"]}


def test_siblings_look_independent():
    draws = np.array([Rng(0).child("k", i).normal(()) for i in range(2000)])
    assert abs(draws.mean()) < 0.08
    assert abs(draws.std() - 1.0) < 0.08


def test_a_stream_that_only_names_children_builds_no_generator():
    root = Rng(4, ("train",))
    epoch = root.child("epoch", 0)
    epoch.child("step", 3).normal((2,))
    assert root._gen is None and epoch._gen is None


def test_lazily_built_draws_equal_the_pinned_draws():
    # draws of Rng(3, ("x", 1)) as the stream gave them when it built its
    # generator on construction
    r = Rng(3, ("x", 1))
    assert [float(v).hex() for v in r.normal((3,))] == [
        "0x1.d1ca9a0844ca4p-2", "-0x1.c557a6514a7dep+0", "0x1.050a11a8ccbc6p-4"]
    assert [float(v).hex() for v in r.uniform(-2, 5, (2,))] == [
        "0x1.315fe8f907d49p+2", "0x1.dbdf2359a17b0p-2"]
    assert r.integers(0, 100, (4,)).tolist() == [18, 76, 65, 30]
    assert r.permutation(6).tolist() == [3, 1, 4, 5, 0, 2]
