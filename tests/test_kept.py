"""The kept generating-series tables (``series._kept``): every read equals a
fresh build at its truncation, a shorter read builds nothing, the bound
evicts the oldest key, and one registry run keeps one table per key."""

import random
import sys
import threading
import time
from fractions import Fraction as F

import pytest

from umbralkit import families, identities, series
from umbralkit.identities import default_grid, run_registry
from umbralkit.series import Series, _kept

# every kept table, with keys (the arguments before T) and the largest T read
TABLES = {
    "_bern_base": (families._bern_base, [(1,), (-2,), (0,), (3,)], 24),
    "_narumi_base": (families._narumi_base, [(-1,), (2,), (0,), (-3,)], 24),
    "_frobenius_g": (families._frobenius_g,
                     [(a, lam, rate) for a in (-2, 1, 3) for lam in (None, F(-1), F(1, 2))
                      for rate in (False, True)], 14),
    "_surjections": (families._surjections, [()], 40),
    "_falling_rows": (series._falling_rows, [()], 40),
    "_b2_power": (identities._b2_power, [(F(1), 1), (F(-1, 2), 3), (F(1, 3), 2)], 16),
}
KEPT = [kept for kept, _, _ in TABLES.values()]


@pytest.fixture(autouse=True)
def empty_tables():
    for kept in KEPT:
        kept.cache_clear()
    yield
    for kept in KEPT:
        kept.cache_clear()


def _truncs(seed, top):
    """A seeded mix of truncations: ascending, descending, repeated, and 1."""
    mixed = [random.Random(seed).randint(1, top) for _ in range(6)]
    return sorted(mixed) + sorted(mixed, reverse=True) + mixed + mixed + [1, top, 1]


def _same(got, want, T):
    """Equal by type, truncation and value, coefficient types included."""
    if isinstance(want, Series):
        return (type(got) is Series and got.trunc == want.trunc == T and got == want
                and list(map(type, got.coeffs)) == list(map(type, want.coeffs)))
    return type(got) is type(want) is tuple and len(got) == len(want) == T and got == want


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", list(TABLES))
def test_every_read_is_the_fresh_build(name, seed):
    kept, keys, top = TABLES[name]
    for key in keys:
        for T in _truncs(seed, top):
            assert _same(kept(*key, T), kept.__wrapped__(*key, T), T), (key, T)
    info = kept.cache_info()
    assert info.currsize == info.misses == len(keys)


@pytest.mark.parametrize("name", list(TABLES))
def test_a_shorter_read_adds_no_miss(name):
    kept, keys, top = TABLES[name]
    key = keys[0]
    longest = kept(*key, top)
    before = kept.cache_info()
    for T in range(top, 0, -1):
        assert _same(kept(*key, T), kept.__wrapped__(*key, T), T), T
    after = kept.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize) == (1, 1)
    assert after.hits == before.hits + top
    # read at the kept truncation, the kept table is returned as it is
    assert kept(*key, top) is longest


def test_a_kept_table_is_built_once_per_lengthening():
    builds = []

    @_kept
    def rows(k, T):
        builds.append((k, T))
        return tuple(range(k, k + T))

    for T in (3, 1, 3, 5, 2, 5, 4):
        assert rows(7, T) == tuple(range(7, 7 + T))
    assert builds == [(7, 3), (7, 5)]


def test_threads_read_whole_tables():
    # more threads than cores read one key at mixed T, the table emptied
    # now and then, with the switch interval shortened: each read is the
    # first T rows of one whole table, never a shorter table another
    # thread kept in between
    @_kept
    def rows(T):
        time.sleep(1e-4)  # lets builds of several threads overlap
        return tuple(sum(range(m)) for m in range(T))

    want, errors = rows.__wrapped__(64), []

    def reader(seed):
        rng = random.Random(seed)
        try:
            for i in range(400):
                T = rng.randint(1, 64)
                if rows(T) != want[:T]:
                    errors.append((seed, T))
                if i % 10 == 0:
                    rows.cache_clear()
        except Exception as exc:  # a thread's exception is not raised in the test
            errors.append((seed, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_the_bound_evicts_the_oldest_key():
    kept = families._bern_base
    assert kept.cache_info().maxsize == 256
    kept(0, 6)  # the oldest key, kept at T = 6
    for a in range(1, 257):
        kept(a, 2)
    info = kept.cache_info()
    assert (info.misses, info.currsize) == (257, 256)
    kept(1, 2)  # the second oldest is still kept
    assert kept.cache_info().misses == 257
    # the oldest is gone, its longer table with it: read again, it is built
    # again at the truncation asked for
    assert _same(kept(0, 3), kept.__wrapped__(0, 3), 3)
    info = kept.cache_info()
    assert (info.misses, info.currsize) == (258, 256)
    assert kept(0, 3) is kept(0, 3)


def test_one_registry_run_keeps_one_table_per_key(monkeypatch):
    # every key asked for is recorded through each module attribute that
    # names a kept builder; after run_registry(default_grid(), 20) each
    # table holds exactly the keys asked for, none evicted
    asked = {name: set() for name in TABLES}
    for mod in [m for name, m in sys.modules.items() if name.startswith("umbralkit.")]:
        for attr, value in list(vars(mod).items()):
            if attr in TABLES and value is TABLES[attr][0]:
                def record(*args, _kept_fn=value, _keys=asked[attr]):
                    _keys.add(args[:-1])
                    return _kept_fn(*args)
                monkeypatch.setattr(mod, attr, record)
    assert all(report.ok for report in run_registry(default_grid(), 20))
    sizes = [kept.cache_info().currsize for kept in KEPT]
    assert sizes == [len(asked[name]) for name in TABLES]
    assert sizes == [59, 40, 12, 1, 1, 60]
    assert all(kept.cache_info().maxsize == 256 for kept in KEPT)
