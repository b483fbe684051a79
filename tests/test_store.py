import pytest

from mlg import syntax as S
from mlg.diagnostics import MlgError
from mlg.evaluate import ObjRef
from mlg.store import ObjectStore

SIG = S.ObjType((
    (S.Name("size"), S.NAT),
    (S.Name("creation"), S.NAT),
    (S.Name("permissions"), S.NAT),
))


def fresh_file(store):
    return store.alloc(SIG, {
        "size": 0, "creation": 100, "permissions": 7,
    })


def test_alloc_returns_distinct_refs():
    store = ObjectStore()
    a = fresh_file(store)
    b = fresh_file(store)
    assert isinstance(a, ObjRef) and isinstance(b, ObjRef)
    assert a.id != b.id


def test_alloc_starts_at_version_zero():
    store = ObjectStore()
    ref = fresh_file(store)
    assert store.objects[ref.id].version == 0


def test_get_reads_fields():
    store = ObjectStore()
    ref = fresh_file(store)
    assert store.get(ref, "size") == 0
    assert store.get(ref, "permissions") == 7


def test_get_unknown_field_faults():
    store = ObjectStore()
    ref = fresh_file(store)
    with pytest.raises(MlgError):
        store.get(ref, "owner")


def test_dangling_reference_faults():
    store = ObjectStore()
    with pytest.raises(MlgError):
        store.get(ObjRef(99), "size")


def test_alloc_must_match_signature():
    store = ObjectStore()
    with pytest.raises(MlgError):
        store.alloc(SIG, {"size": 0})


def test_update_is_atomic_single_version_bump():
    store = ObjectStore()
    ref = fresh_file(store)
    store.update(ref, [("size", 10), ("permissions", 5)])
    obj = store.objects[ref.id]
    assert obj.version == 1
    assert obj.fields["size"] == 10
    assert obj.fields["permissions"] == 5


def test_update_frame_untouched_fields_preserved():
    store = ObjectStore()
    ref = fresh_file(store)
    store.update(ref, [("size", 10)])
    assert store.get(ref, "creation") == 100
    assert store.get(ref, "permissions") == 7


def test_update_preserves_identity():
    store = ObjectStore()
    ref = fresh_file(store)
    before = ref.id
    store.update(ref, [("size", 1)])
    assert store.objects[before].fields["size"] == 1
    assert list(store.objects) == [before]


def test_update_unknown_field_rejected_before_any_write():
    store = ObjectStore()
    ref = fresh_file(store)
    with pytest.raises(MlgError):
        store.update(ref, [("size", 3), ("owner", 1)])
    # the transaction failed as a whole: no partial write, no version bump
    assert store.get(ref, "size") == 0
    assert store.objects[ref.id].version == 0


def test_update_duplicate_label_rejected():
    store = ObjectStore()
    ref = fresh_file(store)
    with pytest.raises(MlgError):
        store.update(ref, [("size", 1), ("size", 2)])


def test_version_counts_updates():
    store = ObjectStore()
    ref = fresh_file(store)
    for k in range(1, 4):
        store.update(ref, [("size", k)])
    assert store.objects[ref.id].version == 3


def test_write_count_tracks_allocations_and_updates():
    store = ObjectStore()
    ref = fresh_file(store)
    assert store.write_count == 1
    store.update(ref, [("size", 2)])
    assert store.write_count == 2
    store.get(ref, "size")
    assert store.write_count == 2


def test_snapshot_is_stable_and_value_sensitive():
    store = ObjectStore()
    ref = fresh_file(store)
    snap1 = store.snapshot()
    assert snap1 == store.snapshot()
    store.update(ref, [("size", 1)])
    assert store.snapshot() != snap1


def test_clone_is_independent():
    store = ObjectStore()
    ref = fresh_file(store)
    copy = store.clone()
    store.update(ref, [("size", 9)])
    assert copy.get(ref, "size") == 0
    assert copy.snapshot() != store.snapshot()


def test_clone_shares_objects_until_one_is_written():
    store = ObjectStore()
    ref = fresh_file(store)
    other = fresh_file(store)
    copy = store.clone()
    before = store.objects[ref.id]
    copy.update(ref, [("size", 9)])
    assert store.objects[ref.id] is before
    assert before.fields["size"] == 0 and before.version == 0
    assert copy.objects[other.id] is store.objects[other.id]


def test_render_shape():
    store = ObjectStore()
    ref = fresh_file(store)
    text = store.objects[ref.id].render()
    assert text == "obj#0{creation=100,permissions=7,size=0}@v0"
