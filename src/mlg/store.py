"""Heap of stateful objects: allocation, field reads, atomic multi-field
updates. A stored object is a value: an update replaces it with a new one,
so clones of a store share the objects they have not written."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .diagnostics import MlgError
from . import syntax as S
from .evaluate import ChanRef, Closure, ObjRef


@dataclass(frozen=True)
class StoredObject:
    id: int
    signature: S.ObjType | None  # None only for unchecked programs
    fields: dict[str, object]  # label -> Value; never mutated
    version: int = 0

    def render(self) -> str:
        inner = ",".join(
            f"{lab}={render_value(val)}"
            for lab, val in sorted(self.fields.items())
        )
        return f"obj#{self.id}{{{inner}}}@v{self.version}"


def render_value(v) -> str:
    if isinstance(v, int):
        return str(v)
    if isinstance(v, ObjRef):
        return f"obj#{v.id}"
    if isinstance(v, ChanRef):
        return f"chan#{v.id}"
    if isinstance(v, Closure):
        return f"<fun({v.param} : {v.param_type})>"
    return repr(v)


class ObjectStore:
    """Object identifiers are monotonically allocated and never reused."""

    def __init__(self):
        self.objects: dict[int, StoredObject] = {}
        self.next_id = 0
        self.write_count = 0  # allocations + updates, for purity assertions

    def alloc(self, signature: S.ObjType | None,
              initial: dict[str, object]) -> ObjRef:
        if signature is not None:
            if set(initial) != set(signature.labels()):
                raise MlgError(
                    "allocation fields do not match object signature"
                )
        obj = StoredObject(self.next_id, signature, dict(initial))
        self.objects[obj.id] = obj
        self.next_id += 1
        self.write_count += 1
        return ObjRef(obj.id)

    def _lookup(self, ref) -> StoredObject:
        obj = self.objects.get(ref.id)
        if obj is None:
            raise MlgError(f"dangling object reference #{ref.id}")
        return obj

    def get(self, ref, label: str):
        obj = self._lookup(ref)
        if label not in obj.fields:
            raise MlgError(
                f"object #{ref.id} has no field '{label}'"
            )
        return obj.fields[label]

    def update(self, ref, writes: list[tuple[str, object]]) -> None:
        """Apply all writes as one transaction and bump the version once."""
        obj = self._lookup(ref)
        labels = [lab for lab, _ in writes]
        if len(set(labels)) != len(labels):
            raise MlgError("duplicate labels in one update")
        for lab in labels:
            if lab not in obj.fields:
                raise MlgError(
                    f"object #{ref.id} has no field '{lab}'"
                )
        self.objects[obj.id] = replace(
            obj, fields={**obj.fields, **dict(writes)}, version=obj.version + 1
        )
        self.write_count += 1

    def snapshot(self) -> tuple[StoredObject, ...]:
        """The objects in id order."""
        return tuple([self.objects[oid] for oid in sorted(self.objects)])

    def clone(self) -> "ObjectStore":
        other = ObjectStore()
        other.next_id = self.next_id
        other.write_count = self.write_count
        other.objects = dict(self.objects)
        return other
