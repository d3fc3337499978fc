"""One thread-safe counter type for every layer (DESIGN.md §14).

Each ``*Stats`` class is a :class:`Counters` subclass that declares its
field names and its domain verbs; the lock, ``reset`` and ``snapshot``
exist only here.
"""

from __future__ import annotations

import threading
from typing import Callable, ClassVar, Mapping, Optional

__all__ = ["Counters", "verb"]


class verb:
    """A record call declared in a :class:`Counters` subclass body.

    *params* become its arguments (positional or keyword, default 0)
    and *constants* are fixed deltas; both name sums or the gauge, and
    the maxima and the high-water mark follow them.  Compiled into a
    method when the class is created.
    """

    def __init__(self, *params: str, **constants: float):
        self.params, self.constants = params, constants


def _compile(cls: type[Counters], spec: verb) -> Callable:
    """Generate ``method(self, [_label,] *params)`` for one verb.

    Verbs run once per block transfer, and a loop over a deltas dict
    costs ~2x the straight-line ``+=`` sequence of a hand-written
    class (0.6 µs against 0.3 µs for four fields).  So the sequence is
    generated, the way ``dataclasses`` writes ``__init__``, once per
    class at import.
    """
    undeclared = {*spec.params, *spec.constants} - {*cls.SUMS, cls.GAUGE}
    if undeclared:
        raise KeyError(f"{cls.__name__}: undeclared counter fields {sorted(undeclared)}")
    deltas = {name: name for name in spec.params}
    deltas.update((name, repr(value)) for name, value in spec.constants.items())
    body = []
    for field, delta in deltas.items():
        body.append(f"self.{field} += {delta}")
        if field == cls.GAUGE and spec.constants.get(field, 0) >= 0:
            body.append(f"if self.{field} > self.{field}_hwm: self.{field}_hwm = self.{field}")
    for peak, field in cls.MAXIMA.items():
        if field in deltas:
            body.append(f"if {deltas[field]} > self.{peak}: self.{peak} = {deltas[field]}")
    if cls.LABELLED:
        body.append("_child = self._children.get(_label)")
        body.append("if _child is None:")
        body.append("    _child = self._children[_label] = dict.fromkeys(self.SUMS, 0)")
        body.extend(f"_child[{field!r}] += {delta}" for field, delta in deltas.items())
    label = ["_label"] if cls.LABELLED else []
    args = ["self", *label, *(f"{name}=0" for name in spec.params)]
    lines = [f"def method({', '.join(args)}):", "    with self._lock:"]
    namespace: dict = {}
    exec("\n".join(lines + [f"        {line}" for line in body]), namespace)
    return namespace["method"]


class Counters:
    """Named counters behind one lock (one per instance, no registry).

    A subclass declares its fields, which then read as attributes, and
    its :class:`verb`\\ s; naming a field it did not declare raises.
    """

    #: Fields that add up the deltas recorded against them.
    SUMS: ClassVar[tuple[str, ...]] = ()
    #: ``{field: summed_field}``: *field* keeps the largest single delta
    #: recorded against *summed_field*.
    MAXIMA: ClassVar[Mapping[str, str]] = {}
    #: The one field that also goes down; ``<gauge>_hwm`` keeps its
    #: high-water mark.
    GAUGE: ClassVar[Optional[str]] = None
    #: Summed fields :meth:`reset` leaves alone.
    KEEP: ClassVar[tuple[str, ...]] = ()
    #: Prepended to every :meth:`snapshot` key.
    PREFIX: ClassVar[str] = ""
    #: Every verb takes a leading label and also counts into that
    #: label's child, so the children sum to the totals.
    LABELLED: ClassVar[bool] = False

    #: The verb over all of :attr:`SUMS`.
    record: Callable

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        hwm = (cls.GAUGE, f"{cls.GAUGE}_hwm") if cls.GAUGE else ()
        cls._fields = (*cls.SUMS, *cls.MAXIMA, *hwm)
        cls.record = _compile(cls, verb(*cls.SUMS))
        for name, spec in list(vars(cls).items()):
            if isinstance(spec, verb):
                setattr(cls, name, _compile(cls, spec))

    def __init__(self):
        self._lock = threading.Lock()
        self._children: dict[str, dict[str, int]] = {}
        for name in self._fields:
            setattr(self, name, 0)

    def by_label(self) -> dict[str, dict[str, int]]:
        """Per-label breakdown (label -> field -> sum), sorted by label."""
        with self._lock:
            return {label: dict(child) for label, child in sorted(self._children.items())}

    def snapshot(self) -> dict[str, float]:
        """Point-in-time copy of every field."""
        with self._lock:
            return {self.PREFIX + name: getattr(self, name) for name in self._fields}

    def reset(self) -> None:
        """Start a new measuring phase: zero everything but :attr:`KEEP`.

        The gauge counts what is live right now, so it stays, and its
        high-water mark restarts from it: zeroing it under running
        tasks drove it negative as they finished and under-reported
        the next phase's mark.
        """
        with self._lock:
            for name in self._fields:
                if name not in self.KEEP and name != self.GAUGE:
                    setattr(self, name, 0)
            if self.GAUGE:
                setattr(self, f"{self.GAUGE}_hwm", getattr(self, self.GAUGE))
            self._children.clear()
