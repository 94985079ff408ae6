"""Action-list constructors only the tests use."""

from __future__ import annotations

from typing import Sequence

from repro.openflow.actions import Action, ActionList, Multicast, SetField
from repro.openflow.fields import FieldName


def multicast(ports: Sequence[int], **rewrites: int) -> ActionList:
    """Multicast to ``ports`` with shared rewrites."""
    actions: list[Action] = [
        SetField(FieldName(name), value) for name, value in rewrites.items()
    ]
    actions.append(Multicast(tuple(ports)))
    return ActionList(actions)
