"""Net composition operators.

The paper builds the system model "through composition of building
blocks" using operators detailed in Barreto's thesis [2].  The operators
needed by the block library are implemented here:

* :func:`merge_nets` — disjoint union (re-exported from the TPN core);
* :func:`merge_places` — place fusion: identify several places of a net
  into one (the classic composition operator; used e.g. to fuse every
  block's ``p_proc`` into the single processor place);
* :func:`rename` — systematic node renaming (instantiating a generic
  block for a concrete task).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.errors import NetConstructionError
from repro.tpn.net import TimePetriNet, net_union

#: Re-exported disjoint union (see :func:`repro.tpn.net.net_union`).
merge_nets = net_union


def rename(
    net: TimePetriNet,
    mapping: Mapping[str, str] | Callable[[str], str],
    name: str | None = None,
) -> TimePetriNet:
    """Return a copy of ``net`` with nodes renamed.

    ``mapping`` is either an explicit old->new dict (nodes absent from
    it keep their name) or a function applied to every node name.
    Renaming must stay injective; collisions raise.
    """
    if callable(mapping):
        translate = mapping
    else:
        table = dict(mapping)

        def translate(node: str) -> str:
            return table.get(node, node)

    result = TimePetriNet(name or net.name)
    for place in net.places:
        result.add_place(
            translate(place.name),
            marking=place.marking,
            label=place.label,
            role=place.role,
            task=place.task,
        )
    for transition in net.transitions:
        result.add_transition(
            translate(transition.name),
            interval=transition.interval,
            priority=transition.priority,
            code=transition.code,
            label=transition.label,
            role=transition.role,
            task=transition.task,
        )
    for t in net.transition_names:
        for p, w in net.preset(t).items():
            result.add_arc(translate(p), translate(t), w)
        for p, w in net.postset(t).items():
            result.add_arc(translate(t), translate(p), w)
    result.final_marking = {
        translate(p): tokens for p, tokens in net.final_marking.items()
    }
    return result


def merge_places(
    net: TimePetriNet,
    groups: Iterable[Iterable[str]],
    name: str | None = None,
) -> TimePetriNet:
    """Fuse each group of places into its first member.

    The fused place keeps the first member's metadata; its initial
    marking is the *maximum* of the group's markings (resource places
    composed from blocks each carry the same single token — taking the
    max rather than the sum keeps one resource token, which is the
    operator's intent in the thesis).  Arcs of every member are
    redirected to the fused place, accumulating weights when several
    members connect to the same transition.
    """
    translation: dict[str, str] = {}
    kept_marking: dict[str, int] = {}
    for group in groups:
        members = list(group)
        if not members:
            continue
        target = members[0]
        if target not in net.place_names:
            raise NetConstructionError(f"unknown place {target!r}")
        marking = net.place(target).marking
        for member in members[1:]:
            if member not in net.place_names:
                raise NetConstructionError(f"unknown place {member!r}")
            translation[member] = target
            marking = max(marking, net.place(member).marking)
        kept_marking[target] = marking

    result = TimePetriNet(name or net.name)
    for place in net.places:
        if place.name in translation:
            continue
        result.add_place(
            place.name,
            marking=kept_marking.get(place.name, place.marking),
            label=place.label,
            role=place.role,
            task=place.task,
        )
    for transition in net.transitions:
        result.add_transition(
            transition.name,
            interval=transition.interval,
            priority=transition.priority,
            code=transition.code,
            label=transition.label,
            role=transition.role,
            task=transition.task,
        )
    for t in net.transition_names:
        for p, w in net.preset(t).items():
            result.add_arc(translation.get(p, p), t, w)
        for p, w in net.postset(t).items():
            result.add_arc(t, translation.get(p, p), w)
    merged_final: dict[str, int] = {}
    for p, tokens in net.final_marking.items():
        target = translation.get(p, p)
        merged_final[target] = max(merged_final.get(target, 0), tokens)
    result.final_marking = merged_final
    return result

