"""The ez-spec XML DSL (paper Fig. 7).

ezRealtime serialises its metamodel to an XML document rooted at
``rt:ez-spec`` in the ``http://pnmp.sf.net/EZRealtime`` namespace.  The
parser accepts the paper's published snippet verbatim, including its
conventions:

* task fields as child elements: ``processor``, ``name``, ``period``,
  ``power`` (the metamodel's ``energy``), ``schedulingMode`` (``NP`` /
  ``P``), ``computing`` (the metamodel's ``computation``), ``deadline``,
  plus ``release``, ``phase`` and ``code`` for the remaining fields;
* cross references as href-style attributes: ``precedesTasks="#id"``
  (space-separated ``#identifier`` list), likewise ``excludesTasks``
  and ``precedesMsgs``;
* ``<processor>`` children referencing a ``Processor`` element's
  identifier (a bare processor *name* is also accepted);
* ``Message`` elements with ``bus``, ``grantBus``, ``communication``
  children and ``sender``/``precedes`` reference attributes.

:func:`loads`/:func:`dumps` convert between documents and
:class:`EzRTSpec`; round-trips are lossless up to identifier renaming
(identifiers are preserved exactly).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.errors import DSLError
from repro.spec.model import (
    EzRTSpec,
    Message,
    Processor,
    SchedulingType,
    SourceCode,
    Task,
)
from repro.spec.validation import ensure_valid

NAMESPACE = "http://pnmp.sf.net/EZRealtime"


def _local(tag: str) -> str:
    """Strip an XML namespace from a tag name."""
    return tag.rsplit("}", 1)[-1]


def _child_text(element: ET.Element) -> dict[str, str]:
    """Map of child local-name -> stripped text."""
    return {
        _local(child.tag): (child.text or "").strip()
        for child in element
    }


def _parse_int(fields: dict[str, str], key: str, default: int = 0) -> int:
    if key not in fields or fields[key] == "":
        return default
    try:
        return int(fields[key])
    except ValueError:
        raise DSLError(
            f"field {key!r} must be an integer, got {fields[key]!r}"
        ) from None


def _parse_refs(value: str | None) -> list[str]:
    """Split a ``"#id1 #id2"`` reference attribute into identifiers."""
    if not value:
        return []
    refs = []
    for token in value.split():
        refs.append(token[1:] if token.startswith("#") else token)
    return refs


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def loads(document: str, validate: bool = True) -> EzRTSpec:
    """Parse an ez-spec document into a (validated) specification."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise DSLError(f"malformed ez-spec XML: {exc}") from exc
    if _local(root.tag) != "ez-spec":
        raise DSLError(
            f"expected rt:ez-spec root element, got {_local(root.tag)!r}"
        )
    spec = EzRTSpec(
        name=root.get("name", "ez-spec"),
        disp_oveh=root.get("dispOveh", "false").lower()
        in ("true", "1", "yes"),
        identifier=root.get("identifier", ""),
    )

    processors_by_id: dict[str, Processor] = {}
    raw_tasks: list[tuple[Task, dict[str, list[str]]]] = []
    raw_messages: list[tuple[Message, dict[str, str | None]]] = []

    for element in root:
        kind = _local(element.tag)
        if kind == "Processor":
            processor = _parse_processor(element)
            spec.add_processor(processor)
            processors_by_id[processor.identifier] = processor
        elif kind == "Task":
            raw_tasks.append(_parse_task(element))
        elif kind == "Message":
            raw_messages.append(_parse_message(element))
        else:
            raise DSLError(f"unknown ez-spec element {kind!r}")

    # Resolve processor references: identifier first, then bare name.
    for task, _ in raw_tasks:
        if task.processor in processors_by_id:
            task.processor = processors_by_id[task.processor].name
        spec.add_task(task)
    for message, _ in raw_messages:
        spec.add_message(message)

    # Resolve cross references now that every element is registered.
    id_to_name = {t.identifier: t.name for t in spec.tasks}
    id_to_name.update({m.identifier: m.name for m in spec.messages})

    def resolve(ref: str, context: str) -> str:
        if ref in id_to_name:
            return id_to_name[ref]
        known_names = {t.name for t in spec.tasks} | {
            m.name for m in spec.messages
        }
        if ref in known_names:
            return ref
        raise DSLError(f"{context}: unresolved reference {ref!r}")

    for task, refs in raw_tasks:
        task.precedes_tasks = [
            resolve(r, f"task {task.name!r} precedesTasks")
            for r in refs["precedes"]
        ]
        task.excludes_tasks = [
            resolve(r, f"task {task.name!r} excludesTasks")
            for r in refs["excludes"]
        ]
        task.precedes_msgs = [
            resolve(r, f"task {task.name!r} precedesMsgs")
            for r in refs["messages"]
        ]
    for message, refs in raw_messages:
        if refs["sender"]:
            message.sender = resolve(
                refs["sender"], f"message {message.name!r} sender"
            )
        if refs["precedes"]:
            message.precedes = resolve(
                refs["precedes"], f"message {message.name!r} precedes"
            )

    _symmetrise_exclusions(spec)
    _tie_messages_to_senders(spec)
    if validate:
        ensure_valid(spec)
    return spec


def _parse_processor(element: ET.Element) -> Processor:
    fields = _child_text(element)
    name = fields.get("name") or element.get("name")
    identifier = element.get("identifier", "")
    if not name:
        # A Processor may be declared with only an identifier; use it as
        # the visible name so tasks can still reference it.
        name = identifier
    if not name:
        raise DSLError("Processor element lacks both name and identifier")
    return Processor(name=name, identifier=identifier)


def _parse_task(element: ET.Element) -> tuple[Task, dict[str, list[str]]]:
    fields = _child_text(element)
    name = fields.get("name") or element.get("name")
    if not name:
        raise DSLError("Task element lacks a name")
    if "computing" not in fields and "computation" not in fields:
        raise DSLError(f"task {name!r}: missing computing time")
    computation = _parse_int(
        fields, "computing", _parse_int(fields, "computation")
    )
    deadline = _parse_int(fields, "deadline")
    period = _parse_int(fields, "period")
    scheduling = SchedulingType.parse(
        fields.get("schedulingMode", fields.get("sch", "NP")) or "NP"
    )
    code_text = fields.get("code")
    task = Task(
        name=name,
        computation=computation,
        deadline=deadline,
        period=period,
        release=_parse_int(fields, "release"),
        phase=_parse_int(fields, "phase"),
        scheduling=scheduling,
        energy=_parse_int(fields, "power", _parse_int(fields, "energy")),
        processor=fields.get("processor", "proc0") or "proc0",
        code=SourceCode(code_text) if code_text else None,
        identifier=element.get("identifier", ""),
    )
    refs = {
        "precedes": _parse_refs(element.get("precedesTasks")),
        "excludes": _parse_refs(element.get("excludesTasks")),
        "messages": _parse_refs(element.get("precedesMsgs")),
    }
    return task, refs


def _parse_message(
    element: ET.Element,
) -> tuple[Message, dict[str, str | None]]:
    fields = _child_text(element)
    name = fields.get("name") or element.get("name")
    if not name:
        raise DSLError("Message element lacks a name")
    message = Message(
        name=name,
        bus=fields.get("bus", "bus0") or "bus0",
        communication=_parse_int(fields, "communication"),
        grant_bus=_parse_int(fields, "grantBus"),
        identifier=element.get("identifier", ""),
    )
    sender_refs = _parse_refs(element.get("sender"))
    precedes_refs = _parse_refs(element.get("precedes"))
    refs: dict[str, str | None] = {
        "sender": sender_refs[0] if sender_refs else None,
        "precedes": precedes_refs[0] if precedes_refs else None,
    }
    return message, refs


def _symmetrise_exclusions(spec: EzRTSpec) -> None:
    """The DSL may list an exclusion on one side only; mirror it."""
    for task in spec.tasks:
        for other_name in list(task.excludes_tasks):
            other = next(
                (t for t in spec.tasks if t.name == other_name), None
            )
            if other is not None and task.name not in other.excludes_tasks:
                other.excludes_tasks.append(task.name)


def _tie_messages_to_senders(spec: EzRTSpec) -> None:
    """Derive message senders from tasks' ``precedesMsgs`` lists."""
    for task in spec.tasks:
        for msg_name in task.precedes_msgs:
            message = next(
                (m for m in spec.messages if m.name == msg_name), None
            )
            if message is not None and message.sender is None:
                message.sender = task.name


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
def dumps(spec: EzRTSpec, pretty: bool = True) -> str:
    """Serialise a specification to an ez-spec XML document."""
    ET.register_namespace("rt", NAMESPACE)
    root = ET.Element(f"{{{NAMESPACE}}}ez-spec")
    root.set("name", spec.name)
    root.set("identifier", spec.identifier)
    if spec.disp_oveh:
        root.set("dispOveh", "true")

    name_to_id = {t.name: t.identifier for t in spec.tasks}
    name_to_id.update({m.name: m.identifier for m in spec.messages})

    for processor in spec.processors:
        element = ET.SubElement(root, "Processor")
        element.set("identifier", processor.identifier)
        ET.SubElement(element, "name").text = processor.name

    processor_ids = {p.name: p.identifier for p in spec.processors}
    for task in spec.tasks:
        element = ET.SubElement(root, "Task")
        element.set("identifier", task.identifier)
        if task.precedes_tasks:
            element.set(
                "precedesTasks",
                " ".join(f"#{name_to_id[n]}" for n in task.precedes_tasks),
            )
        if task.excludes_tasks:
            element.set(
                "excludesTasks",
                " ".join(f"#{name_to_id[n]}" for n in task.excludes_tasks),
            )
        if task.precedes_msgs:
            element.set(
                "precedesMsgs",
                " ".join(f"#{name_to_id[n]}" for n in task.precedes_msgs),
            )
        ET.SubElement(element, "processor").text = processor_ids.get(
            task.processor, task.processor
        )
        ET.SubElement(element, "name").text = task.name
        ET.SubElement(element, "period").text = str(task.period)
        if task.phase:
            ET.SubElement(element, "phase").text = str(task.phase)
        if task.release:
            ET.SubElement(element, "release").text = str(task.release)
        ET.SubElement(element, "power").text = str(task.energy)
        ET.SubElement(element, "schedulingMode").text = (
            task.scheduling.value
        )
        ET.SubElement(element, "computing").text = str(task.computation)
        ET.SubElement(element, "deadline").text = str(task.deadline)
        if task.code is not None:
            ET.SubElement(element, "code").text = task.code.content

    for message in spec.messages:
        element = ET.SubElement(root, "Message")
        element.set("identifier", message.identifier)
        if message.sender:
            element.set("sender", f"#{name_to_id[message.sender]}")
        if message.precedes:
            element.set("precedes", f"#{name_to_id[message.precedes]}")
        ET.SubElement(element, "name").text = message.name
        ET.SubElement(element, "bus").text = message.bus
        ET.SubElement(element, "grantBus").text = str(message.grant_bus)
        ET.SubElement(element, "communication").text = str(
            message.communication
        )

    raw = ET.tostring(root, encoding="unicode")
    document = '<?xml version="1.0" encoding="UTF-8"?>\n' + raw
    if pretty:
        from xml.dom import minidom

        parsed = minidom.parseString(document)
        document = parsed.toprettyxml(indent="  ")
        # minidom emits blank lines for whitespace-only nodes; drop them
        document = "\n".join(
            line for line in document.splitlines() if line.strip()
        )
    return document


def load(path: str, validate: bool = True) -> EzRTSpec:
    """Read an ez-spec file."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read(), validate=validate)


def save(spec: EzRTSpec, path: str, pretty: bool = True) -> None:
    """Write a specification to an ez-spec file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(spec, pretty=pretty))


#: The exact DSL fragment printed in the paper (Fig. 7), kept as a
#: regression fixture: the parser must accept it unmodified.  The
#: elided second task of the figure is completed with a second Task
#: element so the reference resolves.
PAPER_FIG7_SNIPPET = """<?xml version="1.0" encoding="UTF-8"?>
<rt:ez-spec xmlns:rt="http://pnmp.sf.net/EZRealtime">
<Task precedesTasks="#ez1151891690363" identifier="ez1151891">
<processor>p124365</processor>
<name>T1</name>
<period>9</period>
<power>10</power>
<schedulingMode>NP</schedulingMode>
<computing>1</computing>
<deadline>9</deadline>
</Task>
<Task identifier="ez1151891690363">
<processor>p124365</processor>
<name>T2</name>
<period>9</period>
<power>10</power>
<schedulingMode>NP</schedulingMode>
<computing>2</computing>
<deadline>9</deadline>
</Task>
<Processor identifier="p124365">
<name>mcu0</name>
</Processor>
</rt:ez-spec>
"""
