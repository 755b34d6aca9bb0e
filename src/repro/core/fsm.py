"""Deterministic finite automata coordinating SDP units (paper §2.3).

A unit's DFA is the 5-tuple (Q, Σ, C, T, q0, F) of the paper: states track
the progress of the SDP coordination process; transitions are labelled with
**triggers** (event types), **condition guards** (Boolean expressions on
event data and recorded state variables) and **actions** (operations the
unit performs: dispatch events, record data, reconfigure parsers...).

The machine itself is protocol-agnostic; each SDP unit instantiates it with
its own tuples, exactly as the paper's ``Component UPnP-FSM = {
AddTuple(...) }`` specification operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence, Union

from .events import Event, EventType
from .guardlang import Guard, compile_guard

#: An action is either a named action (resolved by the unit's action table)
#: or a direct callable(event, machine).
Action = Union[str, Callable[[Event, "StateMachine"], None]]

#: A trigger set; "*" matches every event type.
Triggers = Union[str, EventType, Sequence[EventType]]

WILDCARD = "*"


class FsmError(Exception):
    """Raised for ill-formed machine definitions or undefined actions."""


@dataclass(frozen=True)
class Transition:
    """One row of the transition relation T: Q x Σ x C -> Q."""

    state: str
    triggers: frozenset[EventType] | str  # frozenset or WILDCARD
    guard: Guard
    next_state: str
    actions: tuple[Action, ...] = ()

    def matches(self, event: Event, variables: Mapping) -> bool:
        if self.triggers != WILDCARD and event.type not in self.triggers:
            return False
        return self.guard.evaluate(event, variables)


@dataclass
class TransitionRecord:
    """One executed transition (kept for tracing / debugging, paper §2.3:
    "a useful feature, not only for debugging purposes, but also for a
    dynamic representation of the run-time interoperability architecture")."""

    from_state: str
    event: Event
    to_state: str


class StateMachineDefinition:
    """The static DFA: states, transitions, accepting states."""

    def __init__(self, name: str, initial_state: str):
        self.name = name
        self.initial_state = initial_state
        self.transitions: list[Transition] = []
        self.accepting_states: set[str] = set()

    def add_tuple(
        self,
        current_state: str,
        triggers: Triggers,
        condition_guard: "str | Guard | None",
        new_state: str,
        actions: Iterable[Action] = (),
    ) -> "StateMachineDefinition":
        """The paper's ``AddTuple(CurrentState, triggers, condition-guards,
        NewState, actions)`` specification operator."""
        if isinstance(triggers, str):
            if triggers != WILDCARD:
                raise FsmError(f"string trigger must be '*', got {triggers!r}")
            trigger_set: frozenset[EventType] | str = WILDCARD
        elif isinstance(triggers, EventType):
            trigger_set = frozenset((triggers,))
        else:
            trigger_set = frozenset(triggers)
            if not trigger_set:
                raise FsmError("empty trigger set")
        self.transitions.append(
            Transition(
                state=current_state,
                triggers=trigger_set,
                guard=compile_guard(condition_guard),
                next_state=new_state,
                actions=tuple(actions),
            )
        )
        return self

    def accept(self, *states: str) -> "StateMachineDefinition":
        self.accepting_states.update(states)
        return self

    @property
    def states(self) -> set[str]:
        found = {self.initial_state} | set(self.accepting_states)
        for transition in self.transitions:
            found.add(transition.state)
            found.add(transition.next_state)
        return found

    def validate(self) -> None:
        """Reject machines whose accepting states are unreachable."""
        unreachable = self.accepting_states - self.states
        if unreachable:  # pragma: no cover - accept() adds them to states
            raise FsmError(f"accepting states not in graph: {unreachable}")


class StateMachine:
    """A running instance of a definition, bound to an action table.

    ``actions`` maps action names to callables ``(event, machine) -> None``.
    State variables (:attr:`variables`) persist across transitions so reply
    composition can use data recorded from earlier events (paper §2.3).
    """

    def __init__(
        self,
        definition: StateMachineDefinition,
        actions: Mapping[str, Callable[[Event, "StateMachine"], None]] | None = None,
        trace: bool = False,
    ):
        definition.validate()
        self.definition = definition
        self.state = definition.initial_state
        self.variables: dict[str, Any] = {}
        self._actions = dict(actions or {})
        self._trace_enabled = trace
        self.trace: list[TransitionRecord] = []
        self.events_ignored = 0

    @property
    def in_accepting_state(self) -> bool:
        return self.state in self.definition.accepting_states

    def bind_action(self, name: str, handler: Callable[[Event, "StateMachine"], None]) -> None:
        self._actions[name] = handler

    def record(self, key: str, value: Any) -> None:
        """Record event data into a state variable."""
        self.variables[key] = value

    def reset(self) -> None:
        self.state = self.definition.initial_state
        self.variables.clear()
        self.trace.clear()

    def feed(self, event: Event) -> bool:
        """Offer one event; returns True when a transition fired.

        Events matching no transition are filtered (paper §2.3: "incoming
        events are filtered"), not errors.
        """
        for transition in self.definition.transitions:
            if transition.state != self.state:
                continue
            if not transition.matches(event, self.variables):
                continue
            previous = self.state
            self.state = transition.next_state
            if self._trace_enabled:
                self.trace.append(TransitionRecord(previous, event, self.state))
            for action in transition.actions:
                self._run_action(action, event)
            return True
        self.events_ignored += 1
        return False

    def feed_all(self, events: Iterable[Event]) -> int:
        """Feed a stream; returns how many transitions fired."""
        return sum(1 for event in events if self.feed(event))

    def _run_action(self, action: Action, event: Event) -> None:
        if callable(action):
            action(event, self)
            return
        handler = self._actions.get(action)
        if handler is None:
            raise FsmError(
                f"machine {self.definition.name!r} has no action {action!r} bound"
            )
        handler(event, self)


__all__ = [
    "StateMachine",
    "StateMachineDefinition",
    "Transition",
    "TransitionRecord",
    "FsmError",
    "WILDCARD",
]
