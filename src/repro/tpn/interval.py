"""Static timing intervals for time Petri net transitions.

A time Petri net (Merlin/Faber, paper Section 3.1) attaches to every
transition ``t`` a static firing interval ``I(t) = [EFT(t), LFT(t)]``:
once ``t`` has been continuously enabled for ``EFT(t)`` time units it may
fire, and it must fire no later than ``LFT(t)`` units after enabling
(strong semantics) unless it is disabled first.

The reproduction uses the paper's discrete-time model: bounds are
non-negative integers, with ``INF`` (``math.inf``) allowed as an upper
bound for transitions that are never forced to fire.
"""

from __future__ import annotations

import math
import re

from repro._record import FrozenRecord
from repro.errors import NetConstructionError

#: Unbounded latest-firing-time marker.  Stored as ``math.inf`` so that
#: comparisons against integer clocks work without special cases.
INF = math.inf

#: Largest static interval bound the packed DBM engine
#: (:mod:`repro.tpn.dbm`) accepts; it lives here, in a module every
#: stage loads, so lint rule ``EZT204`` reads it without loading the
#: dense engine.  With it every finite entry of a canonical class lies
#: in ``[-MAX_BOUND, MAX_BOUND]``, so the bounds are stored as
#: ``int32`` (the C core adds them in ``int64``).  The argument, on a class
#: ``D`` over firing delays ``θ₁..θₖ`` (``θ₀ = 0``, ``D[i][j]`` the
#: least upper bound of ``θᵢ − θⱼ``), by induction over the firing
#: rule from the root, the Floyd–Warshall closure of the static box
#: ``eftᵢ ≤ θᵢ ≤ lftᵢ``:
#:
#: 1. **Delays are non-negative**, ``D[0][j] ≤ 0``: a newly enabled
#:    variable starts at ``−eft ≤ 0``, and a persistent one,
#:    ``θ'ᵤ = θᵤ − θₜ``, is bounded by the firing condition
#:    ``θₜ ≤ θᵤ``.
#: 2. **Every finite upper bound starts at an lft and only
#:    tightens**: ``D[i][0] ≤ lftᵢ ≤ MAX_BOUND``, since
#:    ``θ'ᵤ ≤ θᵤ`` by (1).  A variable with an unbounded LFT keeps an
#:    all-:data:`~repro.tpn.dbm.DINF` row off the diagonal (the repair routes it
#:    through its own unbounded ``D[u][t]``).
#: 3. **Each lower bound is at most MAX_BOUND**, ``D[0][j] ≥
#:    −MAX_BOUND``: a new variable's is its ``eft``; a persistent
#:    one's is ``−min_v D[v][u]`` over the enabled ``v``, and
#:    ``D[v][u] ≥ D[0][u] − D[0][v] ≥ D[0][u]`` by closure and (1).
#:
#: So ``D[i][j] ≥ D[0][j] − D[0][i] ≥ −min θⱼ ≥ −MAX_BOUND``, and a
#: finite ``D[i][j] ≤ D[i][0] + D[0][j] ≤ D[i][0] ≤ MAX_BOUND``; a
#: sum of two entries stays within ``±2³¹`` in ``int64``, clear of the
#: sentinel.  ``tests/test_dbm.py`` asserts the bound on every class
#: of its walks, including an edge net with ``eft = lft = MAX_BOUND``
#: beside an unbounded LFT.  The engine raises loudly at construction
#: when a net exceeds the cap (lint rule ``EZT204`` reports the same
#: condition pre-search, at spec level).
MAX_BOUND = 1 << 30

_INTERVAL_RE = re.compile(
    r"^\s*[\[\(]\s*(\d+)\s*,\s*(\d+|inf|oo|w|∞)\s*[\]\)]\s*$",
    re.IGNORECASE,
)


class TimeInterval(FrozenRecord):
    """A closed static firing interval ``[eft, lft]`` in discrete time.

    Intervals order as ``(eft, lft)`` tuples.

    Attributes:
        eft: earliest firing time (non-negative integer).
        lft: latest firing time (integer ``>= eft``) or :data:`INF`.
    """

    __slots__ = ("eft", "lft")
    eft: int
    lft: float  # int in practice; float only to admit INF

    def __init__(self, eft: int, lft: float) -> None:
        if not isinstance(eft, int) or isinstance(eft, bool):
            raise NetConstructionError(f"EFT must be an integer, got {eft!r}")
        if eft < 0:
            raise NetConstructionError(f"EFT must be >= 0, got {eft}")
        if lft != INF:
            if not isinstance(lft, int) or isinstance(lft, bool):
                raise NetConstructionError(
                    f"LFT must be an integer or INF, got {lft!r}"
                )
            if lft < eft:
                raise NetConstructionError(
                    f"interval is inverted: EFT={eft} > LFT={lft}"
                )
        object.__setattr__(self, "eft", eft)
        object.__setattr__(self, "lft", lft)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeInterval):
            return NotImplemented
        return self.eft == other.eft and self.lft == other.lft

    def __hash__(self) -> int:
        return hash((self.eft, self.lft))

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, TimeInterval):
            return NotImplemented
        return (self.eft, self.lft) < (other.eft, other.lft)

    def __le__(self, other: object) -> bool:
        if not isinstance(other, TimeInterval):
            return NotImplemented
        return (self.eft, self.lft) <= (other.eft, other.lft)

    def __gt__(self, other: object) -> bool:
        if not isinstance(other, TimeInterval):
            return NotImplemented
        return (self.eft, self.lft) > (other.eft, other.lft)

    def __ge__(self, other: object) -> bool:
        if not isinstance(other, TimeInterval):
            return NotImplemented
        return (self.eft, self.lft) >= (other.eft, other.lft)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def point(cls, value: int) -> "TimeInterval":
        """The punctual interval ``[value, value]``."""
        return cls(value, value)

    @classmethod
    def zero(cls) -> "TimeInterval":
        """The immediate interval ``[0, 0]`` used by structural transitions."""
        return cls(0, 0)

    @classmethod
    def unbounded(cls, eft: int = 0) -> "TimeInterval":
        """The interval ``[eft, INF]`` (never forced to fire)."""
        return cls(eft, INF)

    @classmethod
    def parse(cls, text: str) -> "TimeInterval":
        """Parse ``"[a, b]"`` notation; ``b`` may be ``inf``/``oo``/``w``.

        >>> TimeInterval.parse("[3, 7]")
        TimeInterval(eft=3, lft=7)
        >>> TimeInterval.parse("[0, inf]").is_unbounded
        True
        """
        match = _INTERVAL_RE.match(text)
        if match is None:
            raise NetConstructionError(f"cannot parse interval {text!r}")
        eft = int(match.group(1))
        raw_lft = match.group(2).lower()
        lft: float
        if raw_lft in {"inf", "oo", "w", "∞"}:
            lft = INF
        else:
            lft = int(raw_lft)
        return cls(eft, lft)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_punctual(self) -> bool:
        """True for ``[a, a]`` intervals (a single admissible firing time)."""
        return self.lft == self.eft

    @property
    def is_immediate(self) -> bool:
        """True for the ``[0, 0]`` interval."""
        return self.eft == 0 and self.lft == 0

    @property
    def is_unbounded(self) -> bool:
        """True when the latest firing time is infinite."""
        return self.lft == INF

    @property
    def width(self) -> float:
        """``lft - eft`` (``INF`` for unbounded intervals)."""
        return self.lft - self.eft

    def contains(self, value: int) -> bool:
        """Whether ``value`` lies inside the closed interval."""
        return self.eft <= value <= self.lft

    def intersect(self, other: "TimeInterval") -> "TimeInterval | None":
        """Intersection with ``other``, or ``None`` when disjoint."""
        eft = max(self.eft, other.eft)
        lft = min(self.lft, other.lft)
        if eft > lft:
            return None
        return TimeInterval(eft, int(lft) if lft != INF else INF)

    def shift(self, delta: int) -> "TimeInterval":
        """Translate both bounds by ``delta`` (clamping EFT at zero)."""
        eft = max(0, self.eft + delta)
        lft = self.lft if self.lft == INF else max(eft, self.lft + delta)
        return TimeInterval(eft, lft)

    def iter_values(self) -> range:
        """All admissible integer firing times (bounded intervals only)."""
        if self.is_unbounded:
            raise NetConstructionError(
                "cannot enumerate an unbounded interval"
            )
        return range(self.eft, int(self.lft) + 1)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        upper = "inf" if self.is_unbounded else str(int(self.lft))
        return f"[{self.eft}, {upper}]"
