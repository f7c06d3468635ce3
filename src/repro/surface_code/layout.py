"""Rotated surface-code geometry.

Coordinate convention (matching the figures of the paper up to rotation):

* Data qubits live at odd-odd integer coordinates ``(x, y)`` with
  ``1 <= x, y <= 2l - 1`` for a patch of width ``l`` (so ``l x l`` data
  qubits).
* Candidate measurement (ancilla / syndrome) qubits live at even-even
  coordinates ``(x, y)`` with ``0 <= x, y <= 2l``; a candidate touches the
  data qubits at its four diagonal neighbours.
* The plaquette colour of a candidate at ``(x, y)`` is ``X`` when
  ``((x + y) // 2) % 2 == 0`` and ``Z`` otherwise.  Diagonally adjacent
  plaquettes share one data qubit and have equal colour; edge-adjacent
  plaquettes share two data qubits and have opposite colour, so all
  stabilizers commute.
* All interior candidates are active.  On the ``y = 0`` and ``y = 2l``
  boundaries only X-coloured candidates are active (weight-2 checks); on the
  ``x = 0`` and ``x = 2l`` boundaries only Z-coloured candidates are active.
  Corners are never active.  This yields the standard ``l**2 - 1`` checks.
* The logical X operator is a vertical column of X's (terminating on the
  ``y`` boundaries); the logical Z operator is a horizontal row of Z's
  (terminating on the ``x`` boundaries).

The same module also provides :class:`StabilityLayout`, a patch whose four
boundaries all carry Z-type checks, used for the stability experiment of
Sec. 6 (cutoff-fidelity study): on that patch the product of all Z checks is
the identity, which is the observable the stability experiment tracks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Tuple

__all__ = [
    "Coord",
    "Check",
    "RotatedSurfaceCodeLayout",
    "StabilityLayout",
    "plaquette_kind",
]

Coord = Tuple[int, int]


def plaquette_kind(position: Coord) -> str:
    """Colour ('X' or 'Z') of the plaquette candidate at an even-even coordinate."""
    x, y = position
    if x % 2 or y % 2:
        raise ValueError(f"{position} is not a plaquette (even-even) coordinate")
    return "X" if ((x + y) // 2) % 2 == 0 else "Z"


@dataclass(frozen=True)
class Check:
    """A stabilizer check: its type, ancilla position and data support."""

    kind: str
    ancilla: Coord
    data: Tuple[Coord, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("X", "Z"):
            raise ValueError(f"check kind must be 'X' or 'Z', got {self.kind!r}")

    @property
    def weight(self) -> int:
        return len(self.data)


class RotatedSurfaceCodeLayout:
    """Defect-free rotated surface code of width ``l`` (``l x l`` data qubits)."""

    #: boundary sides hosting X-type weight-2 checks (where X logicals terminate)
    X_BOUNDARY_AXIS = "y"
    #: boundary sides hosting Z-type weight-2 checks (where Z logicals terminate)
    Z_BOUNDARY_AXIS = "x"

    def __init__(self, size: int):
        if size < 2:
            raise ValueError("surface code width must be at least 2")
        self.size = int(size)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @cached_property
    def data_qubits(self) -> Tuple[Coord, ...]:
        l = self.size
        return tuple(
            (x, y)
            for x in range(1, 2 * l, 2)
            for y in range(1, 2 * l, 2)
        )

    @cached_property
    def data_qubit_set(self) -> FrozenSet[Coord]:
        return frozenset(self.data_qubits)

    def candidate_plaquettes(self) -> List[Coord]:
        """All even-even positions in the bounding box (active or not)."""
        l = self.size
        return [(x, y) for x in range(0, 2 * l + 1, 2) for y in range(0, 2 * l + 1, 2)]

    def plaquette_data(self, position: Coord) -> Tuple[Coord, ...]:
        """Data qubits inside the patch diagonally adjacent to a plaquette."""
        x, y = position
        out = []
        for dx in (-1, 1):
            for dy in (-1, 1):
                d = (x + dx, y + dy)
                if d in self.data_qubit_set:
                    out.append(d)
        return tuple(sorted(out))

    def _is_active_plaquette(self, position: Coord) -> bool:
        l = self.size
        x, y = position
        interior = 0 < x < 2 * l and 0 < y < 2 * l
        if interior:
            return True
        kind = plaquette_kind(position)
        on_y_boundary = (y == 0 or y == 2 * l) and 0 < x < 2 * l
        on_x_boundary = (x == 0 or x == 2 * l) and 0 < y < 2 * l
        if on_y_boundary:
            return kind == "X"
        if on_x_boundary:
            return kind == "Z"
        return False  # corners

    @cached_property
    def checks(self) -> Tuple[Check, ...]:
        """Active checks in layout order: ascending ancilla coordinate (like
        :attr:`data_qubits`, which ascend by coordinate too)."""
        out = []
        for pos in self.candidate_plaquettes():
            if not self._is_active_plaquette(pos):
                continue
            data = self.plaquette_data(pos)
            if len(data) < 2:
                continue
            out.append(Check(plaquette_kind(pos), pos, data))
        return tuple(out)

    @cached_property
    def check_by_ancilla(self) -> Dict[Coord, Check]:
        return {c.ancilla: c for c in self.checks}

    @cached_property
    def ancilla_qubits(self) -> Tuple[Coord, ...]:
        return tuple(c.ancilla for c in self.checks)

    @cached_property
    def all_qubits(self) -> Tuple[Coord, ...]:
        return tuple(sorted(set(self.data_qubits) | set(self.ancilla_qubits)))

    def is_data(self, coord: Coord) -> bool:
        return coord in self.data_qubit_set

    def is_ancilla(self, coord: Coord) -> bool:
        return coord in self.check_by_ancilla

    @cached_property
    def links(self) -> Tuple[Tuple[Coord, Coord], ...]:
        """All fabricated data-ancilla couplers, as (data, ancilla) pairs."""
        out = []
        for check in self.checks:
            for d in check.data:
                out.append((d, check.ancilla))
        return tuple(out)

    @cached_property
    def checks_containing(self) -> Dict[Coord, Tuple[Check, ...]]:
        """Map from data qubit to the checks containing it."""
        mapping: Dict[Coord, List[Check]] = {d: [] for d in self.data_qubits}
        for check in self.checks:
            for d in check.data:
                mapping[d].append(check)
        return {d: tuple(cs) for d, cs in mapping.items()}

    @cached_property
    def check_neighbours(self) -> Dict[Coord, Tuple[Coord, ...]]:
        """Map from check ancilla to the ancillas of the other checks sharing a
        data qubit with it, in layout order (only such checks can overlap)."""
        near: Dict[Coord, set] = {c.ancilla: set() for c in self.checks}
        for cs in self.checks_containing.values():
            for c in cs:
                near[c.ancilla].update(o.ancilla for o in cs if o is not c)
        return {a: tuple(sorted(ns)) for a, ns in near.items()}

    # ------------------------------------------------------------------
    # Counts used by the resource-overhead analysis
    # ------------------------------------------------------------------
    @property
    def num_data_qubits(self) -> int:
        return self.size ** 2

    @property
    def num_ancilla_qubits(self) -> int:
        return len(self.checks)

    @property
    def num_fabricated_qubits(self) -> int:
        """Physical qubits per chiplet: data + measurement qubits (= 2 l**2 - 1)."""
        return self.num_data_qubits + self.num_ancilla_qubits

    @property
    def num_links(self) -> int:
        return len(self.links)

    # ------------------------------------------------------------------
    # Logical operators
    # ------------------------------------------------------------------
    def logical_x_support(self) -> Tuple[Coord, ...]:
        """A minimum-weight logical X representative: the column ``x = 1``."""
        return tuple((1, y) for y in range(1, 2 * self.size, 2))

    def logical_z_support(self) -> Tuple[Coord, ...]:
        """A minimum-weight logical Z representative: the row ``y = 1``."""
        return tuple((x, 1) for x in range(1, 2 * self.size, 2))

    def boundary_sides(self) -> Dict[str, str]:
        """Map side name -> type of boundary check hosted there."""
        return {"top": "X", "bottom": "X", "left": "Z", "right": "Z"}

    def side_of(self, coord: Coord) -> List[str]:
        """Which patch sides a coordinate lies on (may be several at corners)."""
        l = self.size
        x, y = coord
        sides = []
        if y <= 1:
            sides.append("top")
        if y >= 2 * l - 1:
            sides.append("bottom")
        if x <= 1:
            sides.append("left")
        if x >= 2 * l - 1:
            sides.append("right")
        return sides

    def __repr__(self) -> str:
        return f"RotatedSurfaceCodeLayout(size={self.size})"


class StabilityLayout(RotatedSurfaceCodeLayout):
    """A rotated patch whose four boundaries all carry Z-type checks.

    On this patch every data qubit belongs to exactly two Z checks, so the
    product of all Z checks is the identity; the XOR of all Z-check
    measurement outcomes in any single round is therefore deterministic and
    serves as the observable of the stability experiment (Gidney 2022), which
    the paper uses in Sec. 6 to identify cutoff fidelities.

    The all-Z-boundary construction only closes up for even patch widths (for
    odd widths two opposite corners end up in a single Z check), so the width
    is required to be even.  The paper's Fig. 20 uses a d = 5 region; the
    reproduction substitutes the closest even-width stability patch, which
    exercises the identical code path (see the README's "Scale mapping").
    """

    def __init__(self, size: int):
        if size % 2 != 0:
            raise ValueError(
                "the stability patch requires an even width; for odd widths the "
                "product of the boundary Z checks is not the identity"
            )
        super().__init__(size)

    def _is_active_plaquette(self, position: Coord) -> bool:
        l = self.size
        x, y = position
        interior = 0 < x < 2 * l and 0 < y < 2 * l
        if interior:
            return True
        kind = plaquette_kind(position)
        on_boundary = (
            ((y == 0 or y == 2 * l) and 0 < x < 2 * l)
            or ((x == 0 or x == 2 * l) and 0 < y < 2 * l)
        )
        return on_boundary and kind == "Z"

    def logical_x_support(self) -> Tuple[Coord, ...]:  # pragma: no cover - not used
        raise NotImplementedError("the stability patch does not store a logical qubit")

    def logical_z_support(self) -> Tuple[Coord, ...]:  # pragma: no cover - not used
        raise NotImplementedError("the stability patch does not store a logical qubit")

    def boundary_sides(self) -> Dict[str, str]:
        return {"top": "Z", "bottom": "Z", "left": "Z", "right": "Z"}
