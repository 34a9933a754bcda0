"""z-estimations of weighted strings (Theorem 2).

A *z-estimation* of a weighted string ``X`` of length ``n`` is an indexed
family ``S = (S_j, π_j)`` of ``⌊z⌋`` standard strings of length ``n`` with
properties ``π_j`` such that, for **every** string ``P`` and position ``i``::

    Count_S(P, i)  =  ⌊ z · P(X[i .. i+|P|-1] = P) ⌋

where ``Count_S(P, i)`` is the number of strings of the family in which ``P``
occurs at ``i`` respecting the property.  The estimation is the substrate of
every index in the paper: the weighted suffix tree/array index its property
suffixes directly, and the minimizer-based indexes sample it.

Construction algorithm
----------------------
The paper cites Barton et al. for an ``O(nz)``-time construction; we re-derive
one from the definition (the resulting family is generally different from
theirs — z-estimations are not unique — but satisfies the same defining
property, which is all any index relies on).

Tokens ``0 .. ⌊z⌋-1`` (the future strings) are processed left to right.  After
position ``e`` the construction maintains the invariant

    for every start ``i ≤ e`` and every string ``P`` on ``[i, e]``:
    exactly ``⌊z·P(X[i..e]=P)⌋`` tokens carry ``P`` at ``i`` *and* are still
    "alive from" ``i`` (their property will cover ``[i, e]``).

Because a token that is alive from ``i`` is also alive from every later start,
the groups of tokens that agree on ``[i, e]`` form a laminar family, which the
builder stores as a tree of :class:`_Node` objects (group = node subtree).
At each position the tree is traversed bottom-up; every group must contain
exactly ``⌊w(i)·p_e(α)⌋`` tokens that take letter ``α`` and stay alive from
``i``, where ``w(i) = z·P(X[i..e-1]=P)`` is the group's weight at level ``i``.
Sub-additivity of the floor function guarantees that the quotas of a group
never exceed what its sub-groups have already committed plus the tokens that
are free inside the group, so a greedy bottom-up assignment always succeeds;
the Hypothesis test-suite exercises this against a brute-force count oracle.

The builder's cost is ``O(n + U·z)`` tree work plus the unavoidable
``Θ(nz)`` output, where ``U`` is the number of uncertain positions —
positions whose distribution is concentrated on a single letter are
materialised by whole-matrix operations and never touch the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConstructionError
from .numerics import RELATIVE_TOLERANCE, validate_threshold
from .properties import (
    GroupTreeArrays,
    PropertyArray,
    flatten_group_tree,
    restore_group_tree,
)
from .weighted_string import WeightedString

__all__ = [
    "ZEstimation",
    "EstimationCheckpoint",
    "build_z_estimation",
    "resume_z_estimation",
    "DEFAULT_CHECKPOINT_EVERY",
]

#: Default checkpoint granularity ``K``: builder state is snapshotted before
#: processing every ``K``-th position.  Each checkpoint costs ``O(⌊z⌋)``
#: memory (the alive-from vector plus the flattened group tree), so the whole
#: trail stays a vanishing fraction of the ``Θ(n⌊z⌋)`` family it annotates.
#: Tests shrink it (module-level, read at call time) to exercise boundary
#: behaviour on small strings.
DEFAULT_CHECKPOINT_EVERY = 256


@dataclass
class EstimationCheckpoint:
    """Builder state captured immediately before processing ``position``.

    Together with the (unchanged) prefix of the materialised family this is
    everything the left-to-right construction needs to continue: the
    per-token alive-from levels and the laminar group tree, flattened to
    :class:`~repro.core.properties.GroupTreeArrays` with the root's coarsest
    segment normalised to end at ``position`` (the builder extends it lazily,
    across whole certain runs).  Snapshots
    of identical states are bit-identical, which is what :meth:`matches`
    tests — the resume path's early-convergence check.
    """

    position: int
    alive_from: np.ndarray
    tree: GroupTreeArrays

    def matches(self, other: "EstimationCheckpoint") -> bool:
        """Bit-exact state equality (float segment weights included)."""
        return (
            int(self.position) == int(other.position)
            and np.array_equal(self.alive_from, other.alive_from)
            and self.tree.equals(other.tree)
        )

    def nbytes(self) -> int:
        return int(self.alive_from.nbytes) + self.tree.nbytes()


class ZEstimation:
    """The materialised family ``(S_j, π_j)_{j=1..⌊z⌋}`` of a weighted string.

    Attributes
    ----------
    strings:
        ``(⌊z⌋ × n)`` array of letter codes; row ``j`` is ``S_j``.
    ends:
        ``(⌊z⌋ × n)`` array of inclusive property ends; row ``j`` is ``π_j``.
    z:
        The weight threshold parameter.
    checkpoints:
        Builder-state snapshots (:class:`EstimationCheckpoint`) taken every
        ``K`` positions during construction, ordered by position.  Point
        updates resume the left-to-right construction from the last
        checkpoint at-or-before the first changed position instead of
        replaying from 0 (:func:`resume_z_estimation`).  Possibly empty —
        estimations loaded from old stores carry none and fall back to a
        full replay.
    """

    __slots__ = ("strings", "ends", "z", "_alphabet", "checkpoints")

    def __init__(
        self,
        strings: np.ndarray,
        ends: np.ndarray,
        z: float,
        alphabet,
        checkpoints: list | None = None,
    ) -> None:
        self.strings = strings
        self.ends = ends
        self.z = float(z)
        self._alphabet = alphabet
        self.checkpoints = list(checkpoints) if checkpoints else []

    # -- basic shape -----------------------------------------------------------
    @property
    def width(self) -> int:
        """``⌊z⌋`` — the number of strings in the family."""
        return int(self.strings.shape[0])

    @property
    def length(self) -> int:
        """``n`` — the length of each string."""
        return int(self.strings.shape[1])

    @property
    def alphabet(self):
        """The alphabet shared with the source weighted string."""
        return self._alphabet

    def __len__(self) -> int:
        return self.width

    def string(self, j: int) -> np.ndarray:
        """The code array of ``S_j``."""
        return self.strings[j]

    def text(self, j: int) -> str:
        """``S_j`` decoded through the alphabet."""
        return self._alphabet.decode(int(code) for code in self.strings[j])

    def property_array(self, j: int) -> PropertyArray:
        """``π_j`` as a :class:`PropertyArray`."""
        return PropertyArray(self.ends[j])

    # -- the defining Count property -------------------------------------------
    def covers(self, j: int, start: int, length: int) -> bool:
        """Whether the window ``[start, start+length)`` respects ``π_j``."""
        if length <= 0:
            return True
        return int(self.ends[j, start]) >= start + length - 1

    def count(self, pattern, position: int) -> int:
        """``Count_S(P, i)``: property-respecting occurrences at one position."""
        pattern = np.asarray(pattern, dtype=self.strings.dtype)
        m = len(pattern)
        if m == 0:
            return self.width
        if position < 0 or position + m > self.length:
            return 0
        window = self.strings[:, position : position + m]
        matches = np.all(window == pattern[None, :], axis=1)
        respected = self.ends[:, position] >= position + m - 1
        return int(np.count_nonzero(matches & respected))

    def occurrences(self, pattern) -> list[int]:
        """Positions where the pattern occurs (respecting properties) in ≥ 1 string."""
        pattern = np.asarray(pattern, dtype=self.strings.dtype)
        m = len(pattern)
        positions = []
        for start in range(self.length - m + 1):
            if self.count(pattern, start) >= 1:
                positions.append(start)
        return positions

    # -- content used by the indexes --------------------------------------------
    def valid_lengths(self) -> np.ndarray:
        """``(⌊z⌋ × n)`` array of per-start valid window lengths."""
        positions = np.arange(self.length, dtype=np.int64)[None, :]
        return self.ends - positions + 1

    def property_suffix_count(self) -> int:
        """Number of non-empty property suffixes (the WST/WSA leaf count)."""
        return int(np.count_nonzero(self.valid_lengths() > 0))

    def total_valid_length(self) -> int:
        """Sum of all valid window lengths — the Θ(nz) size driver of WST."""
        lengths = self.valid_lengths()
        return int(lengths[lengths > 0].sum())

    def nbytes(self) -> int:
        """Memory footprint of the materialised family (codes + property ends)."""
        return int(self.strings.nbytes + self.ends.nbytes)

    def __repr__(self) -> str:
        return (
            f"ZEstimation(width={self.width}, length={self.length}, z={self.z:g})"
        )


# --------------------------------------------------------------------------- #
# builder                                                                      #
# --------------------------------------------------------------------------- #
@dataclass
class _Node:
    """A group of the laminar family maintained by the builder.

    ``segments`` is a list of ``(lo, hi, weight)`` triples ordered from the
    coarsest (largest levels) to the finest, partitioning the node's level
    range into maximal runs of constant weight; ``members`` holds
    ``(anchor_level, token)`` pairs for tokens anchored inside the node;
    ``children`` are the finer groups (their level ranges end one below
    this node's deepest segment).
    """

    segments: list = field(default_factory=list)
    members: list = field(default_factory=list)
    children: list = field(default_factory=list)


class _EstimationBuilder:
    """Single-use builder implementing the algorithm described in the module docstring.

    Every position is classified up front with whole-matrix operations (row
    sums, positive counts, argmax): the certain columns of every ``S_j`` are
    materialised with one broadcast assignment, and only the (typically
    sparse) uncertain positions walk the group tree.  A certain position
    changes no builder state except the root's coarsest segment, which is
    extended across a whole certain run at once.
    """

    def __init__(
        self,
        source: WeightedString,
        z: float,
        checkpoint_every: int | None = None,
    ) -> None:
        self.source = source
        self.z = validate_threshold(z)
        self.width = int(math.floor(self.z + RELATIVE_TOLERANCE))
        self.length = len(source)
        # Snapshot cadence K (None: the module default at call time; 0: off).
        if checkpoint_every is None:
            checkpoint_every = DEFAULT_CHECKPOINT_EVERY
        self.checkpoint_every = max(0, int(checkpoint_every))
        self.checkpoints: list[EstimationCheckpoint] = []
        # Per-token alive-from position.
        self.alive_from = np.zeros(self.width, dtype=np.int64)
        # The family: letter codes and property ends, filled progressively.
        self.strings = np.empty((self.width, self.length), dtype=np.int64)
        self.ends = np.empty((self.width, self.length), dtype=np.int64)
        # Laminar group tree; the root's coarsest level is the current position.
        # Initially every token is anchored at level 0 (alive from the start).
        self.root = _Node(
            segments=[(0, 0, self.z)],
            members=[(0, token) for token in range(self.width)],
        )
        # Scratch arrays reused across positions.
        self._letters = np.zeros(self.width, dtype=np.int64)
        self._depths = np.zeros(self.width, dtype=np.int64)
        self._selected_nodes: list = [None] * self.width

    # -- checkpoints --------------------------------------------------------------
    def _snapshot(self, position: int) -> EstimationCheckpoint:
        """Capture the builder state *before* processing ``position``."""
        return EstimationCheckpoint(
            position=int(position),
            alive_from=self.alive_from.copy(),
            tree=flatten_group_tree(self.root, root_hi=int(position)),
        )

    # -- public ------------------------------------------------------------------
    def build(self) -> ZEstimation:
        if self.width == 0:
            raise ConstructionError("z must be at least 1 to build a z-estimation")
        self.scan(
            0,
            self.checkpoint_every,
            lambda boundary: self.checkpoints.append(self._snapshot(boundary)),
        )
        self.close_alive()
        return ZEstimation(
            self.strings, self.ends, self.z, self.source.alphabet, self.checkpoints
        )

    def scan(self, start: int, every: int, on_boundary) -> int | None:
        """Process positions ``start .. n-1`` left to right.

        ``on_boundary(b)`` is called for every checkpoint boundary
        ``b = start + i·every < n`` (``i ≥ 1``; none when ``every`` is 0) with
        the builder in its state before position ``b``; a truthy return
        stops the scan there and ``b`` is returned.  Returns None when the
        scan reached the end.
        """
        n = self.length
        matrix = self.source.matrix
        tail = matrix[start:]
        bad = tail.sum(axis=1) <= 0.0
        if bad.any():
            position = start + int(np.argmax(bad))
            raise ConstructionError(f"position {position} has zero total probability")
        certain = np.count_nonzero(tail > 0.0, axis=1) == 1
        # For a certain row the single positive letter is the argmax.
        self.strings[:, start:][:, certain] = np.argmax(tail[certain], axis=1)[None, :]
        next_boundary = start + every if every else n
        for position in (np.nonzero(~certain)[0] + start).tolist():
            while next_boundary <= position:
                if on_boundary(next_boundary):
                    return next_boundary
                next_boundary += every
            # Fold the preceding run of certain positions into the root's
            # coarsest segment in one step.
            lo, _, weight = self.root.segments[0]
            self.root.segments[0] = (lo, position, weight)
            row = matrix[position]
            self._uncertain_step(position, row / row.sum())
        while next_boundary < n:
            if on_boundary(next_boundary):
                return next_boundary
            next_boundary += every
        return None

    def close_alive(self) -> None:
        """Close the properties of tokens that are still alive at the end."""
        alive = np.arange(self.length, dtype=np.int64)[None, :] >= self.alive_from[:, None]
        self.ends[alive] = self.length - 1

    # -- per-position steps --------------------------------------------------------
    def _uncertain_step(self, position: int, row: np.ndarray) -> None:
        # Plain-Python floats: scalar arithmetic on list entries is several
        # times faster than indexing numpy scalars and bit-identical (both
        # are IEEE-754 doubles).
        row_values = row.tolist()
        positive = [code for code, value in enumerate(row_values) if value > 0.0]
        floor = math.floor
        tolerance = RELATIVE_TOLERANCE
        letters = self._letters
        depths = self._depths
        letters[:] = int(np.argmax(row))
        depths[:] = position + 1  # default: dead at this position
        selected_nodes = self._selected_nodes

        def process(node: _Node) -> tuple[dict[int, int], list[int]]:
            """Assign letters/survival inside ``node``; return per-letter counts and free tokens."""
            committed: dict[int, int] = {}
            pool: list[int] = []
            for child in node.children:
                child_committed, child_pool = process(child)
                for code, amount in child_committed.items():
                    committed[code] = committed.get(code, 0) + amount
                pool.extend(child_pool)
            members = sorted(node.members)
            member_index = 0
            for lo, hi, weight in reversed(node.segments):
                while member_index < len(members) and members[member_index][0] <= hi:
                    pool.append(members[member_index][1])
                    member_index += 1
                for code in positive:
                    value = weight * row_values[code]
                    # Floor with the library-wide rounding tolerance.
                    quota = (
                        0
                        if value <= 0.0
                        else int(floor(value + tolerance * (value if value > 1.0 else 1.0)))
                    )
                    need = quota - committed.get(code, 0)
                    if need <= 0:
                        continue
                    if need > len(pool):
                        raise ConstructionError(
                            "z-estimation invariant violated at position "
                            f"{position}: need {need} tokens, have {len(pool)}"
                        )
                    for _ in range(need):
                        token = pool.pop()
                        letters[token] = code
                        depths[token] = lo
                        selected_nodes[token] = node
                    committed[code] = quota
            if member_index != len(members):
                raise ConstructionError(
                    "z-estimation invariant violated: member anchored below "
                    f"the node's segments at position {position}"
                )
            return committed, pool

        process(self.root)
        self.strings[:, position] = letters

        # Finalise property ends for every token that lost some start levels.
        for token in range(self.width):
            old_start = int(self.alive_from[token])
            new_start = int(depths[token])
            if new_start > old_start:
                self.ends[token, old_start:new_start] = position - 1
                self.alive_from[token] = new_start

        self._rebuild(position, row, letters, depths, selected_nodes)
        for token in range(self.width):
            selected_nodes[token] = None

    # -- tree maintenance ------------------------------------------------------------
    def _rebuild(
        self,
        position: int,
        row: np.ndarray,
        letters: np.ndarray,
        depths: np.ndarray,
        selected_nodes: list,
    ) -> None:
        """Refine the group tree by the letters chosen at ``position``."""
        survivors_at: dict[int, dict[int, list]] = {}
        for token in range(self.width):
            if depths[token] <= position:
                node = selected_nodes[token]
                per_letter = survivors_at.setdefault(id(node), {})
                per_letter.setdefault(int(letters[token]), []).append(
                    (int(depths[token]), token)
                )

        row_values = row.tolist()

        def convert(node: _Node) -> dict[int, _Node]:
            child_results = [convert(child) for child in node.children]
            own = survivors_at.get(id(node), {})
            codes = set(own)
            for child_result in child_results:
                codes.update(child_result)
            result: dict[int, _Node] = {}
            for code in codes:
                scale = row_values[code]
                segments = []
                for lo, hi, weight in node.segments:
                    scaled = weight * scale
                    if scaled >= 1.0 - RELATIVE_TOLERANCE:
                        segments.append((lo, hi, scaled))
                if not segments:
                    # The whole subtree weight dropped below 1; no token can be
                    # alive here (the quotas were 0), so nothing to keep.
                    continue
                new_node = _Node(segments=segments, members=list(own.get(code, [])))
                for child_result in child_results:
                    child = child_result.get(code)
                    if child is not None:
                        new_node.children.append(child)
                self._normalise(new_node)
                result[code] = new_node
            return result

        converted = convert(self.root)
        dead_members = [
            (position + 1, token)
            for token in range(self.width)
            if depths[token] > position
        ]
        new_root = _Node(
            segments=[(position + 1, position + 1, self.z)],
            members=dead_members,
            children=list(converted.values()),
        )
        self._normalise(new_root)
        self.root = new_root

    @staticmethod
    def _normalise(node: _Node) -> None:
        """Merge single-child chains and adjacent equal-weight segments."""
        while len(node.children) == 1:
            child = node.children[0]
            # Merge the seam segments when their weights coincide.
            if (
                node.segments
                and child.segments
                and abs(node.segments[-1][2] - child.segments[0][2]) <= 1e-12
            ):
                lo_child, _, weight = child.segments[0]
                lo_parent, hi_parent, _ = node.segments[-1]
                node.segments[-1] = (lo_child, hi_parent, weight)
                node.segments.extend(child.segments[1:])
            else:
                node.segments.extend(child.segments)
            node.members.extend(child.members)
            node.children = child.children


def build_z_estimation(
    source: WeightedString,
    z: float,
    *,
    checkpoint_every: int | None = None,
) -> ZEstimation:
    """Build a z-estimation of ``source`` for the threshold ``1/z`` (Theorem 2).

    The returned family satisfies the exact Count property stated in the
    module docstring; in particular a pattern has a z-valid occurrence at
    ``i`` in ``source`` if and only if it occurs at ``i``, respecting the
    property, in at least one string of the family.

    ``checkpoint_every`` sets the builder-state snapshot cadence ``K``
    (default: :data:`DEFAULT_CHECKPOINT_EVERY`; 0 disables checkpoints).
    Checkpoints never change the family — they only let later point updates
    resume construction through :func:`resume_z_estimation`.
    """
    return _EstimationBuilder(source, z, checkpoint_every).build()


def resume_z_estimation(
    old: ZEstimation,
    source: WeightedString,
    z: float,
    positions,
) -> tuple[ZEstimation, dict]:
    """Re-derive the z-estimation after point updates at ``positions``.

    ``source`` must already carry the new rows; ``old`` is the estimation of
    the pre-update string.  The construction is resumed from the last
    checkpoint at-or-before the first changed position: the (unchanged)
    string prefix and already-finalised property ends are copied from
    ``old``, and the left-to-right scan replays forward from the checkpoint.
    At every checkpoint boundary past the last changed position the replayed
    builder state is compared bit-exactly against ``old``'s snapshot; on the
    first match the remaining suffix (strings, open property ends and the
    later checkpoints) is spliced from ``old`` wholesale — the update's
    ripple has provably died out, everything downstream is identical.

    Returns ``(estimation, info)`` with ``info`` describing the replay
    (``{"estimation_replay", "replayed_from", "converged_at", ...}``).  The
    result is always bit-identical to ``build_z_estimation(source, z)`` with
    the same cadence; when ``old`` carries no usable checkpoint (old stores,
    an update in the first window, cadence 0) it *is* that full build.
    """
    changed = sorted({int(p) for p in positions})
    n = len(source)
    width = int(math.floor(validate_threshold(z) + RELATIVE_TOLERANCE))
    checkpoints = list(getattr(old, "checkpoints", ()) or ())
    usable = (
        changed
        and checkpoints
        and old.z == float(z)
        and old.length == n
        and old.width == width
        and all(0 <= p < n for p in changed)
    )
    start = None
    if usable:
        candidates = [c for c in checkpoints if c.position <= changed[0]]
        start = candidates[-1] if candidates else None
    if start is None:
        full = build_z_estimation(source, z)
        return full, {"estimation_replay": "full"}
    minimum, maximum = changed[0], changed[-1]
    # Checkpoint positions are multiples of the capture cadence.
    every = int(checkpoints[0].position)
    by_position = {int(c.position): c for c in checkpoints}

    builder = _EstimationBuilder(source, z, 0)
    builder.alive_from = start.alive_from.copy()
    builder.root = restore_group_tree(start.tree, _Node)
    resume_at = int(start.position)

    strings, ends = builder.strings, builder.ends
    strings[:, :resume_at] = old.strings[:, :resume_at]
    columns = np.arange(n, dtype=np.int64)[None, :]
    finalised = columns < builder.alive_from[:, None]
    ends[finalised] = old.ends[finalised]

    kept = [c for c in checkpoints if c.position <= resume_at]

    def check_boundary(boundary: int) -> bool:
        """Snapshot one boundary; True when the replay converged there."""
        snapshot = builder._snapshot(boundary)
        if boundary > maximum:
            reference = by_position.get(boundary)
            if reference is not None and snapshot.matches(reference):
                return True
        kept.append(snapshot)
        return False

    converged_at = builder.scan(resume_at, every, check_boundary)
    if converged_at is not None:
        # Identical state at the boundary + identical suffix rows: everything
        # the builder would produce from here on matches ``old`` bit for bit.
        strings[:, converged_at:] = old.strings[:, converged_at:]
        open_levels = columns >= by_position[converged_at].alive_from[:, None]
        ends[open_levels] = old.ends[open_levels]
        kept.extend(c for c in checkpoints if c.position >= converged_at)
    else:
        builder.close_alive()
    estimation = ZEstimation(strings, ends, z, source.alphabet, kept)
    info = {
        "estimation_replay": "checkpoint",
        "replayed_from": resume_at,
        "converged_at": converged_at,
        "replayed_positions": (converged_at if converged_at is not None else n)
        - resume_at,
    }
    return estimation, info
