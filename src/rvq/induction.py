"""Top/bottom induction moves and Rauzy class enumeration.

The two moves act on the last letters of the rows: the winner is the last
letter of the acting row, the loser the last letter of the other row.  When
the winner's twin sits in the opposite row the move keeps the type (l, m) and
reinserts the loser just after the twin; when the twin sits in the winner's
own row the move transfers the loser into that row just before the twin and
the type changes by (+1, -1) (top) or (-1, +1) (bottom).  A bottom move is
the top move on the swapped rows, so one kernel serves both.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import (BudgetExceeded, MoveUndefined, ReducibleSeed,
                     ReverseArrowMissing, RVQError)
from .gp import GeneralizedPermutation, is_irreducible, parse_gp

TOP = 't'
BOTTOM = 'b'


@dataclass(frozen=True)
class Arrow:
    source: GeneralizedPermutation
    kind: str  # 't' or 'b'
    winner: str
    loser: str
    target: GeneralizedPermutation
    type_change: bool


def _move(own: tuple[str, ...], other: tuple[str, ...]
          ) -> tuple[tuple[str, ...], tuple[str, ...], str, str, bool]:
    """The move whose winner is the last letter of ``own``, the acting row,
    and whose loser is the last letter of ``other``.

    Returns the new (own, other) rows, the winner, the loser and whether the
    type changed.  A bottom move is this move on the swapped rows.
    """
    winner, loser = own[-1], other[-1]
    if own.count(winner) == 2:
        # twin in the acting row: the loser moves across, just before it
        if not any(other.count(y) == 2 and y != loser for y in other):
            raise MoveUndefined(
                "move needs a non-final duplicate in the losing row")
        tw = own.index(winner)
        return own[:tw] + (loser,) + own[tw:], other[:-1], winner, loser, True
    tw = other.index(winner)
    if tw == len(other) - 1:
        # winner's twin is the loser position itself; fixed point
        return own, other, winner, loser, False
    return (own, other[:tw + 1] + (loser,) + other[tw + 1:-1],
            winner, loser, False)


def apply_arrow(gp: GeneralizedPermutation, kind: str) -> Arrow:
    """Apply one induction move; raises MoveUndefined when it does not exist."""
    if kind == TOP:
        top, bottom, winner, loser, change = _move(gp.top, gp.bottom)
    elif kind == BOTTOM:
        bottom, top, winner, loser, change = _move(gp.bottom, gp.top)
    else:
        raise ValueError("kind must be 't' or 'b', got %r" % (kind,))
    return Arrow(gp, kind, winner, loser,
                 GeneralizedPermutation(top, bottom), change)


def defined_moves(gp: GeneralizedPermutation) -> tuple[str, ...]:
    kinds = []
    for kind in (TOP, BOTTOM):
        try:
            apply_arrow(gp, kind)
        except MoveUndefined:
            continue
        kinds.append(kind)
    return tuple(kinds)


def invert_arrow(gp: GeneralizedPermutation, kind: str, *,
                 require_irreducible: bool = True) -> Arrow:
    """Return the unique arrow of the given kind pointing into ``gp``.

    The predecessor is reconstructed locally (no class enumeration): the
    shape of ``gp`` around the winner's twin determines whether the incoming
    move kept or changed the type, and the reconstruction is verified by
    reapplying the forward move.  As in :func:`apply_arrow`, ``own`` is the
    acting row and ``other`` the row of the loser.
    """
    if kind == TOP:
        own, other = gp.top, gp.bottom
    elif kind == BOTTOM:
        own, other = gp.bottom, gp.top
    else:
        raise ValueError("kind must be 't' or 'b', got %r" % (kind,))
    winner = own[-1]
    if own.count(winner) == 2:
        tw = own.index(winner)
        if tw == 0:
            raise ReverseArrowMissing("no slot before the twin")
        own, other = own[:tw - 1] + own[tw:], other + (own[tw - 1],)
    else:
        tw = other.index(winner)
        if tw < len(other) - 1:  # else gp is a fixed point of the move
            other = other[:tw + 1] + other[tw + 2:] + (other[tw + 1],)
    u = (GeneralizedPermutation(own, other) if kind == TOP
         else GeneralizedPermutation(other, own))

    try:
        arrow = apply_arrow(u, kind)
    except MoveUndefined as exc:
        raise ReverseArrowMissing("candidate predecessor rejected: %s" % exc)
    if arrow.target != gp:
        raise ReverseArrowMissing("candidate predecessor does not map back")
    if require_irreducible and not is_irreducible(u):
        raise ReverseArrowMissing("predecessor is reducible")
    return arrow


def resolve_walk(base: GeneralizedPermutation, walk: str,
                 *, require_irreducible: bool = True) -> list[tuple[Arrow, int]]:
    """Resolve a walk string over {t, b, T, B} into (arrow, direction) pairs.

    Lowercase letters are forward moves; uppercase letters traverse the
    corresponding arrow backwards (direction -1).
    """
    out: list[tuple[Arrow, int]] = []
    cur = base
    for step in walk:
        if step in (TOP, BOTTOM):
            arrow = apply_arrow(cur, step)
            out.append((arrow, +1))
            cur = arrow.target
        elif step in ('T', 'B'):
            arrow = invert_arrow(cur, step.lower(),
                                 require_irreducible=require_irreducible)
            out.append((arrow, -1))
            cur = arrow.source
        else:
            raise ValueError("walk steps must be one of t, b, T, B: %r" % step)
    return out


def walk_end(base: GeneralizedPermutation, walk: str) -> GeneralizedPermutation:
    steps = resolve_walk(base, walk)
    if not steps:
        return base
    arrow, direction = steps[-1]
    return arrow.target if direction > 0 else arrow.source


# ---------------------------------------------------------------------------
# Rauzy classes
# ---------------------------------------------------------------------------

CACHE_ENV = "RVQ_CACHE_DIR"
DEFAULT_BUDGET = 10_000_000
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RauzyClass:
    base: GeneralizedPermutation
    vertices: tuple[GeneralizedPermutation, ...]
    t_target: tuple[Optional[int], ...]
    b_target: tuple[Optional[int], ...]
    t_winner: tuple[Optional[str], ...]
    b_winner: tuple[Optional[str], ...]
    complete: bool
    reduced_labels: bool = False

    def __len__(self):
        return len(self.vertices)

    def index_of(self, gp: GeneralizedPermutation) -> Optional[int]:
        key = gp.reduced().encode() if self.reduced_labels else gp.encode()
        return self._index().get(key)

    def __contains__(self, gp: GeneralizedPermutation) -> bool:
        return self.index_of(gp) is not None

    def _index(self) -> dict[str, int]:
        cached = getattr(self, '_index_cache', None)
        if cached is None:
            cached = {v.encode(): i for i, v in enumerate(self.vertices)}
            object.__setattr__(self, '_index_cache', cached)
        return cached

    def arrows(self) -> Iterator[tuple[int, str, int, str]]:
        """Yield (source index, kind, target index, winner)."""
        for i in range(len(self.vertices)):
            if self.t_target[i] is not None:
                yield i, TOP, self.t_target[i], self.t_winner[i]
            if self.b_target[i] is not None:
                yield i, BOTTOM, self.b_target[i], self.b_winner[i]

    def arrow_count(self) -> int:
        return sum(1 for _ in self.arrows())

    # -- trees for cycle construction -----------------------------------

    def out_tree(self) -> list[Optional[tuple[int, str]]]:
        """BFS tree of arrows away from the base: entry i is (parent, kind)."""
        cached = getattr(self, '_out_tree', None)
        if cached is not None:
            return cached
        parent: list[Optional[tuple[int, str]]] = [None] * len(self.vertices)
        seen = {0}
        queue = deque([0])
        while queue:
            i = queue.popleft()
            for tgt, kind in ((self.t_target[i], TOP), (self.b_target[i], BOTTOM)):
                if tgt is not None and tgt not in seen:
                    seen.add(tgt)
                    parent[tgt] = (i, kind)
                    queue.append(tgt)
        object.__setattr__(self, '_out_tree', parent)
        return parent

    def in_tree(self) -> list[Optional[tuple[int, str]]]:
        """BFS tree of arrows towards the base: entry i is (next vertex, kind)."""
        cached = getattr(self, '_in_tree', None)
        if cached is not None:
            return cached
        pred: dict[int, list[tuple[int, str]]] = {}
        for i, kind, j, _ in self.arrows():
            pred.setdefault(j, []).append((i, kind))
        nxt: list[Optional[tuple[int, str]]] = [None] * len(self.vertices)
        seen = {0}
        queue = deque([0])
        while queue:
            j = queue.popleft()
            for i, kind in pred.get(j, ()):
                if i not in seen:
                    seen.add(i)
                    nxt[i] = (j, kind)
                    queue.append(i)
        object.__setattr__(self, '_in_tree', nxt)
        return nxt

    def path_from_base(self, idx: int) -> str:
        tree = self.out_tree()
        steps = []
        while idx != 0:
            entry = tree[idx]
            assert entry is not None, "class is not connected from base"
            idx, kind = entry[0], entry[1]
            steps.append(kind)
        return "".join(reversed(steps))

    def path_to_base(self, idx: int) -> str:
        tree = self.in_tree()
        steps = []
        while idx != 0:
            entry = tree[idx]
            assert entry is not None, "base unreachable (class not strongly connected?)"
            steps.append(entry[1])
            idx = entry[0]
        return "".join(steps)

    def reverse_table(self, kind: str) -> dict[int, int]:
        """target index -> source index for the given kind (unique per kind)."""
        table: dict[int, int] = {}
        targets = self.t_target if kind == TOP else self.b_target
        for i, j in enumerate(targets):
            if j is None:
                continue
            assert j not in table, "two %s-arrows into one vertex" % kind
            table[j] = i
        return table

    # -- persistence ------------------------------------------------------

    def to_jsonl(self) -> str:
        header = {
            "format": _FORMAT_VERSION,
            "base": self.base.encode(),
            "complete": self.complete,
            "reduced_labels": self.reduced_labels,
            "vertices": len(self.vertices),
            "arrows": self.arrow_count(),
        }
        lines = [json.dumps(header)]
        for i, v in enumerate(self.vertices):
            lines.append(json.dumps({
                "gp": v.encode(),
                "t": self.t_target[i], "b": self.b_target[i],
                "tw": self.t_winner[i], "bw": self.b_winner[i],
            }))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_jsonl(text: str) -> "RauzyClass":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = json.loads(lines[0])
        if header.get("format") != _FORMAT_VERSION:
            raise ValueError("unsupported class cache format: %r"
                             % header.get("format"))
        verts, tt, bt, tw, bw = [], [], [], [], []
        arrows = 0
        for ln in lines[1:]:
            rec = json.loads(ln)
            verts.append(parse_gp(rec["gp"]))
            t, b = rec["t"], rec["b"]
            tt.append(t)
            bt.append(b)
            tw.append(rec["tw"])
            bw.append(rec["bw"])
            arrows += (t is not None) + (b is not None)
        if (len(verts), arrows) != (header["vertices"], header["arrows"]):
            raise ValueError(
                "class cache holds %d vertices and %d arrows, its header "
                "says %r and %r" % (len(verts), arrows, header["vertices"],
                                    header["arrows"]))
        return RauzyClass(
            base=parse_gp(header["base"]),
            vertices=tuple(verts),
            t_target=tuple(tt), b_target=tuple(bt),
            t_winner=tuple(tw), b_winner=tuple(bw),
            complete=header["complete"],
            reduced_labels=header.get("reduced_labels", False))


def enumerate_class(seed: GeneralizedPermutation,
                    limit: int = DEFAULT_BUDGET,
                    *, reduced_labels: bool = False,
                    allow_truncated: bool = False) -> RauzyClass:
    """Breadth-first closure of ``seed`` under both induction moves.

    With ``reduced_labels`` every vertex is stored in relabeled normal form
    (letters renamed by first appearance, top row first); since the moves
    commute with relabeling this enumerates the quotient graph, which is what
    component identification compares against.
    """
    if not is_irreducible(seed):
        raise ReducibleSeed("seed is reducible: %s" % seed.encode())
    if seed.is_strict and not seed.satisfies_convention():
        raise ReducibleSeed(
            "seed is not suspendable (needs duplicates in both rows): %s"
            % seed.encode())

    base = seed.reduced() if reduced_labels else seed
    vertices = [base]
    index = {base.encode(): 0}
    tt: list[Optional[int]] = []
    bt: list[Optional[int]] = []
    tw: list[Optional[str]] = []
    bw: list[Optional[str]] = []
    i = 0
    truncated = False
    while i < len(vertices):
        gp = vertices[i]
        row: dict[str, tuple[Optional[int], Optional[str]]] = {}
        for kind in (TOP, BOTTOM):
            try:
                arrow = apply_arrow(gp, kind)
            except MoveUndefined:
                row[kind] = (None, None)
                continue
            target = arrow.target.reduced() if reduced_labels else arrow.target
            key = target.encode()
            j = index.get(key)
            if j is None:
                if len(vertices) >= limit:
                    truncated = True
                    row[kind] = (None, None)
                    continue
                j = len(vertices)
                index[key] = j
                vertices.append(target)
            row[kind] = (j, arrow.winner)
        tt.append(row[TOP][0])
        bt.append(row[BOTTOM][0])
        tw.append(row[TOP][1])
        bw.append(row[BOTTOM][1])
        i += 1

    rc = RauzyClass(base=base, vertices=tuple(vertices),
                    t_target=tuple(tt), b_target=tuple(bt),
                    t_winner=tuple(tw), b_winner=tuple(bw),
                    complete=not truncated, reduced_labels=reduced_labels)
    if truncated and not allow_truncated:
        raise BudgetExceeded("class budget of %d vertices hit" % limit,
                             partial=rc)
    return rc


# ---------------------------------------------------------------------------
# cache wiring
# ---------------------------------------------------------------------------

def cache_dir() -> str:
    return os.environ.get(CACHE_ENV, os.path.join(".", ".rvq-cache"))


def _cache_path(seed: GeneralizedPermutation, reduced_labels: bool) -> str:
    key = seed.encode() + ("|reduced" if reduced_labels else "")
    digest = hashlib.sha1(key.encode()).hexdigest()[:16]
    return os.path.join(cache_dir(), "class-%s.jsonl" % digest)


def load_or_enumerate(seed: GeneralizedPermutation,
                      limit: int = DEFAULT_BUDGET,
                      *, reduced_labels: bool = False,
                      use_cache: bool = True) -> RauzyClass:
    """The class of ``seed`` from the on-disk cache, else enumerated and
    stored there.

    A cache file that is unreadable, truncated, incomplete or holds another
    class is a miss and is rebuilt.  Writers go through a unique temporary
    file and an atomic rename, so concurrent writers cannot interleave.
    """
    path = _cache_path(seed, reduced_labels)
    if use_cache and os.path.exists(path):
        try:
            with open(path) as fh:
                rc = RauzyClass.from_jsonl(fh.read())
        except (OSError, ValueError, LookupError, TypeError, AttributeError,
                RVQError):
            rc = None
        base = seed.reduced() if reduced_labels else seed
        if rc is not None and rc.complete and rc.base == base:
            return rc
    rc = enumerate_class(seed, limit, reduced_labels=reduced_labels)
    if use_cache:
        os.makedirs(cache_dir(), exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=cache_dir())
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(rc.to_jsonl())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return rc


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def export_graph(rc: RauzyClass) -> str:
    """Render the class as a DOT digraph; edge labels carry kind and winner."""
    out = ["digraph rauzy {"]
    note = "base=%s vertices=%d" % (rc.base.encode(), len(rc))
    if not rc.complete:
        note += " TRUNCATED"
    out.append('  label="%s";' % note)
    for i, v in enumerate(rc.vertices):
        out.append('  v%d [label="%s"];' % (i, v.encode()))
    for i, kind, j, winner in rc.arrows():
        out.append('  v%d -> v%d [label="%s:%s"];' % (i, j, kind, winner))
    out.append("}")
    return "\n".join(out) + "\n"
