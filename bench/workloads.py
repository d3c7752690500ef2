"""Seeded generators for the benchmark's scenario documents.

Every generator returns a document in the input schema of
``hypergames.arena.load_arena``; the program under test only ever sees that
document, written to a file.  The same seed gives the same document.

The two random workloads put a four-state entry gadget in front of a random
body, so that every seed has the same defining shape:

* ``init`` (P2, unlabelled) may move to ``loop`` or to ``entry``;
* ``loop`` (P1) carries the perceived goal labels but not the true ones and
  leads back to ``init``.  P2 could cycle through it forever, so ``init`` is
  not in the deception target, but she perceives that cycle as P1's win and
  any of her moves as rational, so when she plays at random she leaves it
  with probability one: ``init`` is in X*;
* ``entry`` (P1, unlabelled) may move to ``goal``, which carries the true goal
  labels only and loops on itself, or to a body state that P1 perceives as
  winning.  ``entry`` is in the target, and P1 enters the body from it.

Choosing that body state needs the perceived winning region, which
:func:`win1_region` computes here, apart from the program.
"""

from __future__ import annotations

import random
from collections import deque

SPARSE_STATES = 12_000
SPARSE_BRANCH = 3
SPARSE_DENSITY = 0.03
SPARSE_WIN_SHARE = (0.60, 0.68)

CONJ_STATES = 3_000
CONJ_BRANCH = 4
CONJ_AP = ("a", "b", "c", "d", "e", "f", "g", "h")
CONJ_GOALS = ("a", "b", "c")
CONJ_LABEL_P = 0.7
CONJ_PROP_P = 0.6
CONJ_HTS_REACHABLE = (8_500, 9_500)

CORRIDOR_STATES = 2_000
ENTRY_CANDIDATES = 8


def _random_body(rng: random.Random, n: int, branch: int) -> tuple[list[int], list[list[int]]]:
    # A random Hamiltonian cycle makes the body strongly connected, so the
    # fragment reachable from the gadget is the whole body for every seed.
    owner = [rng.choice((1, 2)) for _ in range(n)]
    cycle = rng.sample(range(n), n)
    succ = [[] for _ in range(n)]
    for i, s in enumerate(cycle):
        nxt = cycle[(i + 1) % n]
        extra = [d for d in rng.sample(range(n), rng.randint(0, branch - 1)) if d != nxt]
        succ[s] = [nxt] + extra
    return owner, succ


def _bits(labels: list[frozenset], goals: tuple[str, ...]) -> list[int]:
    """Each state's label as the bit set of the goals it carries."""
    return [sum(1 << i for i, g in enumerate(goals) if g in lab) for lab in labels]


def win1_region(
    owner: list[int], succ: list[list[int]], labels: list[frozenset], goals: tuple[str, ...]
) -> set[tuple[int, int]]:
    """P1's winning region of ``F g1 & ... & F gk`` under ``labels``, either labelling.

    The automaton state is the bit set of goals seen so far; entering a state
    reads its label.  Returns the winning ``(state, seen)`` pairs.
    """
    full = (1 << len(goals)) - 1
    bits = _bits(labels, goals)
    n = len(owner)
    preds: list[list[int]] = [[] for _ in range(n)]
    for s, ds in enumerate(succ):
        for d in ds:
            preds[d].append(s)
    win = {(s, full) for s in range(n)}
    pending = {}
    queue = deque(win)
    while queue:
        d, m_after = queue.popleft()
        for s in preds[d]:
            # (s, m) steps to (d, m | bits[d]); find every m that lands on m_after.
            for m in range(full + 1):
                if m | bits[d] != m_after or (s, m) in win:
                    continue
                if owner[s] == 2:
                    left = pending.get((s, m), len(succ[s])) - 1
                    pending[(s, m)] = left
                    if left:
                        continue
                win.add((s, m))
                queue.append((s, m))
    return win


def _rational_closure(owner, succ, true_bits, bits, win1, full, start) -> int:
    """Number of ``(state, true seen, perceived seen)`` triples reachable from
    ``start`` while P1 keeps to his perceived winning region and neither
    objective is met yet."""
    seen = {start}
    stack = [start]
    while stack:
        s, t, m = stack.pop()
        for d in succ[s]:
            v = (d, t | true_bits[d], m | bits[d])
            if full in v[1:] or v in seen or (owner[s] == 1 and (d, v[2]) not in win1):
                continue
            seen.add(v)
            stack.append(v)
    return len(seen)


def _document(owner, succ, label_true, label_perceived, init, ap, formula) -> dict:
    return {
        "states": [{"id": s, "player": p} for s, p in enumerate(owner)],
        "init": init,
        "ap": list(ap),
        "edges": [{"from": s, "to": d} for s, ds in enumerate(succ) for d in ds],
        "label_true": {str(s): sorted(lab) for s, lab in enumerate(label_true) if lab},
        "label_perceived": {str(s): sorted(lab) for s, lab in enumerate(label_perceived) if lab},
        "objective": {"formula": formula},
    }


def _add_gadget(
    rng: random.Random,
    owner: list[int],
    succ: list[list[int]],
    goals: tuple[str, ...],
    label_true: list[frozenset],
    label_perceived: list[frozenset],
) -> tuple[list[int], list[list[int]], list[frozenset], list[frozenset], int]:
    """The body with the entry gadget appended; the last item is ``init``."""
    n = len(owner)
    win1 = win1_region(owner, succ, label_perceived, goals)
    goal_set = frozenset(goals)
    full = (1 << len(goals)) - 1
    true_bits = _bits(label_true, goals)
    bits = _bits(label_perceived, goals)
    # The body state behind ``entry`` is the one, of a few drawn among the
    # perceived-winning ones that carry no true goal label, from which
    # rational play reaches the most states before either objective is met;
    # a draw that leads at once into either goal would leave most of the
    # restricted game unpruned or on the far side of the true goal.
    winning = [
        s for s in range(n)
        if bits[s] != full and (s, bits[s]) in win1 and not true_bits[s]
    ]
    candidates = rng.sample(winning, ENTRY_CANDIDATES)
    body_entry = max(
        candidates,
        key=lambda s: _rational_closure(
            owner, succ, true_bits, bits, win1, full, (s, true_bits[s], bits[s])
        ),
    )
    init, loop, entry, goal = n, n + 1, n + 2, n + 3
    return (
        owner + [2, 1, 1, 1],
        succ + [[loop, entry], [init], [goal, body_entry], [goal]],
        label_true + [frozenset(), frozenset(), frozenset(), goal_set],
        label_perceived + [frozenset(), goal_set, frozenset(), frozenset()],
        init,
    )


def hts_reachable(owner, succ, label_true, label_perceived, init, goals) -> int:
    """Number of HTS states ``(s, true seen, perceived seen)`` reachable from ``init``."""
    t, p = _bits(label_true, goals), _bits(label_perceived, goals)
    start = (init, t[init], p[init])
    seen = {start}
    stack = [start]
    while stack:
        s, q, r = stack.pop()
        for d in succ[s]:
            v = (d, q | t[d], r | p[d])
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen)


def random_sparse(seed: int) -> dict:
    """About 12k states, branching at most 3, one AP at 3% in each labelling, ``F a``.

    Each labelling is drawn again until P1 wins ``F a`` from a share of the
    body within :data:`SPARSE_WIN_SHARE`.  That share sets the size of the
    deception target and of the pruned fragment; undrawn again, it ranged
    from 56% to 75% over twenty seeds.
    """
    rng = random.Random(f"random-sparse:{seed}")
    n = SPARSE_STATES - 4
    owner, succ = _random_body(rng, n, SPARSE_BRANCH)
    low, high = SPARSE_WIN_SHARE

    def labelling() -> list[frozenset]:
        while True:
            labels = [frozenset("a") if rng.random() < SPARSE_DENSITY else frozenset()
                      for _ in range(n)]
            win1 = win1_region(owner, succ, labels, ("a",))
            if low <= sum((s, 0) in win1 for s in range(n)) / n <= high:
                return labels

    label_true, label_perceived = labelling(), labelling()
    *arena, init = _add_gadget(rng, owner, succ, ("a",), label_true, label_perceived)
    return _document(*arena, init, ("a",), "F a")


def random_conj(seed: int) -> dict:
    """3k states over 8 APs with dense labels, ``F a & F b & F c``.

    Both labellings are drawn again until the number of reachable HTS states,
    as :func:`hts_reachable` counts them, lies within
    :data:`CONJ_HTS_REACHABLE`, under a tenth of S x Q x Q.
    """
    rng = random.Random(f"random-conj:{seed}")
    n = CONJ_STATES - 4
    owner, succ = _random_body(rng, n, CONJ_BRANCH)

    def labelling() -> list[frozenset]:
        out = []
        for _ in range(n):
            if rng.random() < CONJ_LABEL_P:
                out.append(frozenset(p for p in CONJ_AP if rng.random() < CONJ_PROP_P))
            else:
                out.append(frozenset())
        return out

    low, high = CONJ_HTS_REACHABLE
    while True:
        label_true, label_perceived = labelling(), labelling()
        *arena, init = _add_gadget(rng, owner, succ, CONJ_GOALS, label_true, label_perceived)
        if low <= hts_reachable(*arena, init, CONJ_GOALS) <= high:
            formula = " & ".join(f"F {g}" for g in CONJ_GOALS)
            return _document(*arena, init, CONJ_AP, formula)


def corridor(seed: int) -> dict:
    """A corridor of ``n`` = :data:`CORRIDOR_STATES` states alternating P1/P2,
    plus a trap sink.

    Position 0 is the initial state and position ``n - 1`` the goal, which
    carries the true ``a`` and loops on itself.  Every P2 position but the
    goal may also escape to the trap, which carries the perceived ``a`` only
    and loops on itself.  The seed only permutes the state ids.
    """
    n = CORRIDOR_STATES  # even, so that position n - 2 belongs to P1
    rng = random.Random(f"corridor:{seed}")
    ids = rng.sample(range(n + 1), n + 1)  # ids[i] for position i; ids[n] is the trap
    trap, goal = ids[n], ids[n - 1]
    owner = [0] * (n + 1)
    succ: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(n - 1):
        s = ids[i]
        owner[s] = 1 if i % 2 == 0 else 2
        succ[s].append(ids[i + 1])
        if owner[s] == 2:
            succ[s].append(trap)
    owner[goal], owner[trap] = 2, 1
    succ[goal].append(goal)
    succ[trap].append(trap)
    label_true = [frozenset("a") if s == goal else frozenset() for s in range(n + 1)]
    label_perceived = [frozenset("a") if s == trap else frozenset() for s in range(n + 1)]
    return _document(owner, succ, label_true, label_perceived, ids[0], ("a",), "F a")


GENERATORS = {
    "random-sparse": random_sparse,
    "random-conj": random_conj,
    "corridor": corridor,
}
