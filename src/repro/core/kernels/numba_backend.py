"""numba-JIT episode kernels: the compiled backend.

One ``episode`` call runs a whole QS-DNN episode — the sequential
epsilon-greedy rollout walk, scalar pricing (bitwise equal to
``CostEngine.layer_costs``: per-layer time gather plus incoming-edge
penalties accumulated in edge order), the online eq. (2) sweep, the
replay-ring pushes and the full replay pass — entirely inside compiled
code, operating in place on the flat-array state of
:class:`~repro.core.qtable.QTable` and the flat views of
:class:`~repro.engine.pricing.CostEngine`.

Kernel signatures group related arrays into tuples (numba compiles
tuple unpacking to zero-cost loads): ``qstate`` is the QTable's
``(data, row_max, visited, q_offsets, rm_offsets, num_actions)``,
``pricing`` the engine's flat views, ``ring`` the replay ring's five
parallel arrays.

Every kernel is compiled without ``fastmath``: numba then emits plain
IEEE-754 double operations in source order, which is what makes the
results bit-identical to the pure-Python reference backend (the same
arithmetic expressions, evaluated in the same sequence).

When numba is missing the ``njit`` decorator degrades to a no-op and
the kernels run as plain Python over the same flat arrays — far too
slow to dispatch to (``make_runner`` never selects this backend
without numba installed), but it lets the equivalence tests pin the
kernel *algorithms* against the reference backend bit-for-bit even in
environments without a JIT.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit
except ImportError:  # pragma: no cover - exercised in no-numba installs

    def njit(**_kwargs):
        def passthrough(func):
            return func

        return passthrough


_EMPTY_BOOL = np.empty(0, dtype=np.bool_)
_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)

#: Decision modes of the rollout walk.
_MODE_GREEDY = 0
_MODE_EXPLORE = 1
_MODE_MIXED = 2


@njit(cache=True)
def _rollout(qstate, q_parent, fvb, mode, explore, explored, choices, rows):
    data, row_max, visited, q_off, rm_off, n_act = qstate
    num_layers = q_parent.shape[0]
    for i in range(num_layers):
        parent = q_parent[i]
        row = 0 if parent < 0 else choices[parent]
        rows[i] = row
        if mode == _MODE_EXPLORE or (mode == _MODE_MIXED and explore[i]):
            choices[i] = explored[i]
            continue
        n = n_act[i]
        base = q_off[i] + row * n
        if fvb:
            best = -np.inf
            pick = -1
            for a in range(n):
                if visited[base + a] and data[base + a] > best:
                    best = data[base + a]
                    pick = a
            if pick < 0:
                best = data[base]
                pick = 0
                for a in range(1, n):
                    if data[base + a] > best:
                        best = data[base + a]
                        pick = a
            choices[i] = pick
        else:
            target = row_max[rm_off[i] + row]
            pick = 0
            for a in range(n):
                if data[base + a] == target:
                    pick = a
                    break
            choices[i] = pick


@njit(cache=True)
def _price(pricing, max_actions, choices, costs):
    times_flat, times_off, edge_flat, edge_off, edge_src, edge_dst = pricing
    num_layers = choices.shape[0]
    for i in range(num_layers):
        costs[i] = times_flat[times_off[i] + choices[i]]
    num_edges = edge_src.shape[0]
    # Consumer-charged penalties, accumulated in edge order — the same
    # element order np.add.at applies, hence bit-identical totals.
    for e in range(num_edges):
        src = choices[edge_src[e]]
        dst = choices[edge_dst[e]]
        costs[edge_dst[e]] += edge_flat[edge_off[e] + src * max_actions + dst]


@njit(cache=True)
def _apply_update(qstate, num_layers, layer, row, action, reward, next_row, eq2, fvb):
    data, row_max, visited, q_off, rm_off, n_act = qstate
    lr, keep, gamma = eq2
    n = n_act[layer]
    base = q_off[layer] + row * n
    idx = base + action
    old = data[idx]
    nxt = layer + 1
    if fvb:
        if nxt >= num_layers:
            boot = 0.0
        else:
            nbase = q_off[nxt] + next_row * n_act[nxt]
            best = -np.inf
            seen = False
            for a in range(n_act[nxt]):
                if visited[nbase + a]:
                    value = data[nbase + a]
                    if not seen or value > best:
                        best = value
                        seen = True
            if seen:
                boot = best
            else:
                best = data[nbase]
                for a in range(1, n_act[nxt]):
                    if data[nbase + a] > best:
                        best = data[nbase + a]
                boot = best
        target = reward + gamma * boot
        if visited[idx]:
            new = old * keep + lr * target
        else:
            new = target
        visited[idx] = True
    else:
        boot = 0.0 if nxt >= num_layers else row_max[rm_off[nxt] + next_row]
        new = old * keep + lr * (reward + gamma * boot)
    data[idx] = new
    rm_idx = rm_off[layer] + row
    cur = row_max[rm_idx]
    if new > cur:
        row_max[rm_idx] = new
    elif old == cur and new < old:
        best = data[base]
        for a in range(1, n):
            if data[base + a] > best:
                best = data[base + a]
        row_max[rm_idx] = best


@njit(cache=True)
def _learn(qstate, choices, rows, rewards, eq2, fvb, replay_on, ring, state, perm):
    num_layers = choices.shape[0]
    ring_layer, ring_row, ring_action, ring_next_row, ring_reward = ring
    capacity, fill, pos = state
    last = num_layers - 1
    for i in range(num_layers):
        row = rows[i]
        action = choices[i]
        reward = rewards[i]
        next_row = rows[i + 1] if i < last else 0
        _apply_update(qstate, num_layers, i, row, action, reward, next_row, eq2, fvb)
        if replay_on:
            ring_layer[pos] = i
            ring_row[pos] = row
            ring_action[pos] = action
            ring_next_row[pos] = next_row
            ring_reward[pos] = reward
            if fill < capacity:
                fill += 1
            pos = (pos + 1) % capacity
    if replay_on:
        for k in range(perm.shape[0]):
            t = perm[k]
            _apply_update(
                qstate,
                num_layers,
                ring_layer[t],
                ring_row[t],
                ring_action[t],
                ring_reward[t],
                ring_next_row[t],
                eq2,
                fvb,
            )
    return fill, pos


@njit(cache=True)
def _episode(
    qstate,
    q_parent,
    fvb,
    mode,
    explore,
    explored,
    choices,
    rows,
    pricing,
    max_actions,
    costs,
    rewards,
    eq2,
    replay_on,
    ring,
    state,
    perm,
):
    _rollout(qstate, q_parent, fvb, mode, explore, explored, choices, rows)
    _price(pricing, max_actions, choices, costs)
    num_layers = choices.shape[0]
    for i in range(num_layers):
        rewards[i] = -costs[i]
    return _learn(
        qstate, choices, rows, rewards, eq2, fvb, replay_on, ring, state, perm
    )


_warmed = False


def ensure_warm() -> None:
    """Compile (or load from cache) every kernel on tiny dummy state.

    Called once per process before the first timed episode so JIT
    compilation never lands inside a recorded search wall clock.
    """
    global _warmed
    if _warmed:
        return
    qstate = (
        np.zeros(2, dtype=np.float64),
        np.zeros(2, dtype=np.float64),
        np.zeros(2, dtype=np.bool_),
        np.array([0, 1], dtype=np.int64),
        np.array([0, 1], dtype=np.int64),
        np.array([1, 1], dtype=np.int64),
    )
    q_parent = np.array([-1, 0], dtype=np.int64)
    choices = np.zeros(2, dtype=np.int64)
    rows = np.zeros(2, dtype=np.int64)
    costs = np.zeros(2, dtype=np.float64)
    rewards = np.zeros(2, dtype=np.float64)
    pricing = (
        np.zeros(2, dtype=np.float64),
        np.array([0, 1], dtype=np.int64),
        _EMPTY_F64,
        _EMPTY_I64,
        _EMPTY_I64,
        _EMPTY_I64,
    )
    ring = tuple(np.zeros(4, dtype=np.int64) for _ in range(4)) + (
        np.zeros(4, dtype=np.float64),
    )
    perm = np.zeros(1, dtype=np.int64)
    eq2 = (0.05, 0.95, 0.9)
    for fvb in (False, True):
        _episode(
            qstate,
            q_parent,
            fvb,
            _MODE_GREEDY,
            _EMPTY_BOOL,
            _EMPTY_I64,
            choices,
            rows,
            pricing,
            1,
            costs,
            rewards,
            eq2,
            True,
            ring,
            (4, 0, 0),
            perm,
        )
        _rollout(
            qstate, q_parent, fvb, _MODE_GREEDY, _EMPTY_BOOL, _EMPTY_I64, choices, rows
        )
        _learn(
            qstate, choices, rows, rewards, eq2, fvb, False, ring, (4, 0, 0), _EMPTY_I64
        )
    _price(pricing, 1, choices, costs)
    qstate[0][:] = 0.0
    qstate[1][:] = 0.0
    _warmed = True


class NumbaRunner:
    """Episode runner over the QTable/CostEngine flat arrays, in place."""

    backend = "numba"

    def __init__(self, engine, qtable, q_parent, replay_enabled, replay_capacity):
        ensure_warm()
        self._qtable = qtable
        self._qstate = tuple(qtable.flat())
        views = engine.kernel_views()
        self._pricing = views[:6]
        self._max_actions = views[6]
        num_layers = len(qtable)
        self._num_layers = num_layers
        self._fvb = qtable.first_visit_bootstrap
        self._eq2 = (
            qtable.learning_rate,
            1.0 - qtable.learning_rate,
            qtable.discount,
        )
        self._q_parent = np.asarray(q_parent, dtype=np.int64)
        self._replay_on = replay_enabled
        self._capacity = replay_capacity
        self.choices = np.zeros(num_layers, dtype=np.int64)
        self._rows = np.zeros(num_layers, dtype=np.int64)
        self._costs = np.zeros(num_layers, dtype=np.float64)
        self._rewards = np.zeros(num_layers, dtype=np.float64)
        self._ring = tuple(
            np.zeros(replay_capacity, dtype=np.int64) for _ in range(4)
        ) + (np.zeros(replay_capacity, dtype=np.float64),)
        self._fill = 0
        self._pos = 0
        self._perm_scratch = np.empty(replay_capacity, dtype=np.int64)
        self._iota = np.arange(replay_capacity, dtype=np.int64)

    @staticmethod
    def _decision_args(explore, explored):
        if explored is None:
            return _MODE_GREEDY, _EMPTY_BOOL, _EMPTY_I64
        if explore is None:
            return _MODE_EXPLORE, _EMPTY_BOOL, explored
        return _MODE_MIXED, explore, explored

    def rollout(self, explore, explored) -> None:
        mode, flags, picks = self._decision_args(explore, explored)
        _rollout(
            self._qstate,
            self._q_parent,
            self._fvb,
            mode,
            flags,
            picks,
            self.choices,
            self._rows,
        )

    def rollout_price(self, explore, explored) -> np.ndarray:
        self.rollout(explore, explored)
        _price(self._pricing, self._max_actions, self.choices, self._costs)
        return self._costs

    def draw_replay_order(self, rng) -> np.ndarray | None:
        """The replay order for the ring as it will stand after this
        episode's pushes (None when replay is disabled).

        Shuffles the preallocated scratch in place; the draw consumes
        exactly the stream of ``rng.permutation(n)``.  The view is
        valid until the next call.
        """
        if not self._replay_on:
            return None
        stored = min(self._fill + self._num_layers, self._capacity)
        order = self._perm_scratch[:stored]
        order[:] = self._iota[:stored]
        rng.shuffle(order)
        return order

    def learn(self, rewards: np.ndarray, perm) -> None:
        self._fill, self._pos = _learn(
            self._qstate,
            self.choices,
            self._rows,
            rewards,
            self._eq2,
            self._fvb,
            self._replay_on,
            self._ring,
            (self._capacity, self._fill, self._pos),
            perm if perm is not None else _EMPTY_I64,
        )

    def episode(self, explore, explored, perm) -> np.ndarray:
        mode, flags, picks = self._decision_args(explore, explored)
        self._fill, self._pos = _episode(
            self._qstate,
            self._q_parent,
            self._fvb,
            mode,
            flags,
            picks,
            self.choices,
            self._rows,
            self._pricing,
            self._max_actions,
            self._costs,
            self._rewards,
            self._eq2,
            self._replay_on,
            self._ring,
            (self._capacity, self._fill, self._pos),
            perm if perm is not None else _EMPTY_I64,
        )
        return self._costs

    def snapshot(self) -> np.ndarray:
        """A copy of the current episode's choices."""
        return self.choices.copy()

    def finalize(self) -> None:
        """No-op: the kernels mutate the QTable arrays in place."""

    def export_ring(self) -> dict | None:
        """The replay ring as canonical checkpoint rows (slot order).

        Rows are ``(layer, row, action, next_row, reward)`` for slots
        ``0 .. fill-1``; slots past ``fill`` are never read before
        being overwritten, so they need no capture.  None when replay
        is disabled.
        """
        if not self._replay_on:
            return None
        layer, row, action, next_row, reward = self._ring
        rows = [
            [
                int(layer[t]),
                int(row[t]),
                int(action[t]),
                int(next_row[t]),
                float(reward[t]),
            ]
            for t in range(self._fill)
        ]
        return {"rows": rows, "fill": int(self._fill), "pos": int(self._pos)}

    def import_ring(self, ring: dict | None) -> None:
        """Restore the ring from canonical checkpoint rows."""
        if ring is None or not self._replay_on:
            return
        layer, row, action, next_row, reward = self._ring
        for t, (i, r, a, nr, rw) in enumerate(ring["rows"]):
            layer[t] = i
            row[t] = r
            action[t] = a
            next_row[t] = nr
            reward[t] = rw
        self._fill = int(ring["fill"])
        self._pos = int(ring["pos"])
