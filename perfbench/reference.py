"""Seeded input generators and an independent reference semantics.

Formulas are nested tuples, printed into the library's concrete syntax by
``text``:

    ("var", name) | ("not", a) | ("and", a, b) | ("or", a, b) | ("imp", a, b)
    | ("X", a) | ("G", a) | ("F", a) | ("box", a) | ("dia", a)
    | ("tangle", (a, b, ...))

``RefModel`` evaluates them with algorithms that share no code with the
library: a tangle is the union of the up-sets of the clusters meeting every
member (the cluster characterisation of the tangled closure), and ``G a`` is
the intersection of the iterated preimages of ``a``, taken until the
preimages repeat.  The library computes both as greatest fixpoints instead.
"""

from __future__ import annotations

import random

VARS = ("p", "q", "r")


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Formulas.

# Operator mixes for random_formula: (leaf probability, then the unary,
# binary and tangle shares of inner nodes with the operators to draw from).
# MIXED draws every operator alike; KERNEL favours G, F and tangles over
# dense Boolean bodies, which keeps the fixpoint kernels iterating.
MIXED = (0.15, (0.5, ("not", "X", "G", "F", "box", "dia")),
         (0.3, ("and", "or", "imp")), 0.2)
KERNEL = (0.1, (0.5, ("G", "F", "G", "F", "box", "dia", "X", "not")),
          (0.25, ("or", "imp", "and")), 0.25)
_PREFIX = {"not": "~", "X": "X ", "G": "G ", "F": "F ", "box": "[]", "dia": "<>"}
_INFIX = {"and": " & ", "or": " | ", "imp": " -> "}


def text(f: tuple) -> str:
    op = f[0]
    if op == "var":
        return f[1]
    if op in _PREFIX:
        return f"{_PREFIX[op]}({text(f[1])})"
    if op in _INFIX:
        return f"({text(f[1])}{_INFIX[op]}{text(f[2])})"
    return "<>{" + ", ".join(text(m) for m in f[1]) + "}"


def random_formula(rng: random.Random, vars_: tuple[str, ...], depth: int,
                   mix: tuple = MIXED) -> tuple:
    leaf, (unary, unary_ops), (binary, binary_ops), _tangle = mix
    if depth == 0 or rng.random() < leaf:
        return ("var", rng.choice(vars_))
    k = rng.random()
    if k < unary:
        return (rng.choice(unary_ops), random_formula(rng, vars_, depth - 1, mix))
    if k < unary + binary:
        return (rng.choice(binary_ops), random_formula(rng, vars_, depth - 1, mix),
                random_formula(rng, vars_, depth - 1, mix))
    members = tuple(random_formula(rng, vars_, depth - 1, mix) for _ in range(rng.randint(2, 3)))
    return ("tangle", members)


def subterms(f: tuple) -> list[tuple]:
    """Distinct subterms, children before parents."""
    out: list[tuple] = []
    seen: set[tuple] = set()

    def walk(g: tuple) -> None:
        if g in seen:
            return
        if g[0] == "tangle":
            for m in g[1]:
                walk(m)
        elif g[0] != "var":
            for sub in g[1:]:
                walk(sub)
        seen.add(g)
        out.append(g)

    walk(f)
    return out


def conjunction(parts: list[tuple]) -> tuple:
    acc = parts[0]
    for p in parts[1:]:
        acc = ("and", acc, p)
    return acc


# ---------------------------------------------------------------------------
# Models.

class RefModel:
    """A finite dynamic preorder model over world indices 0..n-1.

    ``clusters`` lists the member masks of the clusters and ``cluster_down``
    the (reflexive, transitive) mask of worlds below each cluster; ``f`` is
    the map as a list of indices and ``val`` a mask per variable.
    """

    def __init__(self, names: list[str], clusters: list[int], cluster_down: list[int],
                 f: list[int], val: dict[str, int], edges: list[tuple[int, int]]):
        self.names = names
        self.f = f
        self.val = val
        self.edges = edges
        self.full = (1 << len(names)) - 1
        # a cluster's closure is the union of the clusters whose down-set holds it
        self.clusters = [
            (c, sum(m for m, d in zip(clusters, cluster_down) if d & c))
            for c in clusters
        ]
        self.nbytes = (len(names) + 7) // 8
        self.pre = [0] * (8 * self.nbytes)
        for x, y in enumerate(f):
            self.pre[y] |= 1 << x
        self._byte_pre: dict[int, list[int]] = {}
        self._memo: dict[tuple, int] = {}

    def to_json(self) -> dict:
        names = self.names
        return {
            "worlds": list(names),
            "order": [[names[a], names[b]] for a, b in self.edges],
            "f": {names[i]: names[j] for i, j in enumerate(self.f)},
            "val": {v: [names[i] for i in bits(m)] for v, m in sorted(self.val.items())},
        }

    def worlds_of(self, mask: int) -> list[str]:
        return sorted(self.names[i] for i in bits(mask))

    def preimage(self, mask: int) -> int:
        """Union of the preimages of the worlds in ``mask``, a byte at a time."""
        out = 0
        for i, byte in enumerate(mask.to_bytes(self.nbytes, "little")):
            if byte:
                table = self._byte_pre.get(i) or self._byte_table(i)
                out |= table[byte]
        return out

    def _byte_table(self, i: int) -> list[int]:
        table = [0] * 256
        for b in range(1, 256):
            low = b & -b
            table[b] = table[b ^ low] | self.pre[8 * i + low.bit_length() - 1]
        self._byte_pre[i] = table
        return table

    def tangle(self, masks: list[int]) -> int:
        out = 0
        for cluster, upset in self.clusters:
            if all(cluster & m for m in masks):
                out |= upset
        return out

    def hence(self, mask: int) -> int:
        acc = self.full
        seen: set[int] = set()
        while acc and mask not in seen:
            seen.add(mask)
            acc &= mask
            mask = self.preimage(mask)
        return acc

    def eval(self, f: tuple) -> int:
        hit = self._memo.get(f)
        if hit is not None:
            return hit
        op = f[0]
        full = self.full
        if op == "var":
            out = self.val.get(f[1], 0)
        elif op == "not":
            out = full ^ self.eval(f[1])
        elif op == "and":
            out = self.eval(f[1]) & self.eval(f[2])
        elif op == "or":
            out = self.eval(f[1]) | self.eval(f[2])
        elif op == "imp":
            out = (full ^ self.eval(f[1])) | self.eval(f[2])
        elif op == "X":
            out = self.preimage(self.eval(f[1]))
        elif op == "G":
            out = self.hence(self.eval(f[1]))
        elif op == "F":
            out = full ^ self.hence(full ^ self.eval(f[1]))
        elif op == "dia":
            out = self.tangle([self.eval(f[1])])
        elif op == "box":
            out = full ^ self.tangle([full ^ self.eval(f[1])])
        elif op == "tangle":
            out = self.tangle([self.eval(m) for m in f[1]])
        else:
            raise ValueError(f"unknown operator {op!r}")
        self._memo[f] = out
        return out


def _closed(down: list[int]) -> list[int]:
    down = list(down)
    for k in range(len(down)):
        for i in range(len(down)):
            if down[i] >> k & 1:
                down[i] |= down[k]
    return down


def _monotone(down: list[int], f: list[int]) -> bool:
    return all(down[f[w]] >> f[v] & 1 for w in range(len(f)) for v in bits(down[w]))


def layered_model(rng: random.Random, n: int, vars_: tuple[str, ...] = VARS) -> RefModel:
    """Clusters of 1-6 worlds in layers of width 1 (a chain) up to 3 (a DAG).

    Cluster 0 of every layer lies above cluster 0 of the layer below (the
    spine); other clusters lie above a random non-empty set of clusters of
    the layer below.  The map sends each layer into the next layer's spine
    cluster and rotates the single top cluster, so it is monotone and every
    orbit climbs the whole height of the model before it cycles.  World
    names are shuffled, so index order says nothing about the order.
    """
    max_width = rng.choice((1, 3))
    sizes: list[int] = []
    while sum(sizes) < n:
        sizes.append(min(rng.randint(1, 6), n - sum(sizes)))
    layers: list[list[int]] = []  # cluster ids per layer, the top layer last
    c = 0
    while c < len(sizes) - 1:
        w = min(rng.randint(1, max_width), len(sizes) - 1 - c)
        layers.append(list(range(c, c + w)))
        c += w
    layers.append([len(sizes) - 1])
    labels = [f"w{i:03d}" for i in range(n)]
    rng.shuffle(labels)
    names = sorted(labels)
    index = {w: i for i, w in enumerate(names)}
    members: list[list[int]] = []
    for s in sizes:
        start = sum(len(m) for m in members)
        members.append([index[w] for w in labels[start:start + s]])
    masks = [sum(1 << i for i in ws) for ws in members]
    cluster_down = list(masks)
    edges: list[tuple[int, int]] = []
    for ws in members:
        if len(ws) > 1:
            edges += list(zip(ws, ws[1:] + ws[:1]))
    for li in range(1, len(layers)):
        below = layers[li - 1]
        for k, cl in enumerate(layers[li]):
            if k == 0:
                lower = [below[0]] + [d for d in below[1:] if rng.random() < 0.5]
            else:
                lower = [d for d in below if rng.random() < 0.6] or [rng.choice(below)]
            for d in lower:
                edges.append((members[d][0], members[cl][0]))
                cluster_down[cl] |= cluster_down[d]
    f = [0] * n
    for li, layer in enumerate(layers):
        target = members[layers[min(li + 1, len(layers) - 1)][0]]
        for cl in layer:
            shift = rng.randrange(len(target)) if li + 1 < len(layers) else 1
            for j, w in enumerate(members[cl]):
                f[w] = target[(j + shift) % len(target)]
    density = rng.uniform(0.25, 0.55)
    val = {v: sum(1 << i for i in range(n) if rng.random() < density) for v in vars_}
    return RefModel(names, masks, cluster_down, f, val, edges)


def _from_down(names: list[str], down: list[int], f: list[int], val: dict[str, int],
               edges: list[tuple[int, int]]) -> RefModel:
    clusters, cluster_down = [], []
    for i in range(len(names)):
        c = sum(1 << j for j in bits(down[i]) if down[j] >> i & 1)
        if c not in clusters:
            clusters.append(c)
            cluster_down.append(down[i])
    return RefModel(names, clusters, cluster_down, f, val, edges)


def tiny_model(rng: random.Random, n: int, vars_: tuple[str, ...]) -> RefModel:
    """Random preorder on n worlds with a random monotone map."""
    names = [f"u{i}" for i in range(n)]
    edges = [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < 0.4]
    down = [1 << i for i in range(n)]
    for a, b in edges:
        down[b] |= 1 << a
    down = _closed(down)
    while True:
        f = [rng.randrange(n) for _ in range(n)]
        if _monotone(down, f):
            break
    return _from_down(names, down, f, {v: rng.randrange(1 << n) for v in vars_}, edges)


def model_from_json(data: dict) -> RefModel:
    """A small model in the library's JSON format (worlds are re-sorted)."""
    names = sorted(data["worlds"])
    index = {w: i for i, w in enumerate(names)}
    edges = [(index[a], index[b]) for a, b in data.get("order", [])]
    down = [1 << i for i in range(len(names))]
    for a, b in edges:
        down[b] |= 1 << a
    f = [index[data["f"][w]] for w in names]
    val = {v: sum(1 << index[w] for w in ws) for v, ws in data.get("val", {}).items()}
    return _from_down(names, _closed(down), f, val, edges)
