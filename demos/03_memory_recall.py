"""Inspect the two memories: cosine-attention recall and queue-guarded eviction.

The semantic side shows how clamp-normalized cosine weights aggregate
learnable pattern blocks. The episodic side walks the store through fill,
queue, forced recalls, and a frequency-ranked eviction, printing the state
after each update.
"""

import numpy as np

from memdiff import EpisodicStore, ParamStore, SemanticMemory

# -- semantic: convex aggregation over all blocks -------------------------
store = ParamStore()
blocks = store.register("blocks", np.array([
    [1.0, 0.0],    # "east" pattern
    [0.0, 1.0],    # "north" pattern
    [-1.0, 0.0],   # "west" pattern
]))
mem = SemanticMemory(blocks)

for query in ([2.0, 0.1], [1.0, 1.0], [-3.0, 0.2]):
    q = np.array([query])
    out, trace = mem.recall(q)
    scores = mem.scores(q)[0]
    print(f"query {query}: scores {np.round(scores, 3)} "
          f"-> weights {np.round(trace.weights[0], 3)} -> recall {np.round(out[0], 3)}")

# -- episodic: fill, queue, recall counting, eviction ----------------------
def show(store, label):
    ent = [f"p{int(r.pattern[0])}(f{r.freq})" for r in store.entries]
    que = [f"p{int(r.pattern[0])}(f{r.freq})" for r in store.queue]
    print(f"{label:28s} entries={ent} queue={que}")

print("\nepisodic store, capacity 4 + candidate queue 2, two patterns per update:")
epi = EpisodicStore(dim=2, capacity=4, queue_capacity=2, recall_top_k=1)
pat = {i: np.array([float(i), 1.0]) for i in range(1, 9)}

epi.update(np.stack([pat[1], pat[2]]))
show(epi, "fill 1 (p1 p2)")
epi.update(np.stack([pat[3], pat[4]]))
show(epi, "fill 2 (p3 p4)")
epi.update(np.stack([pat[5], pat[6]]))
show(epi, "steady (p5 p6 -> queue)")

# counted recalls decide who survives the next eviction
for target, times in ((2, 2), (3, 1), (5, 1)):
    for _ in range(times):
        _, trace = epi.recall(pat[target][None, :])
        epi.count(trace)
show(epi, "after forced recalls")

epi.update(np.stack([pat[7], pat[8]]))
show(epi, "evict by frequency")
print("\nfrequency ranked p2 > p3 = p5 > everyone at 0; the queue's p5 was")
print("promoted into the main slots, p1 kept the last slot on the age")
print("tie-break, p4 and p6 were evicted, and all counters reset to zero.")
