"""The algorithms running on real graphs, measured against the exact theory.

The whole point of the neighbourhood-graph analysis is that the expected
cut weight does not depend on the graph. This script runs the uniform,
three-cut, and threshold algorithms on three very different triangle-free
3-regular graphs and shows the means agreeing with each other and with the
exact values 1/2, 5/8, and 11/16. It then demonstrates the two relaxations:
virtual neighbours for irregular graphs, and the per-edge split when
triangles are present.
"""

from localcut import (
    ShearerCut,
    ThresholdCut,
    UniformCut,
    VirtualNeighbourCut,
    complete_bipartite,
    from_edges,
    monte_carlo,
    petersen_graph,
    random_bipartite_regular,
)

TRIALS = 40_000
SEED = 0xC0FFEE

graphs = {
    "K_{3,3}": complete_bipartite(3),
    "Petersen": petersen_graph(),
    "random bipartite 50+50": random_bipartite_regular(50, 3, seed=SEED),
}
algorithms = {
    "uniform (exact 0.5)": UniformCut(),
    "three-cut (exact 0.625)": ShearerCut(),
    "threshold tau=3 (exact 0.6875)": ThresholdCut(3),
}

print(f"{TRIALS} trials per cell, seed {SEED:#x}; each entry is mean (stderr)")
width = max(len(n) for n in graphs)
header = " ".join(f"{name:>31}" for name in algorithms)
print(f"{'graph':<{width}} {header}")
for gname, g in graphs.items():
    cells = []
    for alg in algorithms.values():
        st = monte_carlo(g, alg, TRIALS, SEED)
        cells.append(f"{st.mean:.4f} ({st.stderr:.4f})".rjust(31))
    print(f"{gname:<{width}} {''.join(cells)}")

print()
print("virtual neighbours: a star's leaves have degree 1, so each simulates")
print("two extra neighbours and the per-edge guarantee 11/16 still applies:")
star = from_edges(4, 3, [(0, 1), (0, 2), (0, 3)])
st = monte_carlo(star, VirtualNeighbourCut(3), TRIALS, SEED, per_edge=True)
for (u, v), count in st.per_edge.items():
    print(f"  edge ({u},{v}): frequency {count / st.trials:.4f}")

print()
print("triangles: on a triangle with a pendant per corner, only the clean")
print("edges carry the guarantee; the flagged ones are reported, not promised:")
tri = from_edges(6, 3, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
st = monte_carlo(tri, VirtualNeighbourCut(3), TRIALS, SEED)
print(f"  clean-edge mean   {st.clean_edge_mean:.4f}  (exact 11/16 = 0.6875)")
print(f"  flagged-edge mean {st.flagged_edge_mean:.4f}  (no guarantee)")
print(f"  overall mean      {st.mean:.4f}  >= (1 - {st.flagged_edge_fraction})"
      f" * 11/16 = {(1 - st.flagged_edge_fraction) * 11 / 16:.4f}")
