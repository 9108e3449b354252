"""Datasets, the anomaly split, and structural node encodings.

Builds a tiny benchmark-layout dataset on disk, parses it back, shows how
the one-class split is drawn, and prints the random-walk return encoding
that stands in for node attributes on label-free graphs.
"""

import os
import tempfile

import numpy as np

from flowgad.data import (Graph, GraphSet, make_anomaly_split,
                          parse_tudataset, write_tudataset)
from flowgad.encoding import rw_structural_encoding
from flowgad.pipeline import ExperimentConfig, precompute_inputs

# Two graphs in the standard on-disk layout: a triangle and a 2-path.
tri = np.zeros((3, 3))
tri[[0, 1, 2], [1, 2, 0]] = 1.0
tri = tri + tri.T
path = np.zeros((2, 2))
path[0, 1] = path[1, 0] = 1.0

gs = GraphSet(name="DEMO", graphs=[
    Graph(n=3, adjacency=tri, features=np.zeros((3, 0)), label=0),
    Graph(n=2, adjacency=path, features=np.zeros((2, 0)), label=1),
], label_vocabulary=(0, 1))

with tempfile.TemporaryDirectory() as tmp:
    write_tudataset(gs, os.path.join(tmp, "DEMO"))
    print("files:", sorted(os.listdir(os.path.join(tmp, "DEMO"))))
    back = parse_tudataset(os.path.join(tmp, "DEMO"), "DEMO")
    print("round-trip graphs:", len(back), "labels:",
          [g.label for g in back.graphs])

# Training sees one class only. The split keeps a fraction of the normal
# graphs aside and routes every other label to the scored test pool.
big = GraphSet(name="BIGGER", graphs=[
    Graph(n=2, adjacency=path, features=np.zeros((2, 0)),
          label=0 if i < 8 else 1)
    for i in range(12)], label_vocabulary=(0, 1))
split = make_anomaly_split(big, normal_class=0, test_fraction=0.25, seed=3)
print("\ntrain indices:", split.train)
print("test (index, anomalous):", split.test)

# Structural encoding: column t holds each node's probability of being
# back home after t random-walk steps. On a triangle every node looks the
# same; feature width is the walk length, independent of graph size.
enc = rw_structural_encoding(gs.graphs[0].adjacency, k_se=4)
print("\ntriangle return probabilities:\n", enc)
# A stack of same-size graphs is encoded in one call, slice by slice.
stack = np.stack([gs.graphs[0].adjacency, np.ones((3, 3)) - np.eye(3)])
print("a stack of two triangles encodes alike:",
      np.array_equal(rw_structural_encoding(stack, k_se=4)[1], enc))
inputs = precompute_inputs(gs, ExperimentConfig(k_se=4), [0, 1])
print("initial features picked up the encoding alone:",
      inputs[0].x_init.shape)
