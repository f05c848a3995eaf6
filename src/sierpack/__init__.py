"""Packing colorings of Sierpinski-type graphs.

Modules: graph_core (graphs, BFS, embeddings, file formats), sierpinski
(graph families), packing (verifier and exact solver), certify (tiling
certificates and bound sequences), search (stochastic block search),
reproduce (the headline checks as one table, and its runner), cli
(argument parsing).
"""

__version__ = "0.1.0"
