"""Trie-topology kernel: compacted-trie node arrays from lengths + LCPs.

Given the sorted key lengths and the adjacent-LCP array, the stack loop below
emits the full node table of the compacted trie, numbered in creation order
(so sibling ids ascend with their first letter, since keys arrive sorted).
Letters are *not* consumed here: the first letter of each edge is resolved
afterwards (vectorised when a bulk accessor exists), which is what makes the
topology pass a pure int kernel.

Arrays produced (length = node count, node 0 is the root):

``depth``
    string depth of the node;
``parent_depth``
    string depth of its parent (edge spells depths ``[parent_depth, depth)``);
``edge_key``
    a key index whose letters spell the edge (root: 0, or -1 when empty);
``parent``
    parent node id (-1 for the root);
``lo`` / ``hi``
    half-open range of key indices in the subtree.

Terminal keys are implicit: key ``i`` ends exactly at the unique node ``v``
with ``lo[v] <= i < hi[v]`` and ``depth[v] == lengths[i]``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["trie_topology"]


def trie_topology(lengths, lcps):
    """List-backed topology builder (lists beat numpy scalar indexing here)."""
    length_list = [int(value) for value in lengths]
    lcp_list = [int(value) for value in lcps]
    count = len(length_list)
    depth = [0]
    parent_depth = [0]
    edge_key = [0 if count else -1]
    parent = [-1]
    lo = [0]
    hi = [0]
    stack = [0]
    for index in range(count):
        length = length_list[index]
        limit = 0 if index == 0 else lcp_list[index]
        if limit > length:
            limit = length
        last = -1
        while depth[stack[-1]] > limit:
            last = stack.pop()
            hi[last] = index
        attach = stack[-1]
        if depth[attach] < limit:
            # Split the edge entering `last` at string depth `limit`.
            middle = len(depth)
            depth.append(limit)
            parent_depth.append(depth[attach])
            edge_key.append(edge_key[last])
            parent.append(attach)
            lo.append(lo[last])
            hi.append(0)
            parent[last] = middle
            parent_depth[last] = limit
            stack.append(middle)
            attach = middle
        if length > depth[attach]:
            leaf = len(depth)
            depth.append(length)
            parent_depth.append(depth[attach])
            edge_key.append(index)
            parent.append(attach)
            lo.append(index)
            hi.append(0)
            stack.append(leaf)
    for node in stack:
        hi[node] = count
    return (
        np.asarray(depth, dtype=np.int64),
        np.asarray(parent_depth, dtype=np.int64),
        np.asarray(edge_key, dtype=np.int64),
        np.asarray(parent, dtype=np.int64),
        np.asarray(lo, dtype=np.int64),
        np.asarray(hi, dtype=np.int64),
    )
