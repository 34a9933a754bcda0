"""The scalar construction kernels and the per-stage timers.

``repro._kernels`` holds the construction loops that cannot vectorise (the
trie-topology stack loop, Kasai's LCP recurrence) as plain Python over
numpy arrays; each is checked here against an independent oracle.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from construction_oracles import object_trie, preorder

from repro._kernels import collect_stages, engine, record_stage, stage_timer
from repro._kernels.lcp import kasai
from repro._kernels.trie import trie_topology


class TestEngineDetection:
    def test_engine_is_python(self):
        assert engine() == "python"


class TestTrieTopologyTwins:
    """The topology kernel against its twin, the object-trie oracle."""

    @pytest.mark.parametrize("seed", range(6))
    def test_python_and_array_twins_agree(self, seed):
        rng = random.Random(seed)
        keys = sorted(
            {
                tuple(rng.randrange(3) for _ in range(rng.randint(1, 9)))
                for _ in range(rng.randint(1, 50))
            }
        )
        lengths = np.array([len(key) for key in keys], dtype=np.int64)
        lcps = np.zeros(len(keys), dtype=np.int64)
        for index in range(1, len(keys)):
            previous, current = keys[index - 1], keys[index]
            common = 0
            while (
                common < len(previous)
                and common < len(current)
                and previous[common] == current[common]
            ):
                common += 1
            lcps[index] = common
        depth, parent_depth, edge_key, parent, lo, hi = trie_topology(lengths, lcps)
        root, node_count = object_trie(lengths, lcps, lambda key, offset: keys[key][offset])
        assert len(depth) == node_count
        # Same node set: compare the (depth, parent depth, key range) rows.
        kernel_nodes = sorted(zip(depth.tolist(), parent_depth.tolist(), lo.tolist(), hi.tolist()))
        oracle_nodes = sorted(
            (node.depth, node.parent_depth, node.lo, node.hi) for node in preorder(root)
        )
        assert kernel_nodes == oracle_nodes
        # Every non-root node hangs below a shallower parent whose range covers it.
        for node in range(1, node_count):
            assert depth[parent[node]] == parent_depth[node]
            assert lo[parent[node]] <= lo[node] and hi[node] <= hi[parent[node]]
            assert lo[node] <= edge_key[node] < hi[node]


class TestKasaiKernel:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_lcp(self, seed):
        rng = np.random.default_rng(seed)
        text = rng.integers(0, 4, size=int(rng.integers(2, 80))).astype(np.int64)
        sa = np.array(
            sorted(range(len(text)), key=lambda s: tuple(text[s:])), dtype=np.int64
        )
        ranks = np.empty(len(text), dtype=np.int64)
        ranks[sa] = np.arange(len(text))
        lcp = np.zeros(len(text), dtype=np.int64)
        kasai(text, sa, ranks, lcp)
        for rank in range(1, len(text)):
            a, b = text[sa[rank - 1] :], text[sa[rank] :]
            common = 0
            while common < len(a) and common < len(b) and a[common] == b[common]:
                common += 1
            assert lcp[rank] == common


class TestStageTimers:
    def test_record_and_collect(self):
        collect_stages()  # drain
        record_stage("trie", 0.25)
        record_stage("trie", 0.5)
        record_stage("sa", 1.0)
        stages = collect_stages()
        assert stages == {"trie": 0.75, "sa": 1.0}
        assert collect_stages() == {}  # reset drained the accumulator

    def test_stage_timer_context(self):
        collect_stages()
        with stage_timer("grid"):
            pass
        stages = collect_stages()
        assert set(stages) == {"grid"}
        assert stages["grid"] >= 0.0

    def test_build_records_stages(self):
        from repro.core.alphabet import Alphabet
        from repro.core.weighted_string import WeightedString
        from repro.indexes.registry import build_index

        rng = np.random.default_rng(2)
        matrix = rng.dirichlet(np.ones(4), size=200)
        source = WeightedString(matrix, Alphabet("ACGT"))
        collect_stages()
        build_index(source, 4.0, kind="MWST", ell=6)
        assert "trie" in collect_stages()
        build_index(source, 4.0, kind="WSA")
        assert "sa" in collect_stages()
