"""One history register per path: lane-wise hashing, sharing and the
cached push layout."""

import random

import pytest

from repro.branch.confidence import tage_conf_is_h2p, ucp_conf_is_h2p
from repro.branch.ittage import ITTAGE, ITTAGEConfig
from repro.branch.perceptron import HashedPerceptron
from repro.branch.sc import StatisticalCorrector
from repro.branch.tage import TageConfig
from repro.branch.tage_sc_l import TageScL, TageScLConfig
from repro.common import history as history_module
from repro.common.history import FoldedHistory, PathHistory
from repro.core.configs import SimConfig
from repro.isa.instruction import BranchClass
from repro.workloads import load_workload

#: (TAGE-SC-L, ITTAGE) geometry pairs: the baseline and UCP's Alt-BP/Alt-Ind.
PAIRS = {
    "main": (SimConfig().branch_predictor, SimConfig().indirect_predictor),
    "alt": (TageScLConfig.small(), ITTAGEConfig.small()),
}

COND = int(BranchClass.COND_DIRECT)
INDIRECTS = (int(BranchClass.CALL_INDIRECT), int(BranchClass.INDIRECT))


def shared_pair(name):
    cond_config, indirect_config = PAIRS[name]
    cond = TageScL(cond_config)
    return cond, ITTAGE(indirect_config, share=cond.histories)


class PerTableReference:
    """One FoldedHistory per table hash input, and the per-table index and
    tag formulas over them, independent of any lane layout."""

    def __init__(self, cond, indirect):
        self.tage, self.sc, self.ittage = cond.tage.config, cond.sc, indirect.config
        self.bits: list[int] = []  # newest first
        self.path = PathHistory(bits=16)
        tage_lengths = self.tage.history_lengths()
        ittage_lengths = self.ittage.history_lengths()
        self.folds = {
            "tage_index": [FoldedHistory(n, self.tage.table_size_bits) for n in tage_lengths],
            "tage_a": [FoldedHistory(n, self.tage.tag_bits) for n in tage_lengths],
            "tage_b": [FoldedHistory(n, max(1, self.tage.tag_bits - 1)) for n in tage_lengths],
            "sc": [FoldedHistory(n, self.sc.size_bits) for n in self.sc.history_lengths if n],
            "ittage_index": [
                FoldedHistory(n, self.ittage.table_size_bits) for n in ittage_lengths
            ],
            "ittage_tag": [FoldedHistory(n, self.ittage.tag_bits) for n in ittage_lengths],
        }

    def push(self, pc, taken):
        for folds in self.folds.values():
            for fold in folds:
                out_bit = self.bits[fold.length - 1] if len(self.bits) >= fold.length else 0
                fold.update(int(taken), out_bit)
        self.bits.insert(0, int(taken))
        self.path.push(pc)

    def _index(self, pc, folds, size_bits):
        mask = (1 << size_bits) - 1
        pc_bits, path = pc >> 2, self.path.value & mask
        return tuple(
            (pc_bits ^ (pc_bits >> (t + 2)) ^ fold.value ^ (path >> (t & 3))) & mask
            for t, fold in enumerate(folds)
        )

    def tage_hashes(self, pc):
        tag_mask = (1 << self.tage.tag_bits) - 1
        pairs = zip(self.folds["tage_a"], self.folds["tage_b"])
        return self._index(pc, self.folds["tage_index"], self.tage.table_size_bits), tuple(
            ((pc >> 2) ^ a.value ^ (b.value << 1)) & tag_mask for a, b in pairs
        )

    def sc_indices(self, pc):
        base, mask = pc >> 2, self.sc.size - 1
        folds = iter(self.folds["sc"])
        return tuple(
            (base ^ (base >> (t + 3)) ^ (next(folds).value if n else 0)) & mask
            for t, n in enumerate(self.sc.history_lengths)
        )

    def ittage_hashes(self, pc):
        tag_mask = (1 << self.ittage.tag_bits) - 1
        return self._index(pc, self.folds["ittage_index"], self.ittage.table_size_bits), tuple(
            ((pc >> 2) ^ fold.value) & tag_mask for fold in self.folds["ittage_tag"]
        )


class TestLaneHashing:
    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_lanes_equal_per_table_formulas(self, name):
        cond, indirect = shared_pair(name)
        tage, sc = cond.tage, cond.sc
        alt = cond.make_histories()
        references = {key: PerTableReference(cond, indirect) for key in (None, "alt")}
        rng = random.Random(7)
        for _ in range(400):
            pc = 0x40_0000 + 4 * rng.randrange(1 << 14)
            taken = rng.random() < 0.6
            for key, register in ((None, None), ("alt", alt)):
                reference = references[key]
                histories = register or cond.histories
                pred = tage.predict(pc, register)
                assert (pred.indices, pred.tags) == reference.tage_hashes(pc)
                tables = range(tage.config.n_tables)
                assert list(pred.indices) == [tage._index(pc, t, histories) for t in tables]
                assert list(pred.tags) == [tage._tag(pc, t, histories) for t in tables]
                vote = sc.predict(pc, taken, register and register.direction)
                assert vote.sc_indices == reference.sc_indices(pc)
                assert list(vote.sc_indices) == sc._indices(pc, histories.direction)
                target = indirect.predict(pc, register)
                assert (target.indices, target.tags) == reference.ittage_hashes(pc)
                tables = range(indirect.config.n_tables)
                assert list(target.indices) == [indirect._index(pc, t, histories) for t in tables]
                assert list(target.tags) == [indirect._tag(pc, t, histories) for t in tables]
            cond.update(cond.predict(pc), taken)
            references[None].push(pc, taken)
            alt.push(pc, not taken)
            references["alt"].push(pc, not taken)

    def test_perceptron_lanes_equal_per_table_formula(self):
        perceptron = HashedPerceptron()
        rng = random.Random(3)
        for _ in range(300):
            pc = 0x8000 + 4 * rng.randrange(4096)
            pred = perceptron.predict(pc)
            base = pc >> 2
            assert list(pred.indices) == [
                (base ^ (base >> (t + 2)) ^ perceptron.history.lane(t)) & perceptron._mask
                for t in range(perceptron.config.n_tables)
            ]
            perceptron.update(pred, rng.random() < 0.5)


class TestSharedRegister:
    @pytest.mark.parametrize("workload", ["int_02", "dc_interp_01"])
    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_shared_equals_three_private_registers(self, name, workload):
        cond_config, indirect_config = PAIRS[name]
        shared, shared_indirect = shared_pair(name)
        # The same predictors with TAGE, the corrector and ITTAGE each on
        # a register of its own, pushed in lock-step.
        private = TageScL(cond_config)
        private.sc = StatisticalCorrector(
            size_bits=cond_config.sc_size_bits, use_threshold=cond_config.sc_use_threshold
        )
        private_indirect = ITTAGE(indirect_config)

        def push_private(pc, taken):
            private.sc.push_history(taken)
            private_indirect.push_history(pc, taken)

        trace = load_workload(workload, 4_000).trace
        pcs, classes, takens, targets, _next_pcs = trace.list_columns()
        # record_stream's order: conditional predict+update (one push), or
        # unconditional push then the indirect predict+update.
        for i in trace.branch_classes.nonzero()[0].tolist():
            pc, branch_class = pcs[i], classes[i]
            if branch_class == COND:
                a, b = shared.predict(pc), private.predict(pc)
                assert (a.taken, tage_conf_is_h2p(a), ucp_conf_is_h2p(a)) == (
                    b.taken,
                    tage_conf_is_h2p(b),
                    ucp_conf_is_h2p(b),
                ), (workload, i)
                shared.update(a, takens[i])
                private.update(b, takens[i])
                push_private(pc, takens[i])
                continue
            shared.push_unconditional(pc)
            private.push_unconditional(pc)
            push_private(pc, True)
            if branch_class in INDIRECTS:
                a, b = shared_indirect.predict(pc), private_indirect.predict(pc)
                assert a.target == b.target, (workload, i)
                shared_indirect.update(a, targets[i])
                private_indirect.update(b, targets[i])


class TestLayoutCache:
    def test_two_predictors_reuse_one_out_bit_table(self):
        first = TageScL(SimConfig().branch_predictor)
        second = TageScL(SimConfig().branch_predictor)
        for bp in (first, second):
            bp.push_unconditional(0x1000)
        a, b = first.histories.direction._layout, second.histories.direction._layout
        assert a is not None and a is b
        assert a.outs is b.outs

    def test_registering_folds_builds_no_layout(self, monkeypatch):
        monkeypatch.setattr(history_module, "_LAYOUTS", {})
        config = SimConfig()
        bp = TageScL(config.branch_predictor)
        ITTAGE(config.indirect_predictor, share=bp.histories)
        assert history_module._LAYOUTS == {}
        bp.push_unconditional(0x1000)
        assert list(history_module._LAYOUTS) == [bp.histories.direction.geometry]

    def test_shared_register_capacity_guard(self):
        bp = TageScL(TageScLConfig(tage=TageConfig(max_history=40)))
        with pytest.raises(ValueError):
            ITTAGE(ITTAGEConfig(max_history=160), share=bp.histories)
