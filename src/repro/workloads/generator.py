"""Random program generation driven by a :class:`WorkloadConfig`.

The configuration exposes the two axes the paper's phenomena depend on:

* **static code footprint** — ``n_functions`` × blocks × mean block size
  instructions, to be compared against the µ-op cache reach (4Kops ≈ 16KB
  of 4-byte instructions) and the 32KB L1I;
* **branch predictability mixture** — fractions of biased / patterned /
  history-correlated / hard-to-predict conditionals, plus loop structure,
  which set the conditional MPKI and the population of H2P branches UCP
  triggers on.

Programs are shaped like request-serving datacenter code: the entry
function is a *dispatcher* loop that indirectly calls into a level-
structured call DAG (``call_depth_levels`` deep).  Each dispatch walks a
call tree of a few hundred instructions, so a trace of tens of kilo-
instructions sweeps across a large fraction of the static code — the
over-subscription regime of paper Section III.  Function popularity follows
a Zipf-like skew (``dispatch_skew``): hot request handlers re-hit quickly,
the long tail thrashes the µ-op cache.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import accumulate

from repro.isa.trace import Trace
from repro.workloads.behaviors import (
    Bernoulli,
    BranchBehavior,
    GlobalCorrelated,
    LoopTrip,
    Pattern,
)
from repro.workloads.cfg import BasicBlock, Function, Program, TerminatorKind

#: The forward-branch behaviour kinds, in ``_forward_mixes`` order.
_FORWARD_KINDS = ("biased", "pattern", "correlated", "h2p")

#: Base of the synthetic code address space.
CODE_BASE = 0x0010_0000


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the synthetic program generator (all deterministic per seed)."""

    name: str = "synthetic"
    seed: int = 1
    n_instructions: int = 50_000

    # Footprint shape.
    n_functions: int = 24
    blocks_per_function: int = 16
    block_size_mean: float = 6.0
    call_depth_levels: int = 4
    dispatch_skew: float = 0.8  # Zipf exponent for handler popularity

    # Terminator mixture over non-final blocks (weights, renormalised).
    cond_weight: float = 0.55
    call_weight: float = 0.12
    jump_weight: float = 0.08
    indirect_weight: float = 0.03
    fallthrough_weight: float = 0.22

    # Among conditionals: chance the branch is a loop back edge.
    loop_fraction: float = 0.12
    loop_trip_min: int = 2
    loop_trip_max: int = 8
    loop_variable_fraction: float = 0.4  # loops whose trip count varies

    # Behaviour mixture for forward (non-loop) conditionals (renormalised).
    biased_fraction: float = 0.55
    pattern_fraction: float = 0.15
    correlated_fraction: float = 0.22
    h2p_fraction: float = 0.08
    h2p_low: float = 0.12  # taken-probability band for H2P branches
    h2p_high: float = 0.38
    bias_low: float = 0.96  # taken- (or not-taken-) probability of biased branches
    bias_high: float = 0.995
    not_taken_bias_fraction: float = 0.9  # biased branches leaning not-taken

    # Indirect branches.
    indirect_fanout: int = 4
    #: Probability an indirect call/jump repeats its previous target
    #: (request bursts / megamorphic-but-bursty dispatch), which is what
    #: makes real indirect branches ITTAGE-predictable.
    indirect_repeat: float = 0.6

    def scaled_footprint(self, factor: float) -> "WorkloadConfig":
        """Return a copy with the static footprint scaled by ``factor``."""
        return replace(self, n_functions=max(2, round(self.n_functions * factor)))


class ProgramGenerator:
    """Builds a random :class:`Program` from a :class:`WorkloadConfig`.

    Function 0 is the dispatcher; the remaining functions are partitioned
    into ``call_depth_levels`` levels with calls only flowing downward,
    which keeps the call graph a DAG and call-tree sizes bounded.
    """

    def __init__(self, config: WorkloadConfig) -> None:
        if config.n_functions < 2:
            raise ValueError("need at least a dispatcher and one handler")
        self.config = config
        self.rng = random.Random(config.seed)
        self._levels = self._assign_levels()
        # Cumulative weights for the per-block draws, summed once here:
        # ``Random.choices`` bisects them exactly as it bisects the sums it
        # would otherwise rebuild from raw weights on every call.
        kinds = [
            (TerminatorKind.COND, config.cond_weight),
            (TerminatorKind.JUMP, config.jump_weight),
            (TerminatorKind.INDIRECT, config.indirect_weight),
            (TerminatorKind.FALLTHROUGH, config.fallthrough_weight),
        ]
        # Split call weight 4:1 between direct and indirect calls.
        calls = [
            (TerminatorKind.CALL, config.call_weight * 0.8),
            (TerminatorKind.CALL_INDIRECT, config.call_weight * 0.2),
        ]
        self._terminators = {
            can_call: (tuple(kind for kind, _ in mix), list(accumulate(w for _, w in mix)))
            for can_call, mix in ((False, kinds), (True, kinds + calls))
        }
        # Request handlers (hot code) draw from the full mixture, including
        # the data-dependent hard-to-predict branches datacenter profiles
        # attribute to request-processing logic; deeper library-style code
        # is overwhelmingly biased.
        hot = [
            config.biased_fraction,
            config.pattern_fraction,
            config.correlated_fraction,
            config.h2p_fraction,
        ]
        deep = [
            config.biased_fraction + config.correlated_fraction + config.h2p_fraction,
            config.pattern_fraction,
            0.0,
            0.0,
        ]
        self._forward_mixes = (list(accumulate(hot)), list(accumulate(deep)))

    def _assign_levels(self) -> list[list[int]]:
        """Partition functions 1..N-1 into contiguous index ranges per level."""
        config = self.config
        n_callees = config.n_functions - 1
        n_levels = max(1, min(config.call_depth_levels, n_callees))
        levels: list[list[int]] = []
        start = 1
        for level in range(n_levels):
            remaining_levels = n_levels - level
            remaining_functions = config.n_functions - start
            count = max(1, remaining_functions // remaining_levels)
            levels.append(list(range(start, start + count)))
            start += count
        return levels

    def _level_of(self, func_index: int) -> int:
        for level, members in enumerate(self._levels):
            if func_index in range(members[0], members[-1] + 1):
                return level
        raise ValueError(f"function {func_index} not in any level")

    def build(self) -> Program:
        config = self.config
        functions: list[Function] = []
        base_pc = CODE_BASE
        for func_index in range(config.n_functions):
            if func_index == 0:
                blocks = self._build_dispatcher()
            else:
                blocks = self._build_function_blocks(func_index)
            function = Function(blocks, base_pc=base_pc)
            functions.append(function)
            # Leave a small gap so functions don't share cache lines.
            base_pc = function.end_pc + 64
        return Program(functions, name=config.name)

    # ------------------------------------------------------------------
    # Dispatcher (function 0)
    # ------------------------------------------------------------------

    def _build_dispatcher(self) -> list[BasicBlock]:
        """A request loop: small preamble, indirect call over level-1 handlers."""
        handlers = self._levels[0]
        weights = [1.0 / (rank + 1) ** self.config.dispatch_skew for rank in range(len(handlers))]
        # Shuffle so popularity is not correlated with address order.
        shuffled = handlers[:]
        self.rng.shuffle(shuffled)
        blocks = [
            BasicBlock(self._block_size(), TerminatorKind.FALLTHROUGH),
            BasicBlock(
                self._block_size(),
                TerminatorKind.CALL_INDIRECT,
                callees=shuffled,
                callee_weights=weights,
            ),
            BasicBlock(self._block_size(), TerminatorKind.JUMP, taken_block=0),
        ]
        return blocks

    # ------------------------------------------------------------------
    # Regular functions
    # ------------------------------------------------------------------

    def _build_function_blocks(self, func_index: int) -> list[BasicBlock]:
        config, rng = self.config, self.rng
        n_blocks = max(
            4, round(rng.gauss(config.blocks_per_function, config.blocks_per_function / 4))
        )
        level = self._level_of(func_index)
        callee_pool = self._levels[level + 1] if level + 1 < len(self._levels) else []

        blocks: list[BasicBlock] = []
        for block_index in range(n_blocks - 1):
            size = self._block_size()
            kind = self._pick_terminator(bool(callee_pool))
            if kind is TerminatorKind.COND:
                blocks.append(self._cond_block(size, block_index, n_blocks, level))
            elif kind is TerminatorKind.JUMP:
                target = self._forward_target(block_index, n_blocks)
                blocks.append(BasicBlock(size, TerminatorKind.JUMP, taken_block=target))
            elif kind is TerminatorKind.CALL:
                callee = rng.choice(callee_pool)
                blocks.append(BasicBlock(size, TerminatorKind.CALL, callees=[callee]))
            elif kind is TerminatorKind.CALL_INDIRECT:
                callees = self._sample_from_pool(callee_pool, 2, 4)
                blocks.append(
                    BasicBlock(
                        size,
                        TerminatorKind.CALL_INDIRECT,
                        callees=callees,
                        callee_weights=self._dispatch_weights(len(callees)),
                    )
                )
            elif kind is TerminatorKind.INDIRECT:
                targets = self._sample_indirect_targets(block_index, n_blocks)
                blocks.append(
                    BasicBlock(
                        size,
                        TerminatorKind.INDIRECT,
                        indirect_targets=targets,
                        indirect_weights=self._dispatch_weights(len(targets)),
                    )
                )
            else:
                blocks.append(BasicBlock(size, TerminatorKind.FALLTHROUGH))

        blocks.append(BasicBlock(self._block_size(), TerminatorKind.RETURN))
        return blocks

    def _block_size(self) -> int:
        size = 1 + int(self.rng.expovariate(1.0 / max(1.0, self.config.block_size_mean - 1)))
        return min(size, 24)

    def _pick_terminator(self, can_call: bool) -> TerminatorKind:
        names, cum_weights = self._terminators[can_call]
        return self.rng.choices(names, cum_weights=cum_weights)[0]

    def _cond_block(
        self, size: int, block_index: int, n_blocks: int, level: int = 0
    ) -> BasicBlock:
        config, rng = self.config, self.rng
        is_loop = rng.random() < config.loop_fraction
        if is_loop:
            # Loop bodies span the block itself or at most the previous
            # block: deeper back edges nest multiplicatively and blow the
            # per-request instruction cost far past realistic handler sizes.
            window = min(block_index, 1)
            target = block_index - (rng.random() < 0.3) * window
            behavior = self._loop_behavior()
        else:
            target = self._forward_target(block_index, n_blocks)
            behavior = self._forward_behavior(level)
        return BasicBlock(size, TerminatorKind.COND, taken_block=target, behavior=behavior)

    def _forward_target(self, block_index: int, n_blocks: int) -> int:
        """A forward successor, skipping up to a handful of blocks."""
        low = block_index + 1
        high = min(n_blocks - 1, block_index + 1 + self.rng.randint(0, 5))
        return self.rng.randint(low, high)

    def _loop_behavior(self) -> BranchBehavior:
        config, rng = self.config, self.rng
        if rng.random() < config.loop_variable_fraction:
            low = rng.randint(config.loop_trip_min, config.loop_trip_max)
            high = rng.randint(low, config.loop_trip_max)
            return LoopTrip(low, high)
        trip = rng.randint(config.loop_trip_min, config.loop_trip_max)
        return LoopTrip(trip, trip)

    def _forward_behavior(self, level: int = 0) -> BranchBehavior:
        config, rng = self.config, self.rng
        choice = rng.choices(_FORWARD_KINDS, cum_weights=self._forward_mixes[level > 0])[0]
        if choice == "biased":
            bias = rng.uniform(config.bias_low, config.bias_high)
            if level > 0:
                # Library-style code: compiler-laid-out not-taken forward
                # branches, correctly predicted even on a cold encounter.
                return Bernoulli(1.0 - bias)
            taken_leaning = rng.random() >= config.not_taken_bias_fraction
            return Bernoulli(bias if taken_leaning else 1.0 - bias)
        if choice == "pattern":
            period = rng.randint(2, 8)
            pattern = [rng.random() < 0.5 for _ in range(period)]
            if all(pattern) or not any(pattern):
                pattern[0] = not pattern[0]
            return Pattern(pattern)
        if choice == "correlated":
            n_taps = rng.randint(1, 3)
            taps = rng.sample(range(1, 14), n_taps)
            return GlobalCorrelated(taps, noise=rng.uniform(0.0, 0.02))
        return Bernoulli(rng.uniform(config.h2p_low, config.h2p_high))

    def _sample_from_pool(self, pool: list[int], low: int, high: int) -> list[int]:
        k = min(len(pool), self.rng.randint(low, high))
        return self.rng.sample(pool, k)

    def _sample_indirect_targets(self, block_index: int, n_blocks: int) -> list[int]:
        config, rng = self.config, self.rng
        pool = list(range(block_index + 1, n_blocks))
        k = min(len(pool), rng.randint(2, max(2, config.indirect_fanout)))
        return rng.sample(pool, k)

    def _dispatch_weights(self, n: int) -> list[float]:
        """Skewed weights: one dominant target plus a tail (realistic dispatch)."""
        return [self.rng.uniform(0.5, 1.0)] + [
            self.rng.uniform(0.05, 0.4) for _ in range(n - 1)
        ]


def generate_trace(config: WorkloadConfig) -> Trace:
    """Build the program for ``config``, walk it, and return the trace."""
    program = ProgramGenerator(config).build()
    trace = program.walk(
        config.n_instructions, seed=config.seed + 1, indirect_repeat=config.indirect_repeat
    )
    trace.validate()
    return trace
