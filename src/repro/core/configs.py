"""Simulation configuration: the paper's Table II baseline and UCP knobs.

Every experiment builds a :class:`SimConfig` (usually starting from the
defaults and overriding a few fields with :func:`dataclasses.replace`).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace

from repro.branch.btb import BTBConfig
from repro.branch.ittage import ITTAGEConfig
from repro.branch.tage_sc_l import TageScLConfig
from repro.caches.hierarchy import HierarchyConfig
from repro.caches.uopcache import UopCacheConfig


@dataclass(frozen=True)
class FrontendConfig:
    """Fetch/decode stage parameters (paper Table II, frontend rows)."""

    #: Fetch blocks the BPU may generate per cycle (2 windows/cycle).
    bpu_blocks_per_cycle: int = 2
    #: Maximum instructions per fetch block (2 windows x 8 = 16 addr/cycle).
    fetch_block_size: int = 8
    #: FTQ capacity in instructions.
    ftq_capacity: int = 192
    #: Decode width on the build (L1I + decoders) path.
    decode_width: int = 6
    #: µ-ops deliverable per cycle from the µ-op cache (one entry).
    uop_queue_capacity: int = 32
    #: Extra frontend latency of the build path (decode pipeline stages).
    build_path_latency: int = 5
    #: Frontend latency of the stream path (µ-op cache is close to dispatch).
    stream_path_latency: int = 1
    #: One-cycle penalty on each build<->stream mode switch.
    mode_switch_penalty: int = 1
    #: Consecutive µ-op cache tag hits in build mode before switching back.
    stream_switch_threshold: int = 2
    #: Decode re-steer bubble when a taken branch misses the BTB.
    btb_miss_penalty: int = 8
    #: Cycles from branch resolution to the BPU producing the correct path.
    redirect_latency: int = 2


@dataclass(frozen=True)
class BackendConfig:
    """Abstract occupancy-limited backend (paper Table II, backend rows)."""

    dispatch_width: int = 6
    commit_width: int = 10
    rob_entries: int = 512
    #: Instructions that may *complete* per cycle — the sustained-ILP cap
    #: that makes the backend, not frontend width, the steady-state
    #: bottleneck (cf. paper Section III-C).
    issue_width: int = 3
    #: Execution latencies by instruction class.
    simple_latency: int = 1
    load_latency: int = 6
    #: A slice of loads (1/long_load_every by PC hash) miss the data
    #: caches and take ``long_load_latency`` cycles — the data-side CPI
    #: that dominates datacenter workloads and dilutes frontend effects.
    long_load_every: int = 24
    long_load_latency: int = 300
    branch_latency: int = 8
    #: Fraction (1/n by PC hash) of non-branches treated as loads.
    load_hash_mod: int = 3
    #: Dependency distance is 1 + hash(pc) % dep_window.
    dep_window: int = 6


@dataclass(frozen=True)
class UCPConfig:
    """Alternate-path µ-op cache prefetching (paper Section IV)."""

    enabled: bool = False
    #: H2P classifier: "ucp" (UCP-Conf) or "tage" (TAGE-Conf baseline).
    confidence: str = "ucp"
    #: Use a dedicated Alt-Ind indirect predictor (4KB ITTAGE).
    use_indirect: bool = True
    #: Stop threshold of the 6-bit-weighted saturation counter (Fig. 15).
    stop_threshold: int = 500
    #: Threshold bonus per high-confidence branch on the alternate path.
    high_confidence_bonus: int = 1
    #: 6-bit guard: max instructions walked without seeing a branch.
    max_instructions_without_branch: int = 63
    #: Alt-FTQ capacity (paper: 24 entries of µ-op-entry addresses).
    alt_ftq_entries: int = 24
    #: µ-op cache MSHR for outstanding prefetches (paper: 32 entries).
    mshr_entries: int = 32
    #: Alternate decode queue capacity and dedicated decoder width.
    alt_decode_entries: int = 32
    alt_decode_width: int = 6
    #: Addresses the alternate path walker advances per cycle.
    walk_instructions_per_cycle: int = 8
    #: Prefetch only into the L1I (UCP-TillL1I variant, Section VI-E).
    till_l1i_only: bool = False
    #: Share the 6 baseline decoders instead of dedicated alt-decoders
    #: (UCP-SharedDecoders variant): alternate decode only proceeds when
    #: the demand path is streaming from the µ-op cache.
    shared_decoders: bool = False
    #: Ideal BTB banking: no bank conflicts between demand/alternate paths.
    ideal_btb_banking: bool = False
    #: Alt-RAS capacity.
    alt_ras_entries: int = 16

    @property
    def storage_kb(self) -> float:
        """Hardware budget of UCP state (paper Section IV-F)."""
        alt_bp = 8.0  # 8KB-class TAGE-SC-L
        alt_ind = 4.0 if self.use_indirect else 0.0
        queues = 0.06 + 0.14 + 0.19 + 0.25 + 0.12  # RAS/FTQ/MSHR/PQ/decq
        return alt_bp + alt_ind + queues


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run needs."""

    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    uop_cache: UopCacheConfig | None = field(default_factory=UopCacheConfig)
    btb: BTBConfig = field(default_factory=BTBConfig)
    branch_predictor: TageScLConfig = field(default_factory=TageScLConfig)
    indirect_predictor: ITTAGEConfig = field(default_factory=ITTAGEConfig)
    ucp: UCPConfig = field(default_factory=UCPConfig)
    #: Standalone L1I prefetcher name (None, "next_line", "fnl_mma",
    #: "fnl_mma++", "djolt", "ep", "ep++").
    l1i_prefetcher: str | None = None
    #: Idealisations used by the motivation studies (Section III-C).
    ideal_uop_cache: bool = False  # every lookup hits (blue line, Fig. 4)
    l1i_hits_are_uop_hits: bool = False  # L1I-Hits configuration (Fig. 5)
    #: IdealBRCond-N: after a conditional mispredict, the next N conditional
    #: branches' instructions are treated as µ-op cache hits (0 = off).
    ideal_brcond_window: int = 0
    #: Stateful (x86-like, variable-length) decode: UCP's alternate
    #: decoders must consume prefetched lines in program order, so an
    #: out-of-order line return blocks younger ready lines (paper Section
    #: IV-G-1).  False models ARMv8's stateless fixed-length decode, where
    #: lines decode as they arrive.
    isa_stateful_decode: bool = False
    #: Fraction of the trace used for warm-up (stats collected after).
    warmup_fraction: float = 0.5
    #: Misprediction Recovery Cache baseline (None or #entries).
    mrc_entries: int | None = None

    def with_uop_cache_kops(self, kops: int) -> "SimConfig":
        """Scale the µ-op cache to ``kops`` * 1024 µ-ops (sets scale)."""
        base = self.uop_cache or UopCacheConfig()
        n_sets = (kops * 1024) // (base.ways * base.uops_per_entry)
        return replace(self, uop_cache=replace(base, n_sets=n_sets))

    def without_uop_cache(self) -> "SimConfig":
        return replace(self, uop_cache=None)


#: UCP variant name -> :class:`UCPConfig` field overrides.  Shared by the
#: CLI (``--ucp-variant``) and the experiment-server protocol so both
#: spell the paper's Section VI ablations identically.
UCP_VARIANTS: dict[str, dict[str, object]] = {
    "noind": {"use_indirect": False},
    "till-l1i": {"till_l1i_only": True},
    "shared-decoders": {"shared_decoders": True},
    "ideal-btb": {"ideal_btb_banking": True},
    "tage-conf": {"confidence": "tage"},
}

#: L1I prefetcher names accepted by :func:`config_from_spec`.
PREFETCHER_CHOICES = ("next_line", "fnl_mma", "fnl_mma++", "djolt", "ep", "ep++")

#: µ-op cache capacities (in K µ-ops) accepted by :func:`config_from_spec`.
UOP_KOPS_CHOICES = (4, 8, 16, 32, 64)

#: Every key :func:`config_from_spec` understands.
CONFIG_SPEC_KEYS = frozenset(
    {
        "no_uop_cache",
        "ideal_uop_cache",
        "uop_kops",
        "prefetcher",
        "mrc",
        "ucp",
        "ucp_variant",
        "stop_threshold",
    }
)


#: Configs built by :func:`config_from_spec`, keyed by the spec's typed
#: items (``True`` and ``1`` must not share an entry).  Only successes are
#: stored; the table is cleared when it fills.
_spec_configs: dict[frozenset[tuple[object, type, object]], SimConfig] = {}
_SPEC_CONFIGS_MAX = 256


def config_from_spec(spec: Mapping[str, object] | None = None) -> SimConfig:
    """Build a :class:`SimConfig` from a flat JSON-friendly option mapping.

    This is the one normalizer behind both the CLI flags and the
    experiment-server protocol: the same spec always returns the same
    (frozen) config object, and therefore the same result-cache key,
    whose config repr the runner then computes once.  Unknown keys and
    out-of-range values raise :class:`ValueError` rather than being
    silently dropped — a typo must not fork the cache keyspace.

    Recognised keys (all optional): ``no_uop_cache``, ``ideal_uop_cache``
    (booleans, mutually exclusive), ``uop_kops`` (4/8/16/32/64),
    ``prefetcher`` (see :data:`PREFETCHER_CHOICES`), ``mrc`` (entries),
    ``ucp`` (boolean), ``ucp_variant`` (see :data:`UCP_VARIANTS`; implies
    UCP), ``stop_threshold`` (UCP stop counter, default 500).
    """
    spec = dict(spec or {})
    try:
        key = frozenset((name, type(value), value) for name, value in spec.items())
    except TypeError:  # an unhashable value: the builder rejects it
        return _build_config(spec)
    config = _spec_configs.get(key)
    if config is None:
        config = _build_config(spec)
        if len(_spec_configs) >= _SPEC_CONFIGS_MAX:
            _spec_configs.clear()
        _spec_configs[key] = config
    return config


def _build_config(spec: dict[str, object]) -> SimConfig:
    unknown = set(spec) - CONFIG_SPEC_KEYS
    if unknown:
        raise ValueError(
            f"unknown config spec key(s): {', '.join(sorted(str(k) for k in unknown))}"
        )

    def _flag(key: str) -> bool:
        value = spec.get(key, False)
        if not isinstance(value, bool):
            raise ValueError(f"config spec {key!r} must be a boolean, got {value!r}")
        return value

    def _int(key: str, default: int | None) -> int | None:
        value = spec.get(key, default)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"config spec {key!r} must be an integer, got {value!r}")
        return value

    config = SimConfig()
    if _flag("no_uop_cache") and _flag("ideal_uop_cache"):
        raise ValueError("no_uop_cache and ideal_uop_cache are mutually exclusive")
    if _flag("no_uop_cache"):
        config = config.without_uop_cache()
    if _flag("ideal_uop_cache"):
        config = replace(config, ideal_uop_cache=True)
    uop_kops = _int("uop_kops", None)
    if uop_kops is not None:
        if uop_kops not in UOP_KOPS_CHOICES:
            raise ValueError(f"uop_kops must be one of {UOP_KOPS_CHOICES}, got {uop_kops}")
        config = config.with_uop_cache_kops(uop_kops)
    prefetcher = spec.get("prefetcher")
    if prefetcher is not None:
        if prefetcher not in PREFETCHER_CHOICES:
            raise ValueError(
                f"prefetcher must be one of {PREFETCHER_CHOICES}, got {prefetcher!r}"
            )
        config = replace(config, l1i_prefetcher=str(prefetcher))
    mrc = _int("mrc", None)
    if mrc:
        config = replace(config, mrc_entries=mrc)
    variant = spec.get("ucp_variant")
    if variant is not None and variant not in UCP_VARIANTS:
        raise ValueError(
            f"ucp_variant must be one of {sorted(UCP_VARIANTS)}, got {variant!r}"
        )
    if _flag("ucp") or variant is not None:
        overrides: dict[str, object] = {} if variant is None else UCP_VARIANTS[str(variant)]
        stop_threshold = _int("stop_threshold", 500)
        assert stop_threshold is not None
        config = replace(
            config,
            ucp=UCPConfig(enabled=True, stop_threshold=stop_threshold, **overrides),  # type: ignore[arg-type]
        )
    return config
