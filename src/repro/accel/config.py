"""Tigris accelerator configuration (paper Sec. 5, Fig. 8).

The accelerator is a front-end of Recursion Units (RUs) traversing the
top-tree, feeding a back-end of Search Units (SUs), each an array of
Processing Elements (PEs) that exhaustively scan leaf sets.  The
defaults reproduce the paper's design point (Sec. 6.2): 64 RUs, 32 SUs,
32 PEs per SU, 500 MHz, with the published buffer sizing.

The ablation switches of Fig. 12/13 are all here: RU node bypassing and
forwarding, MQSN vs. MQMN back-end scheduling, and the node cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FrontEndConfig", "BackEndConfig", "AcceleratorConfig"]


@dataclass(frozen=True)
class FrontEndConfig:
    """RU pipeline options (paper Sec. 5.2).

    The six-stage RU pipeline (FQ RS RN CD PI CL) has a data dependency
    between PI (stack push) and RS (next stack pop) costing
    ``stall_cycles`` per iteration.  ``forwarding`` eliminates the
    stalls by forwarding the next node from CD/PI straight to RN;
    ``bypassing`` lets a popped-but-prunable node exit after RN instead
    of flowing through the full pipeline.
    """

    bypassing: bool = True
    forwarding: bool = True
    stall_cycles: int = 3

    @property
    def full_node_cycles(self) -> int:
        """Cycles per fully-processed top-tree node iteration."""
        return 1 if self.forwarding else 1 + self.stall_cycles

    @property
    def bypassed_node_cycles(self) -> int:
        """Cycles per popped-but-pruned node.

        With bypassing the node exits right after RN (2 stages of work,
        but the pipeline restarts the RS stage immediately, costing one
        extra cycle over a forwarded hit); without it the node flows
        through the same path as a full iteration.
        """
        if self.bypassing:
            return 1 if self.forwarding else 2
        return self.full_node_cycles


@dataclass(frozen=True)
class BackEndConfig:
    """SU/PE organization (paper Sec. 5.3).

    ``scheduling``
        ``"mqsn"`` — Multiple Query Single NodeSet: all PEs of an SU
        process queries of the *same* leaf set, so the node stream is
        fetched once per batch (memory-efficient, the adopted design);
        ``"mqmn"`` — Multiple Query Multiple NodeSet: PEs take any
        queries (full utilization, per-PE node streams, high traffic).
    ``pipeline_fill_cycles``
        PE datapath depth: cycles before the first node's result exits.
    ``node_cache_entries``
        LRU node-cache capacity in leaf sets (0 disables; the paper's
        128 KB cache holds ~8 sets of 128 points).
    ``issue_window``
        BQB entries examined per associative-search step (paper: groups
        of 32).
    """

    scheduling: str = "mqsn"
    pipeline_fill_cycles: int = 3
    node_cache_entries: int = 8
    issue_window: int = 32

    def __post_init__(self):
        if self.scheduling not in ("mqsn", "mqmn"):
            raise ValueError("scheduling must be 'mqsn' or 'mqmn'")
        if self.pipeline_fill_cycles < 0:
            raise ValueError("pipeline_fill_cycles must be >= 0")
        if self.node_cache_entries < 0:
            raise ValueError("node_cache_entries must be >= 0")
        if self.issue_window < 1:
            raise ValueError("issue_window must be >= 1")


@dataclass(frozen=True)
class AcceleratorConfig:
    """Full accelerator design point (defaults: the paper's, Sec. 6.2)."""

    n_recursion_units: int = 64
    n_search_units: int = 32
    pes_per_su: int = 32
    clock_ghz: float = 0.5
    frontend: FrontEndConfig = field(default_factory=FrontEndConfig)
    backend: BackEndConfig = field(default_factory=BackEndConfig)

    # On-chip SRAM sizing in KB (paper Sec. 6.2).
    input_point_buffer_kb: float = 1536.0  # 1.5 MB
    query_buffer_kb: float = 1536.0  # 1.5 MB
    query_stack_buffer_kb: float = 1228.8  # 1.2 MB
    fe_query_queue_kb: float = 1536.0  # 1.5 MB
    be_query_buffer_kb_per_su: float = 1.0  # 1 KB x 32 SUs
    node_cache_kb: float = 128.0
    result_buffer_kb: float = 3072.0  # 3 MB, double-buffered to DRAM
    leader_buffer_entries: int = 16

    def __post_init__(self):
        if min(self.n_recursion_units, self.n_search_units, self.pes_per_su) < 1:
            raise ValueError("unit counts must be >= 1")
        if self.clock_ghz <= 0:
            raise ValueError("clock_ghz must be positive")

    @property
    def cycle_time_ns(self) -> float:
        return 1.0 / self.clock_ghz

    @property
    def total_pes(self) -> int:
        return self.n_search_units * self.pes_per_su

    @property
    def total_sram_kb(self) -> float:
        return (
            self.input_point_buffer_kb
            + self.query_buffer_kb
            + self.query_stack_buffer_kb
            + self.fe_query_queue_kb
            + self.be_query_buffer_kb_per_su * self.n_search_units
            + self.node_cache_kb
            + self.result_buffer_kb
        )
