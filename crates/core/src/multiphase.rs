//! Generalisation beyond GNNs: multiphase sparse/dense kernel chains.
//!
//! Section VI: "the taxonomy and inter-phase analysis ... can be generalized to
//! dataflows for multiphase computations (GEMM-GEMM / GEMM-SpMM / SpMM-SpMM).
//! One immediate example is Deep Learning Recommendation Models that is built
//! of an SpMM and a DenseGEMM in parallel followed by concatenation followed by
//! a DenseGEMM." This module models such chains: stages are individual
//! GEMM/SpMM/SDDMM/elementwise phase runs, grouped sequentially, pipelined
//! pairwise (the SP/PP composition), or in parallel on partitioned PEs (the
//! DLRM front end).
//!
//! A stage is a name plus the same phase plan (`PhaseKey`) a layer
//! evaluation runs, over a shared sparse operand: the chain plans each
//! stage's NoC share and chunk spec from its links with the code
//! [`crate::evaluate()`] plans a PP layer with, runs every stage through the
//! same simulation dispatch, and composes the steps with the same
//! recurrence. Only the pricing is the chain's own: all non-RF traffic at the
//! GB rate, and the ping-pong buffer of each pipelined link in the
//! working-set peak.
//!
//! Pipelined links come in two flavours:
//!
//! * **idealised** (`split: None`) — both stages keep the full NoC, an upper
//!   bound no physical schedule can beat (useful as a what-if);
//! * **partitioned** (`split: Some(..)`) — the paper's PP strategy: producer
//!   and consumer run *concurrently* on disjoint PE partitions, each throttled
//!   to its proportional NoC share ([`AccelConfig::partition_bandwidth`]).
//!
//! Whole GNN models lower onto chains via [`crate::models::to_chain`], which
//! the model-level explorer of [`crate::dse::model`] searches over.

use std::sync::Arc;

use serde::Serialize;

use omega_accel::engine::{
    ChunkSide, ElementwiseOp, ElementwiseWorkload, EngineOptions, GemmDims, OperandClasses,
    PreparedSpmm,
};
use omega_accel::{
    AccelConfig, AccessCounters, BandwidthShare, EnergyModel, OperandClass, PhaseStats,
};
use omega_dataflow::IntraTiling;

use crate::cost::EnergyBreakdown;
use crate::evaluate::{phase_opts, simulate_cached, PhaseKey, PhaseOp};
use crate::pipeline::Composition;
use crate::PhaseSimCache;

/// A named stage of a multiphase chain: one phase simulation over an
/// optional sparse operand.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Stage label (for reports).
    pub name: String,
    /// The phase simulation. Its NoC share, chunk spec and storage budget
    /// are placeholders until [`evaluate_chain`] plans them from the stage's
    /// links and the machine.
    pub(crate) key: PhaseKey,
    /// The row degrees an SpMM/SDDMM stage walks (`None` for dense stages).
    /// Stages over the same adjacency share one allocation, so one
    /// preparation serves them all.
    pub(crate) sparse: Option<Arc<[usize]>>,
}

/// Engine options of a freshly built stage: nothing resident. The NoC share,
/// chunk spec and storage budget are planned at evaluation time.
fn stage_opts() -> EngineOptions {
    EngineOptions::plain(BandwidthShare { dist: 0, red: 0 })
}

impl Stage {
    /// Builds a GEMM stage.
    pub fn gemm(name: impl Into<String>, dims: GemmDims, tiling: IntraTiling) -> Self {
        let classes = OperandClasses::combination_ac();
        let key = PhaseKey { op: PhaseOp::Gemm(dims), tiling, classes, opts: stage_opts() };
        Stage { name: name.into(), key, sparse: None }
    }

    /// Builds an SpMM stage.
    pub fn spmm(name: impl Into<String>, degrees: Vec<usize>, width: usize, tiling: IntraTiling) -> Self {
        let classes = OperandClasses::aggregation_ac();
        let key = PhaseKey { op: PhaseOp::Spmm { width }, tiling, classes, opts: stage_opts() };
        Stage { name: name.into(), key, sparse: Some(degrees.into()) }
    }

    /// Builds an SDDMM attention-scoring stage.
    pub fn sddmm(
        name: impl Into<String>,
        degrees: Vec<usize>,
        dot_width: usize,
        heads: usize,
        tiling: IntraTiling,
    ) -> Self {
        let classes = OperandClasses::sddmm();
        let op = PhaseOp::Sddmm { dot_width, heads };
        let key = PhaseKey { op, tiling, classes, opts: stage_opts() };
        Stage { name: name.into(), key, sparse: Some(degrees.into()) }
    }

    /// Builds an elementwise/normalization stage.
    pub fn elementwise(
        name: impl Into<String>,
        rows: usize,
        width: usize,
        op: ElementwiseOp,
        tiling: IntraTiling,
    ) -> Self {
        let key = PhaseKey {
            op: PhaseOp::Elementwise(ElementwiseWorkload { rows, width, op }),
            tiling,
            classes: OperandClasses::elementwise_on(OperandClass::Output),
            opts: stage_opts(),
        };
        Stage { name: name.into(), key, sparse: None }
    }

    /// Same stage with SP-Optimized residency flags (intermediate pinned in the
    /// RFs on the flagged side).
    pub fn with_residency(mut self, input_resident: bool, output_stays_local: bool) -> Self {
        self.key.opts.input_resident = input_resident;
        self.key.opts.output_stays_local = output_stays_local;
        self
    }

    /// The stage's concrete tiling.
    pub fn tiling(&self) -> &IntraTiling {
        &self.key.tiling
    }

    /// PEs the stage's tiling occupies.
    pub fn pe_footprint(&self) -> usize {
        self.tiling().pe_footprint()
    }
}

/// The distinct sparse operands of a chain evaluation, each prepared once:
/// every stage walking an operand shares its degree summaries, and an
/// operand's position is its slot in the [`PhaseSimCache`] key.
pub(crate) struct SparseOperands<'a> {
    prepared: Vec<(&'a Arc<[usize]>, PreparedSpmm<'a>)>,
}

impl<'a> SparseOperands<'a> {
    /// Prepares `operands`, deduplicated by allocation.
    pub(crate) fn new(operands: impl IntoIterator<Item = &'a Arc<[usize]>>) -> Self {
        let mut prepared: Vec<(&'a Arc<[usize]>, PreparedSpmm<'a>)> = Vec::new();
        for degrees in operands {
            if !prepared.iter().any(|(d, _)| Arc::ptr_eq(d, degrees)) {
                prepared.push((degrees, PreparedSpmm::new(degrees)));
            }
        }
        SparseOperands { prepared }
    }

    /// Every operand `chain`'s stages walk.
    fn of(chain: &'a Chain) -> Self {
        let stages = chain.nodes.iter().flat_map(|node| match node {
            ChainNode::Single(stage) => std::slice::from_ref(stage),
            ChainNode::Parallel(group) => group.as_slice(),
        });
        Self::new(stages.filter_map(|stage| stage.sparse.as_ref()))
    }

    /// The cache slot and preparation of `stage`'s operand (slot 0 and none
    /// for a dense stage).
    ///
    /// # Panics
    /// Panics if the stage walks an operand this set was not built from.
    fn resolve(&self, stage: &Stage) -> (usize, Option<&PreparedSpmm<'a>>) {
        let Some(degrees) = &stage.sparse else { return (0, None) };
        let slot = self
            .prepared
            .iter()
            .position(|(d, _)| Arc::ptr_eq(d, degrees))
            .expect("chain stage walks an unprepared sparse operand");
        (slot, Some(&self.prepared[slot].1))
    }
}

/// A node of the chain: a single stage or a parallel group (stages running
/// concurrently on partitioned PEs, like DLRM's bottom MLP ∥ embedding SpMM).
#[derive(Debug, Clone)]
pub enum ChainNode {
    /// One stage on the whole array.
    Single(Stage),
    /// Concurrent stages; the group finishes with its slowest member.
    Parallel(Vec<Stage>),
}

/// A producer/consumer PE partition for a pipelined link (the paper's PP
/// strategy): the two stages run concurrently on disjoint PE allocations, each
/// receiving its proportional NoC bandwidth share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PartitionSplit {
    /// PEs allocated to the producing stage.
    pub producer_pes: usize,
    /// PEs allocated to the consuming stage.
    pub consumer_pes: usize,
}

impl PartitionSplit {
    /// The split giving the producer fraction `f` of a `num_pes` array
    /// (Section V-C1's 25-75 / 50-50 / 75-25 allocations): `num_pes · f`
    /// rounded into `[1, num_pes − 1]`, the consumer the rest. `None` below
    /// 2 PEs, where no split leaves both partitions a PE.
    pub fn fraction(num_pes: usize, f: f64) -> Option<Self> {
        if num_pes < 2 {
            return None;
        }
        let producer_pes = ((num_pes as f64 * f).round() as usize).clamp(1, num_pes - 1);
        Some(PartitionSplit { producer_pes, consumer_pes: num_pes - producer_pes })
    }
}

/// How one node hands data to the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Link {
    /// Barrier: the next node starts after this one fully finishes.
    Sequential,
    /// Producer/consumer pipelining at `pel` elements per chunk (only between
    /// two `Single` nodes). With `split: None` both stages keep the full NoC
    /// (an idealised upper bound); with `split: Some(..)` they run on
    /// partitioned PEs with proportionally split bandwidth (physical PP).
    Pipelined {
        /// Elements per pipeline chunk.
        pel: u64,
        /// Optional PE partition (`None` = idealised full-resource overlap).
        split: Option<PartitionSplit>,
    },
}

impl Link {
    /// An idealised pipelined link (both stages keep their full resources).
    pub fn pipelined(pel: u64) -> Self {
        Link::Pipelined { pel, split: None }
    }

    /// A partitioned (physical PP) pipelined link.
    pub fn pipelined_split(pel: u64, producer_pes: usize, consumer_pes: usize) -> Self {
        Link::Pipelined { pel, split: Some(PartitionSplit { producer_pes, consumer_pes }) }
    }

    /// `true` for either pipelined flavour.
    pub fn is_pipelined(&self) -> bool {
        matches!(self, Link::Pipelined { .. })
    }
}

/// A multiphase kernel chain.
#[derive(Debug, Clone)]
pub struct Chain {
    /// Nodes in execution order.
    pub nodes: Vec<ChainNode>,
    /// Links between consecutive nodes (`nodes.len() - 1` entries).
    pub links: Vec<Link>,
}

/// Evaluation of one chain.
#[derive(Debug, Clone, Serialize)]
pub struct ChainReport {
    /// Per-stage statistics, flattened in chain order.
    pub stages: Vec<(String, PhaseStats)>,
    /// End-to-end cycles.
    pub total_cycles: u64,
    /// Merged counters.
    pub counters: AccessCounters,
    /// Buffer energy (all non-RF traffic charged at GB rate).
    pub energy: EnergyBreakdown,
    /// Peak on-chip working set in bytes across the chain's execution steps:
    /// concurrent stages (parallel groups, pipelined pairs plus their
    /// ping-pong buffer) add their per-stage peaks, sequential steps take the
    /// maximum — the chain-level analogue of
    /// [`crate::CostReport::buffer_peak_bytes`].
    pub buffer_peak_bytes: u64,
}

/// Structural failure of a chain evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// `links.len() + 1 != nodes.len()`.
    LinkCountMismatch {
        /// Number of nodes.
        nodes: usize,
        /// Number of links.
        links: usize,
    },
    /// A `Pipelined` link touches a `Parallel` node (pipelining is defined
    /// pairwise between single stages).
    PipelinedParallelNode {
        /// Index of the offending node.
        node: usize,
    },
    /// A stage would have to produce and consume pipelined chunks at once.
    PipelinedBothSides {
        /// Index of the offending node.
        node: usize,
    },
    /// A partitioned link allocates fewer PEs than the stage's tiling needs.
    PartitionTooSmall {
        /// Index of the offending node.
        node: usize,
        /// PEs allocated to the stage.
        allocated: usize,
        /// PEs the stage's tiling occupies.
        footprint: usize,
    },
    /// A partition allocates more PEs than the machine has.
    PartitionOversubscribed {
        /// Producer + consumer allocation.
        allocated: usize,
        /// PEs available.
        available: usize,
    },
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::LinkCountMismatch { nodes, links } => write!(
                f,
                "need one link between consecutive nodes ({nodes} nodes, {links} links)"
            ),
            ChainError::PipelinedParallelNode { node } => {
                write!(f, "pipelined links require single stages on both ends (node {node})")
            }
            ChainError::PipelinedBothSides { node } => {
                write!(f, "a stage cannot be pipelined on both sides (node {node})")
            }
            ChainError::PartitionTooSmall { node, allocated, footprint } => write!(
                f,
                "partition too small at node {node}: {allocated} PEs allocated, tiling needs {footprint}"
            ),
            ChainError::PartitionOversubscribed { allocated, available } => {
                write!(f, "partition oversubscribed: {allocated} PEs allocated of {available}")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// Evaluates a chain on the accelerator.
///
/// Returns a [`ChainError`] when the chain is structurally invalid: mismatched
/// link count, a pipelined link touching a `Parallel` node, a stage pipelined
/// on both sides, or a partitioned link whose PE allocation cannot hold its
/// stage (or oversubscribes the machine).
pub fn evaluate_chain(chain: &Chain, cfg: &AccelConfig) -> Result<ChainReport, ChainError> {
    evaluate_chain_in(chain, cfg, &SparseOperands::of(chain), None)
}

/// [`evaluate_chain`] over prepared operands, through `cache` when given —
/// bit-identical to the one-shot form. A model search prepares its graph once
/// and shares one cache across every chain it lowers onto it.
pub(crate) fn evaluate_chain_in(
    chain: &Chain,
    cfg: &AccelConfig,
    operands: &SparseOperands<'_>,
    cache: Option<&PhaseSimCache>,
) -> Result<ChainReport, ChainError> {
    if chain.links.len() + 1 != chain.nodes.len() {
        return Err(ChainError::LinkCountMismatch {
            nodes: chain.nodes.len(),
            links: chain.links.len(),
        });
    }
    // Runs one stage at NoC share `bandwidth` under the machine's storage
    // budget, pipelined per `pipeline` (its side of the link, the link's
    // `Pel`) when given.
    let capacity = phase_opts(cfg).capacity;
    let run = |stage: &Stage, bandwidth: BandwidthShare, pipeline: Option<(ChunkSide, u64)>| {
        let (slot, sparse) = operands.resolve(stage);
        let mut key = stage.key;
        key.opts.bandwidth = bandwidth;
        key.opts.chunk = None;
        key.opts.capacity = capacity;
        if let Some((side, pel)) = pipeline {
            let (rows, nnz) = sparse.map_or((0, 0), |p| (p.degrees().len() as u64, p.nnz()));
            key.pipeline(side, pel, bandwidth, rows, nnz);
        }
        (stage.name.clone(), simulate_cached(cache, slot, &key, sparse, cfg))
    };

    let full_bw = cfg.full_bandwidth();
    let mut node_stats: Vec<Vec<(String, PhaseStats)>> = Vec::with_capacity(chain.nodes.len());
    for (i, node) in chain.nodes.iter().enumerate() {
        let produce = chain.links.get(i).and_then(|l| match l {
            Link::Pipelined { pel, split } => Some((*pel, *split)),
            Link::Sequential => None,
        });
        let consume = i.checked_sub(1).and_then(|j| match chain.links[j] {
            Link::Pipelined { pel, split } => Some((pel, split)),
            Link::Sequential => None,
        });
        match node {
            ChainNode::Single(stage) => {
                let side = match (produce, consume) {
                    (Some(_), Some(_)) => return Err(ChainError::PipelinedBothSides { node: i }),
                    (Some(link), None) => Some((ChunkSide::Produce, link)),
                    (None, Some(link)) => Some((ChunkSide::Consume, link)),
                    (None, None) => None,
                };
                let mut bandwidth = full_bw;
                if let Some((side, (_, Some(s)))) = side {
                    let allocated = s.producer_pes + s.consumer_pes;
                    if side == ChunkSide::Produce && allocated > cfg.num_pes {
                        return Err(ChainError::PartitionOversubscribed {
                            allocated,
                            available: cfg.num_pes,
                        });
                    }
                    let shares = cfg.partition_bandwidth(s.producer_pes, s.consumer_pes);
                    let (pes, share) = match side {
                        ChunkSide::Produce => (s.producer_pes, shares.0),
                        ChunkSide::Consume => (s.consumer_pes, shares.1),
                    };
                    if stage.pe_footprint() > pes {
                        return Err(ChainError::PartitionTooSmall {
                            node: i,
                            allocated: pes,
                            footprint: stage.pe_footprint(),
                        });
                    }
                    bandwidth = share;
                }
                let pipeline = side.map(|(side, (pel, _))| (side, pel));
                node_stats.push(vec![run(stage, bandwidth, pipeline)]);
            }
            ChainNode::Parallel(group) => {
                if produce.is_some() || consume.is_some() {
                    return Err(ChainError::PipelinedParallelNode { node: i });
                }
                // Concurrent members occupy disjoint PE partitions: their
                // tilings must fit the machine together, like a pipelined
                // split must.
                let allocated: usize = group.iter().map(Stage::pe_footprint).sum();
                if allocated > cfg.num_pes {
                    return Err(ChainError::PartitionOversubscribed {
                        allocated,
                        available: cfg.num_pes,
                    });
                }
                // NoC bandwidth is shared between the concurrently-running
                // members in proportion to their PE allocations, exactly as the
                // PP cost model splits it between phases (Section V-C3).
                node_stats.push(
                    group
                        .iter()
                        .map(|s| run(s, cfg.bandwidth_fraction(s.pe_footprint()), None))
                        .collect(),
                );
            }
        }
    }

    // Compose: a pipelined pair is one step holding its 2×Pel ping-pong
    // buffer; every other node is a barrier step (a parallel group's members
    // run concurrently).
    let mut timeline = Composition::default();
    let mut i = 0;
    while i < chain.nodes.len() {
        if let Some(Link::Pipelined { pel, .. }) = chain.links.get(i) {
            let ping_pong = 2 * pel * cfg.word_bytes as u64;
            timeline.pipelined(&node_stats[i][0].1, &node_stats[i + 1][0].1, ping_pong);
            i += 2;
        } else {
            timeline.barrier(node_stats[i].iter().map(|(_, s)| s));
            i += 1;
        }
    }
    let energy =
        EnergyBreakdown::from_counters(&timeline.counters, &EnergyModel::paper_default(), None);
    Ok(ChainReport {
        stages: node_stats.into_iter().flatten().collect(),
        total_cycles: timeline.cycles,
        counters: timeline.counters,
        energy,
        buffer_peak_bytes: timeline.peak_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_dataflow::{Dim, LoopOrder, Phase};

    fn cmb_tiling(tiles: [usize; 3]) -> IntraTiling {
        IntraTiling::new(
            Phase::Combination,
            LoopOrder::new(Phase::Combination, [Dim::V, Dim::G, Dim::F]).unwrap(),
            tiles,
        )
    }

    fn agg_tiling(tiles: [usize; 3]) -> IntraTiling {
        IntraTiling::new(
            Phase::Aggregation,
            LoopOrder::new(Phase::Aggregation, [Dim::V, Dim::F, Dim::N]).unwrap(),
            tiles,
        )
    }

    fn gemm_stage(name: &str, v: usize, f: usize, g: usize) -> Stage {
        Stage::gemm(name, GemmDims { v, f, g }, cmb_tiling([8, 8, 1]))
    }

    #[test]
    fn sequential_chain_adds_cycles() {
        let chain = Chain {
            nodes: vec![
                ChainNode::Single(gemm_stage("a", 32, 16, 8)),
                ChainNode::Single(gemm_stage("b", 32, 8, 4)),
            ],
            links: vec![Link::Sequential],
        };
        let cfg = AccelConfig::paper_default();
        let r = evaluate_chain(&chain, &cfg).unwrap();
        assert_eq!(r.stages.len(), 2);
        assert_eq!(r.total_cycles, r.stages[0].1.cycles + r.stages[1].1.cycles);
        assert!(r.energy.total_pj() > 0.0);
    }

    #[test]
    fn parallel_group_takes_the_max() {
        let chain = Chain {
            nodes: vec![ChainNode::Parallel(vec![
                gemm_stage("big", 64, 64, 16),
                gemm_stage("small", 8, 8, 4),
            ])],
            links: vec![],
        };
        let cfg = AccelConfig::paper_default();
        let r = evaluate_chain(&chain, &cfg).unwrap();
        let max = r.stages.iter().map(|(_, s)| s.cycles).max().unwrap();
        assert_eq!(r.total_cycles, max);
    }

    #[test]
    fn pipelined_link_overlaps() {
        let producer = Stage::spmm("embed", vec![4; 64], 16, agg_tiling([8, 8, 1]));
        let consumer = gemm_stage("top", 64, 16, 8);
        let pel = 8 * 16; // 8 rows
        let seq = Chain {
            nodes: vec![
                ChainNode::Single(producer.clone()),
                ChainNode::Single(consumer.clone()),
            ],
            links: vec![Link::Sequential],
        };
        let pip = Chain {
            nodes: vec![ChainNode::Single(producer), ChainNode::Single(consumer)],
            links: vec![Link::pipelined(pel)],
        };
        let cfg = AccelConfig::paper_default();
        let r_seq = evaluate_chain(&seq, &cfg).unwrap();
        let r_pip = evaluate_chain(&pip, &cfg).unwrap();
        assert!(r_pip.total_cycles <= r_seq.total_cycles);
        let slower = r_pip.stages.iter().map(|(_, s)| s.cycles).max().unwrap();
        assert!(r_pip.total_cycles >= slower);
    }

    #[test]
    fn partitioned_pipelined_link_throttles_both_sides() {
        let producer = Stage::spmm("embed", vec![4; 64], 16, agg_tiling([8, 8, 1]));
        let consumer = gemm_stage("top", 64, 16, 8);
        let pel = 8 * 16;
        let cfg = AccelConfig::paper_default();
        let ideal = Chain {
            nodes: vec![ChainNode::Single(producer.clone()), ChainNode::Single(consumer.clone())],
            links: vec![Link::pipelined(pel)],
        };
        let split = Chain {
            nodes: vec![ChainNode::Single(producer), ChainNode::Single(consumer)],
            links: vec![Link::pipelined_split(pel, 256, 256)],
        };
        let r_ideal = evaluate_chain(&ideal, &cfg).unwrap();
        let r_split = evaluate_chain(&split, &cfg).unwrap();
        // Halving the NoC share can only slow the stages down.
        assert!(r_split.total_cycles >= r_ideal.total_cycles);
        for ((_, a), (_, b)) in r_split.stages.iter().zip(&r_ideal.stages) {
            assert!(a.cycles >= b.cycles);
        }
    }

    #[test]
    fn chain_buffer_peak_maxes_sequential_and_adds_concurrent() {
        let cfg = AccelConfig::paper_default();
        let big = gemm_stage("big", 64, 64, 16);
        let small = gemm_stage("small", 8, 8, 4);
        let peak_of = |stage: Stage| {
            let chain = Chain { nodes: vec![ChainNode::Single(stage)], links: vec![] };
            evaluate_chain(&chain, &cfg).unwrap().buffer_peak_bytes
        };
        let (pb, ps) = (peak_of(big.clone()), peak_of(small.clone()));
        assert!(pb > 0 && ps > 0);
        // Sequential steps take the max of the per-stage peaks…
        let seq = Chain {
            nodes: vec![ChainNode::Single(big.clone()), ChainNode::Single(small.clone())],
            links: vec![Link::Sequential],
        };
        assert_eq!(evaluate_chain(&seq, &cfg).unwrap().buffer_peak_bytes, pb.max(ps));
        // …a parallel group's members add…
        let par = Chain {
            nodes: vec![ChainNode::Parallel(vec![big.clone(), small.clone()])],
            links: vec![],
        };
        assert_eq!(evaluate_chain(&par, &cfg).unwrap().buffer_peak_bytes, pb + ps);
        // …and a pipelined pair adds both sides plus the 2×Pel ping-pong.
        let pel = 8 * 16;
        let pip = Chain {
            nodes: vec![ChainNode::Single(big), ChainNode::Single(small)],
            links: vec![Link::pipelined(pel)],
        };
        let r = evaluate_chain(&pip, &cfg).unwrap();
        // Chunked runs re-simulate the stages, so compare against the report's
        // own per-stage peaks rather than the unchunked singles.
        let stage_peak = |s: &omega_accel::PhaseStats| {
            s.gb_peak_bytes + s.rf_peak_bytes * s.pe_footprint as u64
        };
        let expected = stage_peak(&r.stages[0].1)
            + stage_peak(&r.stages[1].1)
            + 2 * pel * cfg.word_bytes as u64;
        assert_eq!(r.buffer_peak_bytes, expected);
    }

    #[test]
    fn partition_errors_are_typed() {
        let cfg = AccelConfig::paper_default();
        let mk = |link: Link| Chain {
            nodes: vec![
                ChainNode::Single(gemm_stage("a", 32, 16, 8)), // footprint 64
                ChainNode::Single(gemm_stage("b", 32, 8, 4)),
            ],
            links: vec![link],
        };
        // Producer squeezed below its 64-PE footprint.
        assert_eq!(
            evaluate_chain(&mk(Link::pipelined_split(64, 32, 480)), &cfg).unwrap_err(),
            ChainError::PartitionTooSmall { node: 0, allocated: 32, footprint: 64 }
        );
        // Consumer squeezed below its footprint.
        assert_eq!(
            evaluate_chain(&mk(Link::pipelined_split(64, 448, 32)), &cfg).unwrap_err(),
            ChainError::PartitionTooSmall { node: 1, allocated: 32, footprint: 64 }
        );
        // More PEs than the machine has.
        assert_eq!(
            evaluate_chain(&mk(Link::pipelined_split(64, 400, 200)), &cfg).unwrap_err(),
            ChainError::PartitionOversubscribed { allocated: 600, available: 512 }
        );
    }

    #[test]
    fn oversubscribed_parallel_group_is_an_error() {
        // Two full-array tilings cannot run concurrently: the proportional
        // bandwidth model would otherwise credit the group with more NoC than
        // the machine has.
        let chain = Chain {
            nodes: vec![ChainNode::Parallel(vec![
                Stage::gemm("a", GemmDims { v: 64, f: 64, g: 64 }, cmb_tiling([32, 16, 1])),
                Stage::gemm("b", GemmDims { v: 64, f: 64, g: 64 }, cmb_tiling([32, 16, 1])),
            ])],
            links: vec![],
        };
        assert_eq!(
            evaluate_chain(&chain, &AccelConfig::paper_default()).unwrap_err(),
            ChainError::PartitionOversubscribed { allocated: 1024, available: 512 }
        );
    }

    #[test]
    fn cached_stages_keep_their_own_sparse_operand() {
        // Two SpMM stages with identical phase plans over different
        // adjacencies: a shared cache must not hand one the other's stats.
        let dense = Stage::spmm("dense", vec![8; 64], 16, agg_tiling([8, 8, 1]));
        let sparse = Stage::spmm("sparse", vec![1; 64], 16, agg_tiling([8, 8, 1]));
        let chain = Chain {
            nodes: vec![ChainNode::Single(dense), ChainNode::Single(sparse)],
            links: vec![Link::Sequential],
        };
        let cfg = AccelConfig::paper_default();
        let direct = evaluate_chain(&chain, &cfg).unwrap();
        let cache = PhaseSimCache::new();
        let operands = SparseOperands::of(&chain);
        let cached = evaluate_chain_in(&chain, &cfg, &operands, Some(&cache)).unwrap();
        assert!(direct.stages[0].1.macs > direct.stages[1].1.macs);
        assert_eq!(cached.total_cycles, direct.total_cycles);
        assert_eq!(cached.counters, direct.counters);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn dlrm_shaped_chain_runs() {
        // DLRM: SpMM (embedding gather) ∥ GEMM (bottom MLP) → concat → GEMM (top MLP).
        let chain = Chain {
            nodes: vec![
                ChainNode::Parallel(vec![
                    Stage::spmm("embedding", vec![8; 128], 32, agg_tiling([8, 8, 1])),
                    gemm_stage("bottom-mlp", 128, 32, 32),
                ]),
                ChainNode::Single(gemm_stage("top-mlp", 128, 64, 16)),
            ],
            links: vec![Link::Sequential],
        };
        let cfg = AccelConfig::paper_default();
        let r = evaluate_chain(&chain, &cfg).unwrap();
        assert_eq!(r.stages.len(), 3);
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn wrong_link_count_is_an_error() {
        let chain = Chain {
            nodes: vec![ChainNode::Single(gemm_stage("a", 4, 4, 4))],
            links: vec![Link::Sequential],
        };
        assert_eq!(
            evaluate_chain(&chain, &AccelConfig::paper_default()).unwrap_err(),
            ChainError::LinkCountMismatch { nodes: 1, links: 1 }
        );
    }

    #[test]
    fn pipelined_parallel_is_an_error() {
        let chain = Chain {
            nodes: vec![
                ChainNode::Parallel(vec![gemm_stage("a", 4, 4, 4)]),
                ChainNode::Single(gemm_stage("b", 4, 4, 4)),
            ],
            links: vec![Link::pipelined(4)],
        };
        assert_eq!(
            evaluate_chain(&chain, &AccelConfig::paper_default()).unwrap_err(),
            ChainError::PipelinedParallelNode { node: 0 }
        );
        // The same link arriving *at* a parallel node is equally rejected.
        let chain = Chain {
            nodes: vec![
                ChainNode::Single(gemm_stage("a", 4, 4, 4)),
                ChainNode::Parallel(vec![gemm_stage("b", 4, 4, 4)]),
            ],
            links: vec![Link::pipelined(4)],
        };
        assert_eq!(
            evaluate_chain(&chain, &AccelConfig::paper_default()).unwrap_err(),
            ChainError::PipelinedParallelNode { node: 1 }
        );
    }

    #[test]
    fn pipelined_both_sides_is_an_error() {
        let chain = Chain {
            nodes: vec![
                ChainNode::Single(gemm_stage("a", 16, 8, 8)),
                ChainNode::Single(gemm_stage("b", 16, 8, 8)),
                ChainNode::Single(gemm_stage("c", 16, 8, 8)),
            ],
            links: vec![Link::pipelined(8), Link::pipelined(8)],
        };
        assert_eq!(
            evaluate_chain(&chain, &AccelConfig::paper_default()).unwrap_err(),
            ChainError::PipelinedBothSides { node: 1 }
        );
    }

    #[test]
    fn elementwise_stage_runs_in_a_chain() {
        let chain = Chain {
            nodes: vec![
                ChainNode::Single(gemm_stage("cmb", 64, 16, 8)),
                ChainNode::Single(Stage::elementwise(
                    "post",
                    64,
                    8,
                    ElementwiseOp::LayerNorm,
                    cmb_tiling([8, 8, 1]),
                )),
            ],
            links: vec![Link::Sequential],
        };
        let cfg = AccelConfig::paper_default();
        let r = evaluate_chain(&chain, &cfg).unwrap();
        assert_eq!(r.stages.len(), 2);
        assert_eq!(r.total_cycles, r.stages[0].1.cycles + r.stages[1].1.cycles);
        // Two sweeps (stats + write-back) over the 64×8 output.
        assert_eq!(r.stages[1].1.macs, 2 * 64 * 8);
        assert_eq!(r.stages[1].1.pe_footprint, 64);
    }

    #[test]
    fn residency_flags_remove_intermediate_traffic() {
        use omega_accel::OperandClass;
        let producer = Stage::spmm("agg", vec![4; 64], 16, agg_tiling([8, 8, 1]));
        let consumer = gemm_stage("cmb", 64, 16, 8);
        let cfg = AccelConfig::paper_default();
        let plain = Chain {
            nodes: vec![ChainNode::Single(producer.clone()), ChainNode::Single(consumer.clone())],
            links: vec![Link::Sequential],
        };
        let resident = Chain {
            nodes: vec![
                ChainNode::Single(producer.with_residency(false, true)),
                ChainNode::Single(consumer.with_residency(true, false)),
            ],
            links: vec![Link::Sequential],
        };
        let r_plain = evaluate_chain(&plain, &cfg).unwrap();
        let r_res = evaluate_chain(&resident, &cfg).unwrap();
        assert!(r_plain.counters.gb_of(OperandClass::Intermediate) > 0);
        assert_eq!(r_res.counters.gb_of(OperandClass::Intermediate), 0);
        assert!(r_res.total_cycles <= r_plain.total_cycles);
    }
}
