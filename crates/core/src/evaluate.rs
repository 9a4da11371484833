//! The OMEGA evaluation entry point: one workload × one dataflow × one machine.
//!
//! The evaluation is **phase-factored**: [`evaluate`] first *plans* the
//! layer's phase simulations as [`PhaseKey`]s (tiling, operand classes,
//! bandwidth share, residency flags, chunk spec — everything a phase engine's
//! result depends on besides the sparse operand itself), then runs them, then
//! *composes* the totals through the shared [`Composition`] step recurrence
//! and prices them per the inter-phase cost model (Table III). The factoring
//! is what the exhaustive explorer of [`crate::dse`] exploits: for
//! `Sequential` and `SequentialPipeline` dataflows the two phase simulations
//! are completely independent of each other, so a [`PhaseSimCache`] keyed by
//! the phase plan lets a 6,656-candidate sweep simulate each *unique* phase
//! configuration once and recompose the rest arithmetically.
//!
//! The same keys describe the stages of a multiphase chain
//! ([`crate::multiphase`]): [`crate::models::to_chain`] lowers each layer from
//! [`plan`], and the chain runs its stages through the same [`simulate`]
//! dispatch, cache and composer.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use omega_accel::engine::{
    simulate_elementwise, simulate_gemm_prepared, simulate_sddmm_prepared, simulate_spmm_prepared,
    CapacityBudget, ChunkSide, ChunkSpec, ElementwiseWorkload, EngineOptions, GemmDims,
    OperandClasses, PreparedGemm, PreparedSpmm,
};
use omega_accel::{AccelConfig, BandwidthShare, EnergyModel, OperandClass, PhaseStats};
use omega_dataflow::{
    validate, validate_elementwise, validate_sddmm, Dim, GnnDataflow, Granularity, InterPhase,
    IntraTiling, PhaseOrder, ValidationError,
};

use crate::cost::{CostReport, EnergyBreakdown, IntermediateCost};
use crate::dse::{lock_recover, Bound};
use crate::pipeline::Composition;
use crate::GnnWorkload;

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The dataflow violates Table II legality (or, for attention workloads,
    /// the SDDMM loop-order legality of `omega_dataflow::validate_sddmm`).
    Invalid(ValidationError),
    /// An attention (GAT) workload was evaluated under the CA phase order:
    /// the scores are computed on the phase's input features and consumed by
    /// the Aggregation, so only AC is legal.
    AttentionRequiresAc,
    /// The dataflow's tiling needs more PEs than the array has: under Seq/SP
    /// each phase's footprint must fit the array, under PP the two concurrent
    /// partitions together.
    Oversubscribed {
        /// PEs the tiling occupies ([`GnnDataflow::pe_footprint`]).
        needed: usize,
        /// PEs the array has.
        available: usize,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Invalid(e) => write!(f, "illegal dataflow: {e}"),
            EvalError::AttentionRequiresAc => {
                write!(f, "attention (GAT) layers are AC-only: SDDMM score -> aggregate -> combine")
            }
            EvalError::Oversubscribed { needed, available } => {
                write!(f, "dataflow needs {needed} PEs but the array has {available}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ValidationError> for EvalError {
    fn from(e: ValidationError) -> Self {
        EvalError::Invalid(e)
    }
}

/// Evaluates `dataflow` running `workload` on the accelerator `cfg`, producing
/// runtime, buffering, and energy per the inter-phase cost model (Table III).
///
/// One-shot convenience over [`PreparedEval`]: callers evaluating many
/// dataflows of the *same* workload should prepare once and reuse it (the DSE
/// engines do), which hoists the degree preprocessing out of every simulation.
pub fn evaluate(
    workload: &GnnWorkload,
    dataflow: &GnnDataflow,
    cfg: &AccelConfig,
) -> Result<CostReport, EvalError> {
    PreparedEval::new(workload, cfg).evaluate(dataflow)
}

/// One phase simulation — a layer phase or a chain stage — fully specified
/// modulo the sparse operand (row degrees) an SpMM/SDDMM walks. Doubles as the
/// [`PhaseSimCache`] key: two equal keys over the same operand denote
/// bit-identical simulations (the engines are deterministic), so every
/// result-affecting knob — tiling, operand classes, bandwidth share, residency
/// flags, chunk spec — participates in `Eq`/`Hash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PhaseKey {
    /// The kernel and its workload dimensions.
    pub(crate) op: PhaseOp,
    /// Concrete tiling of the phase.
    pub(crate) tiling: IntraTiling,
    /// Which Fig. 13 buckets the traffic lands in.
    pub(crate) classes: OperandClasses,
    /// Bandwidth share, residency flags, chunk spec, storage budget.
    pub(crate) opts: EngineOptions,
}

/// The kernel a [`PhaseKey`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PhaseOp {
    /// Aggregation: SpMM over the sparse operand, `width` dense columns.
    Spmm { width: usize },
    /// Combination: dense GEMM.
    Gemm(GemmDims),
    /// Attention scoring: SDDMM over the sparse operand (`heads` per-edge
    /// dot products of `dot_width` elements, plus the softmax pass).
    Sddmm { dot_width: usize, heads: usize },
    /// Elementwise pass (activation / LayerNorm) over a dense matrix — a
    /// layer's post-phase, run on the final matrix phase's tiling.
    Elementwise(ElementwiseWorkload),
}

impl PhaseKey {
    /// Plans this phase as one side of a pipelined link (the PP strategy
    /// inside a layer, or a pipelined chain link): a chunk mark every
    /// `pel_elems` intermediate elements, at NoC share `bandwidth`.
    ///
    /// The sparse engines track *consumption* progress in edge visits rather
    /// than intermediate elements (a consumer gathers arbitrary rows), so a
    /// consuming SpMM/SDDMM rescales `Pel` by its operand's visits per row,
    /// `nnz / rows` (≥ 1 after rounding down), and chunk counts roughly align
    /// before resampling; dense engines count elements directly.
    pub(crate) fn pipeline(
        &mut self,
        side: ChunkSide,
        pel_elems: u64,
        bandwidth: BandwidthShare,
        rows: u64,
        nnz: u64,
    ) {
        let sparse = matches!(self.op, PhaseOp::Spmm { .. } | PhaseOp::Sddmm { .. });
        let pel = if side == ChunkSide::Consume && sparse && rows > 0 {
            ((pel_elems as u128 * nnz as u128) / rows as u128).max(1) as u64
        } else {
            pel_elems
        };
        self.opts.bandwidth = bandwidth;
        self.opts.chunk = Some(ChunkSpec { side, pel });
    }
}

/// Runs one phase simulation — the single dispatch from a [`PhaseKey`] to its
/// engine. `sparse` is the prepared operand of an SpMM/SDDMM key (dense keys
/// ignore it); a GEMM simulates the key's own dimensions.
pub(crate) fn simulate(
    key: &PhaseKey,
    sparse: Option<&PreparedSpmm<'_>>,
    cfg: &AccelConfig,
) -> PhaseStats {
    let PhaseKey { op, tiling, classes, opts } = key;
    let operand = || sparse.expect("a sparse phase runs over its prepared operand");
    match *op {
        PhaseOp::Spmm { width } => {
            simulate_spmm_prepared(operand(), width, tiling, cfg, classes, opts)
        }
        PhaseOp::Gemm(dims) => {
            simulate_gemm_prepared(&PreparedGemm::new(dims), tiling, cfg, classes, opts)
        }
        PhaseOp::Sddmm { dot_width, heads } => {
            simulate_sddmm_prepared(operand(), dot_width, heads, tiling, cfg, classes, opts)
        }
        PhaseOp::Elementwise(wl) => simulate_elementwise(&wl, tiling, cfg, classes, opts),
    }
}

/// [`simulate`] through `cache` when given: `operand` is the sparse operand's
/// slot in the cache's scope (see [`PhaseSimCache`]).
pub(crate) fn simulate_cached(
    cache: Option<&PhaseSimCache>,
    operand: usize,
    key: &PhaseKey,
    sparse: Option<&PreparedSpmm<'_>>,
    cfg: &AccelConfig,
) -> PhaseStats {
    match cache {
        Some(cache) => cache.stats(operand, key, || simulate(key, sparse, cfg)).as_ref().clone(),
        None => simulate(key, sparse, cfg),
    }
}

/// The planned evaluation of one dataflow: every phase simulation plus the
/// composition facts that do not depend on simulation results.
pub(crate) struct EvalPlan {
    pub(crate) sp_optimized: bool,
    pub(crate) granularity: Option<Granularity>,
    pub(crate) pel: Option<u64>,
    /// The attention scoring phase, when the workload has one. It runs
    /// sequentially before the aggregation/combination pair on the full
    /// array, sharing the Aggregation tiling.
    pub(crate) sddmm: Option<PhaseKey>,
    pub(crate) agg: PhaseKey,
    pub(crate) cmb: PhaseKey,
    /// The elementwise post-phase, when the workload requests one. It runs
    /// sequentially after both matrix phases on the full array, reusing the
    /// final phase's tiling.
    pub(crate) post: Option<PhaseKey>,
}

/// The admissible bounds of one planned dataflow, handed to the pruning test
/// of [`PreparedEval::evaluate_dse`]. Each bound is computed only when read,
/// so a runtime-only search never pays for the energy and footprint axes.
pub(crate) struct DseBound<'p> {
    prep: &'p PreparedEval<'p>,
    plan: &'p EvalPlan,
    dataflow: &'p GnnDataflow,
}

impl Bound for DseBound<'_> {
    /// Lower bound on the total cycles ([`PreparedEval::lower_bound`]).
    fn cycles(&self) -> f64 {
        self.prep.lower_bound(self.plan, self.dataflow.inter) as f64
    }

    /// `[cycles, energy pJ, buffer-peak bytes]` lower bounds
    /// ([`PreparedEval::bound_vector`]).
    fn vector(&self) -> [f64; 3] {
        self.prep.bound_vector(self.plan, self.dataflow)
    }
}

/// How a DSE-driven evaluation ended (see [`PreparedEval::evaluate_dse`]).
pub(crate) enum DseEval {
    /// The dataflow evaluated; the report's phase timelines are intact.
    Report(Box<CostReport>),
    /// The admissible cycle lower bound already exceeds the pruning threshold:
    /// the candidate cannot enter the ranked result, simulation skipped.
    Pruned,
    /// The dataflow failed Table II validation.
    Invalid,
}

/// A workload's evaluation context, prepared once and shared across many
/// dataflow evaluations: the hoisted SpMM degree structures and the energy
/// model.
pub struct PreparedEval<'a> {
    workload: &'a GnnWorkload,
    cfg: &'a AccelConfig,
    spmm: PreparedSpmm<'a>,
    energy_model: EnergyModel,
}

impl<'a> PreparedEval<'a> {
    /// Prepares `workload` for repeated evaluation on `cfg`.
    pub fn new(workload: &'a GnnWorkload, cfg: &'a AccelConfig) -> Self {
        PreparedEval {
            workload,
            cfg,
            spmm: PreparedSpmm::new(&workload.degrees),
            energy_model: EnergyModel {
                gb_bank_bytes: cfg.gb_bank_bytes,
                ..EnergyModel::paper_default()
            },
        }
    }

    /// Evaluates one dataflow — bit-identical to [`evaluate`].
    pub fn evaluate(&self, dataflow: &GnnDataflow) -> Result<CostReport, EvalError> {
        let plan = plan(self.workload, self.cfg, dataflow)?;
        Ok(self.run_plan(dataflow, &plan, None))
    }

    /// [`Self::evaluate`] through a shared [`PhaseSimCache`]: bit-identical
    /// results, with repeated phase configurations simulated only once —
    /// Sequential/SP dataflows that share a phase tiling share its simulation.
    pub fn evaluate_with_cache(
        &self,
        dataflow: &GnnDataflow,
        cache: &PhaseSimCache,
    ) -> Result<CostReport, EvalError> {
        let plan = plan(self.workload, self.cfg, dataflow)?;
        Ok(self.run_plan(dataflow, &plan, Some(cache)))
    }

    /// The DSE hot path: plan the dataflow, hand its admissible [`DseBound`]
    /// to `prune_if`, and simulate (through `cache` when given) only when the
    /// caller cannot rule it out. A `true` verdict is sound exactly when the
    /// caller only prunes on what the bound proves: the real report is
    /// component-wise no better than it, so a candidate whose cycle bound
    /// already exceeds the top-K threshold — or whose bound vector some
    /// known-reachable point strictly beats on every axis — would lose anyway.
    pub(crate) fn evaluate_dse(
        &self,
        dataflow: &GnnDataflow,
        cache: Option<&PhaseSimCache>,
        prune_if: &dyn Fn(&DseBound<'_>) -> bool,
    ) -> DseEval {
        let Ok(plan) = plan(self.workload, self.cfg, dataflow) else { return DseEval::Invalid };
        if prune_if(&DseBound { prep: self, plan: &plan, dataflow }) {
            return DseEval::Pruned;
        }
        DseEval::Report(Box::new(self.run_plan(dataflow, &plan, cache)))
    }

    /// Simulates every planned phase (through `cache` when given, directly
    /// otherwise) and composes the totals — the shared tail of all evaluation
    /// entry points.
    fn run_plan(
        &self,
        dataflow: &GnnDataflow,
        plan: &EvalPlan,
        cache: Option<&PhaseSimCache>,
    ) -> CostReport {
        // One prepared workload is the cache's whole scope: operand slot 0.
        let run = |key: &PhaseKey| simulate_cached(cache, 0, key, Some(&self.spmm), self.cfg);
        let sddmm = plan.sddmm.as_ref().map(run);
        let (agg, cmb) = (run(&plan.agg), run(&plan.cmb));
        let post = plan.post.as_ref().map(run);
        self.compose(dataflow, plan, sddmm, agg, cmb, post)
    }

    /// Composes the phase results through the shared step recurrence — an
    /// attention workload's SDDMM phase is a sequential prefix, the
    /// elementwise post-phase a sequential suffix, the matrix pair a barrier
    /// pair under Seq/SP and a pipelined pair under PP — then prices the
    /// layer per Table III: the intermediate buffering term and the
    /// partition-aware intermediate energy.
    fn compose(
        &self,
        dataflow: &GnnDataflow,
        plan: &EvalPlan,
        sddmm: Option<PhaseStats>,
        agg: PhaseStats,
        cmb: PhaseStats,
        post: Option<PhaseStats>,
    ) -> CostReport {
        let cfg = self.cfg;
        // The scoring prefix and the post suffix run alone on the full array:
        // every downstream phase needs the full normalised score array (the
        // softmax is a global per-row reduction), and LayerNorm's stats sweep
        // reads whole output rows.
        let mut timeline = Composition::default();
        timeline.barrier(sddmm.as_ref());
        let (first, second) = match dataflow.phase_order {
            PhaseOrder::AC => (&agg, &cmb),
            PhaseOrder::CA => (&cmb, &agg),
        };
        if dataflow.inter == InterPhase::ParallelPipeline {
            timeline.pipelined(first, second, 0);
        } else {
            timeline.barrier([first]);
            timeline.barrier([second]);
        }
        timeline.barrier(post.as_ref());

        let buffering = self.buffering(plan, dataflow);
        // Fig. 6 / Section IV-A: Seq stages the whole intermediate on chip;
        // whatever does not fit the GB moves through DRAM instead. The
        // intermediate is the resident working set (the other operands stream
        // through small staging buffers), so the overflow is charged against
        // the full GB capacity. PP accesses its ping-pong partition instead.
        let intermediate_cost = match dataflow.inter {
            InterPhase::ParallelPipeline => {
                IntermediateCost::Partition((buffering as usize) * cfg.word_bytes)
            }
            InterPhase::Sequential => {
                let int_bytes = buffering as f64 * cfg.word_bytes as f64;
                let dram_fraction =
                    ((int_bytes - cfg.gb_bytes as f64) / int_bytes.max(1.0)).clamp(0.0, 1.0);
                IntermediateCost::GlobalBuffer { dram_fraction }
            }
            InterPhase::SequentialPipeline => IntermediateCost::GlobalBuffer { dram_fraction: 0.0 },
        };
        let energy = EnergyBreakdown::from_counters_with(
            &timeline.counters,
            &self.energy_model,
            intermediate_cost,
        );
        // The Table III buffering coexists with whichever phase is running,
        // so its bytes add on top of the composed working-set peak.
        let buffer_peak_bytes =
            timeline.peak_bytes.saturating_add(buffering.saturating_mul(cfg.word_bytes as u64));

        CostReport {
            dataflow: *dataflow,
            total_cycles: timeline.cycles,
            agg,
            cmb,
            sddmm,
            post,
            counters: timeline.counters,
            intermediate_buffer_elems: buffering,
            buffer_peak_bytes,
            pel: plan.pel,
            granularity: plan.granularity,
            sp_optimized: plan.sp_optimized,
            energy,
        }
    }

    /// Table III intermediate buffering in elements: Seq stages the whole
    /// intermediate, SP-Generic `Pel` elements, SP-Optimized nothing (it
    /// stays in the RFs), PP a 2×Pel ping-pong buffer. Known from the plan
    /// alone.
    fn buffering(&self, plan: &EvalPlan, dataflow: &GnnDataflow) -> u64 {
        match dataflow.inter {
            InterPhase::Sequential => self.workload.intermediate_elems(dataflow.phase_order),
            InterPhase::SequentialPipeline if plan.sp_optimized => 0,
            InterPhase::SequentialPipeline => plan.pel.unwrap_or(0),
            InterPhase::ParallelPipeline => 2 * plan.pel.unwrap_or(0),
        }
    }

    /// An admissible (never over-estimating) lower bound on the planned
    /// dataflow's total cycles: per phase, the maximum of the MAC roofline
    /// (`macs / PE footprint`) and the NoC bandwidth floors over the
    /// *compulsory* traffic (streaming inputs, single-write outputs) at that
    /// phase's bandwidth share; phases add under Seq/SP and overlap (max)
    /// under PP. Every term under-counts what the engines charge — stalls,
    /// adjacency traffic, psum spills, tile-synchronization, and fill
    /// overheads only push the true cycle count further up — so pruning on
    /// this bound can never discard a candidate that would have ranked.
    fn lower_bound(&self, plan: &EvalPlan, inter: InterPhase) -> u64 {
        let agg = self.phase_bound(&plan.agg);
        let cmb = self.phase_bound(&plan.cmb);
        // The SDDMM prefix always adds sequentially; its bound deliberately
        // omits the softmax sweeps (a further under-estimate, still
        // admissible).
        let sddmm = plan.sddmm.as_ref().map_or(0, |k| self.phase_bound(k));
        // The elementwise post-phase is a sequential suffix, same reasoning.
        let post = plan.post.as_ref().map_or(0, |k| self.phase_bound(k));
        sddmm
            + post
            + match inter {
                InterPhase::ParallelPipeline => agg.max(cmb),
                _ => agg + cmb,
            }
    }

    fn phase_bound(&self, key: &PhaseKey) -> u64 {
        let Some(fl) = self.phase_floor(key) else { return 0 };
        fl.macs
            .div_ceil(fl.footprint.max(1))
            .max((fl.a_reads + fl.b_reads).div_ceil(fl.bandwidth.dist.max(1) as u64))
            .max(fl.writes.div_ceil(fl.bandwidth.red.max(1) as u64))
    }

    /// The compulsory work and traffic of one planned phase, split by operand
    /// class so [`Self::bound_vector`]'s energy axis can gate out the
    /// (possibly discounted) `Intermediate` class while the cycle bound keeps
    /// summing the raw read streams. `None` when the engine would early-return
    /// a zero report.
    fn phase_floor(&self, key: &PhaseKey) -> Option<PhaseFloor> {
        let (v, nnz) = (self.workload.v as u64, self.workload.nnz);
        // (MACs, compulsory streamed `a` reads, weight reads, output writes).
        let (macs, a_reads, b_reads, writes) = match key.op {
            PhaseOp::Spmm { width } => {
                let w = width as u64;
                if v == 0 || w == 0 || nnz == 0 {
                    return None;
                }
                // One gathered dense element per MAC (the engine charges
                // `edge_visits × width` per pass, which covers each
                // (edge, column) at least once).
                (nnz * w, nnz * w, 0, v * w)
            }
            PhaseOp::Gemm(dims) => {
                let (v, f, g) = (dims.v as u64, dims.f as u64, dims.g as u64);
                if v == 0 || f == 0 || g == 0 {
                    return None;
                }
                // Every weight is fetched at least once.
                (v * f * g, v * f, f * g, v * g)
            }
            PhaseOp::Sddmm { dot_width, heads } => {
                let (d, h) = (dot_width as u64, heads.max(1) as u64);
                if v == 0 || d == 0 || nnz == 0 {
                    return None;
                }
                // Compulsory: one gathered K element per MAC; one score write
                // per (edge, head).
                (h * nnz * d, h * nnz * d, 0, h * nnz)
            }
            PhaseOp::Elementwise(wl) => {
                let elems = wl.elems();
                if elems == 0 {
                    return None;
                }
                // Compulsory: one ALU op and one streamed read per element per
                // sweep, one write-back per element.
                let macs = elems * wl.op.sweeps();
                (macs, macs, 0, elems)
            }
        };
        Some(PhaseFloor {
            macs,
            footprint: key.tiling.pe_footprint() as u64,
            a_reads: if key.opts.input_resident { 0 } else { a_reads },
            b_reads,
            writes: if key.opts.output_stays_local { 0 } else { writes },
            classes: key.classes,
            bandwidth: key.opts.bandwidth,
        })
    }

    /// The per-objective admissible bound vector of a planned dataflow:
    /// `[total cycles, energy pJ, buffer-peak bytes]`, each component never
    /// over-estimating the corresponding [`CostReport`] axis.
    ///
    /// * Cycles — [`Self::lower_bound`], unchanged from single-objective
    ///   pruning.
    /// * Energy — the compulsory GB traffic of *non-Intermediate* operand
    ///   classes at the flat GB rate. [`EnergyBreakdown`] charges every
    ///   non-Intermediate access at exactly `gb_access_pj` (only the
    ///   Intermediate class is ever discounted to a partition rate), and the
    ///   bound omits RF, DRAM-overflow, adjacency-structure, softmax, and
    ///   spill energy entirely, so the truth is only ever higher.
    /// * Footprint — the Table III intermediate buffering alone, known from
    ///   the plan without simulation; `compose` adds every phase's strictly
    ///   positive staging peak on top of it.
    fn bound_vector(&self, plan: &EvalPlan, dataflow: &GnnDataflow) -> [f64; 3] {
        let cycles = self.lower_bound(plan, dataflow.inter) as f64;
        let phases = [Some(&plan.agg), Some(&plan.cmb), plan.sddmm.as_ref(), plan.post.as_ref()];
        let mut gb_accesses: u64 = 0;
        for fl in phases.into_iter().flatten().filter_map(|k| self.phase_floor(k)) {
            if fl.classes.a_input != OperandClass::Intermediate {
                gb_accesses += fl.a_reads;
            }
            if fl.classes.b_input != OperandClass::Intermediate {
                gb_accesses += fl.b_reads;
            }
            if fl.classes.output != OperandClass::Intermediate {
                gb_accesses += fl.writes;
            }
        }
        let energy = gb_accesses as f64 * self.energy_model.gb_access_pj;
        let footprint =
            self.buffering(plan, dataflow).saturating_mul(self.cfg.word_bytes as u64) as f64;
        [cycles, energy, footprint]
    }
}

/// The base engine options of every planned phase on `cfg`: the full NoC,
/// nothing resident, no chunk marks, and the storage budget the machine's
/// knobs ask for. Capacity enforcement is opt-in
/// (`ModelKnobs::enforce_capacity`): the engines always *report* their
/// working-set peaks, but only a finite budget makes overflowing tiles pay
/// the spill recipe. `UNBOUNDED` keeps every plan bit-identical to the
/// unconstrained paper model.
pub(crate) fn phase_opts(cfg: &AccelConfig) -> EngineOptions {
    let mut opts = EngineOptions::plain(cfg.full_bandwidth());
    if cfg.knobs.enforce_capacity {
        opts.capacity =
            CapacityBudget { rf_bytes_per_pe: cfg.rf_bytes_per_pe, gb_bytes: cfg.gb_bytes };
    }
    opts
}

/// Plans the phase simulations of `dataflow` running `workload` on `cfg` —
/// the per-phase engine options exactly as the inter-phase cost model
/// prescribes them. Shared by [`PreparedEval`] and the chain lowering of
/// [`crate::models::to_chain`], so a lowered layer runs the very same keys.
pub(crate) fn plan(
    workload: &GnnWorkload,
    cfg: &AccelConfig,
    dataflow: &GnnDataflow,
) -> Result<EvalPlan, EvalError> {
    validate(dataflow)?;
    let needed = dataflow.pe_footprint();
    if needed > cfg.num_pes {
        return Err(EvalError::Oversubscribed { needed, available: cfg.num_pes });
    }
    let sp_optimized = dataflow.is_sp_optimized();
    let base = phase_opts(cfg);

    // Attention (GAT) workloads prepend an SDDMM scoring phase: scores are
    // computed on the input features (AC only) with the layer's Aggregation
    // tiling, which must satisfy the SDDMM loop-order rule.
    let sddmm = match workload.attention {
        None => None,
        Some(att) => {
            if dataflow.phase_order != PhaseOrder::AC {
                return Err(EvalError::AttentionRequiresAc);
            }
            validate_sddmm(&dataflow.agg)?;
            let mut opts = base;
            opts.reference_walk = cfg.knobs.reference_walk;
            // SP-Optimized attention: both phases share the tiling, so the
            // scores never leave the PE register files — the softmax runs
            // locally and the aggregation gathers the resident values (its
            // `scores_resident` flag below).
            opts.output_stays_local = sp_optimized;
            Some(PhaseKey {
                op: PhaseOp::Sddmm { dot_width: att.dot_width(workload.f), heads: att.heads },
                tiling: dataflow.agg,
                classes: OperandClasses::sddmm(),
                opts,
            })
        }
    };
    // A Sequential dataflow's loop orders may *happen* to be
    // pipeline-compatible, but nothing is pipelined — report no
    // granularity/Pel for it.
    let granularity = match dataflow.inter {
        InterPhase::Sequential => None,
        _ => dataflow.granularity(),
    };
    let pel = granularity.and(intermediate_pel(workload, dataflow));

    let (agg_classes, cmb_classes) = match (workload.attention, dataflow.phase_order) {
        // GAT aggregation gathers SDDMM scores as its per-edge values.
        (Some(_), _) => (OperandClasses::aggregation_gat(), OperandClasses::combination_ac()),
        (None, PhaseOrder::AC) => {
            (OperandClasses::aggregation_ac(), OperandClasses::combination_ac())
        }
        (None, PhaseOrder::CA) => {
            (OperandClasses::aggregation_ca(), OperandClasses::combination_ca())
        }
    };
    let mut agg_opts = base;
    // The per-edge oracle only exists for the sparse walks; GEMM has no
    // reference path, so its options stay untouched (and cache-stable).
    agg_opts.reference_walk = cfg.knobs.reference_walk;
    // The SDDMM producer kept the scores local (see above): the aggregation
    // reads them from the RFs, fetching only the CSR structure.
    agg_opts.scores_resident = sddmm.is_some() && sp_optimized;
    // The dense width Aggregation streams per neighbour: F under AC, G under
    // CA.
    let width = match dataflow.phase_order {
        PhaseOrder::AC => workload.f,
        PhaseOrder::CA => workload.g,
    };
    let mut agg = PhaseKey {
        op: PhaseOp::Spmm { width },
        tiling: dataflow.agg,
        classes: agg_classes,
        opts: agg_opts,
    };
    let mut cmb = PhaseKey {
        op: PhaseOp::Gemm(GemmDims { v: workload.v, f: workload.f, g: workload.g }),
        tiling: dataflow.cmb,
        classes: cmb_classes,
        opts: base,
    };
    let (producer, consumer) = match dataflow.phase_order {
        PhaseOrder::AC => (&mut agg, &mut cmb),
        PhaseOrder::CA => (&mut cmb, &mut agg),
    };
    match dataflow.inter {
        InterPhase::Sequential => {}
        InterPhase::SequentialPipeline => {
            // SP-Optimized: the intermediate never leaves the PE register
            // files between the producer and the consumer.
            producer.opts.output_stays_local = sp_optimized;
            consumer.opts.input_resident = sp_optimized;
        }
        InterPhase::ParallelPipeline => {
            // NoC bandwidth is shared between the concurrently-running
            // partitions in proportion to their PE allocation (Section V-C3).
            let pel_elems = pel.expect("validated PP dataflow has a granularity");
            let (p_bw, c_bw) = cfg.partition_bandwidth(
                producer.tiling.pe_footprint(),
                consumer.tiling.pe_footprint(),
            );
            let (rows, nnz) = (workload.v as u64, workload.nnz);
            producer.pipeline(ChunkSide::Produce, pel_elems, p_bw, rows, nnz);
            consumer.pipeline(ChunkSide::Consume, pel_elems, c_bw, rows, nnz);
        }
    }

    // The elementwise post-phase streams the finished `V×G` output through
    // the array once more (twice for LayerNorm), after both matrix phases: it
    // reuses the *final* phase's tiling — the output is already laid out for
    // it — at full bandwidth (nothing else runs concurrently).
    let post = match workload.post_op {
        None => None,
        Some(op) => {
            let tiling = match dataflow.phase_order {
                PhaseOrder::AC => dataflow.cmb,
                PhaseOrder::CA => dataflow.agg,
            };
            validate_elementwise(&tiling)?;
            Some(PhaseKey {
                op: PhaseOp::Elementwise(ElementwiseWorkload {
                    rows: workload.v,
                    width: workload.g,
                    op,
                }),
                tiling,
                classes: OperandClasses::elementwise_on(OperandClass::Output),
                opts: base,
            })
        }
    };

    Ok(EvalPlan { sp_optimized, granularity, pel, sddmm, agg, cmb, post })
}

/// One phase's compulsory floor (see [`PreparedEval::phase_floor`]): MACs, PE
/// footprint, class-attributed streaming reads (`a`/`b` operands) and
/// single-write outputs, at the phase's bandwidth share.
struct PhaseFloor {
    macs: u64,
    footprint: u64,
    a_reads: u64,
    b_reads: u64,
    writes: u64,
    classes: OperandClasses,
    bandwidth: BandwidthShare,
}

/// A shared, thread-safe memo of phase simulations for one prepared workload
/// — a [`PreparedEval`], or the graph a model search lowers every chain onto —
/// keyed by the full phase plan plus the slot of the sparse operand the phase
/// walks within that scope (chains may mix several adjacencies).
///
/// Purely an execution optimisation: hits return the exact [`PhaseStats`] the
/// engine would recompute, so cached and uncached evaluations are
/// bit-identical. Entries whose chunk timelines are enormous (degenerately
/// tiled PP candidates) are recomputed instead of cached to keep the memo's
/// footprint bounded.
#[derive(Debug, Default)]
pub struct PhaseSimCache {
    inner: Mutex<HashMap<(usize, PhaseKey), Arc<PhaseStats>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// Chunk-timeline length above which a simulation is recomputed per use rather
/// than cached (a degenerately-tiled PP candidate can mark millions of chunks).
const MAX_CACHED_MARKS: usize = 1 << 16;

impl PhaseSimCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lookups answered from the memo.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran a phase engine (unique phase configurations, plus
    /// recomputations of oversized-timeline entries).
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct phase configurations currently memoised.
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).len()
    }

    /// `true` when nothing is memoised yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stats for `key` over operand slot `operand`, produced by
    /// `simulate` on miss.
    fn stats(
        &self,
        operand: usize,
        key: &PhaseKey,
        simulate: impl FnOnce() -> PhaseStats,
    ) -> Arc<PhaseStats> {
        if let Some(hit) = lock_recover(&self.inner).get(&(operand, *key)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        // Simulate outside the lock (sims are long; racing duplicates are
        // deterministic, so first-write-wins is harmless).
        self.misses.fetch_add(1, Ordering::Relaxed);
        let stats = Arc::new(simulate());
        if stats.chunk_marks.len() > MAX_CACHED_MARKS {
            return stats;
        }
        lock_recover(&self.inner)
            .entry((operand, *key))
            .or_insert(stats)
            .clone()
    }
}

/// The `Pel` implied by a pipelined dataflow's granularity for `workload`:
/// intermediate-matrix geometry per Section IV-D, with footnote 1's "max tile
/// across the two phases" rule. `None` when the loop-order pair cannot
/// pipeline. Shared by [`plan`] and the chain lowering of
/// [`crate::models::to_chain`] (which re-derives it for re-tiled stages).
pub(crate) fn intermediate_pel(workload: &GnnWorkload, dataflow: &GnnDataflow) -> Option<u64> {
    let granularity = dataflow.granularity()?;
    let (rows, cols, t_row_max, t_col_max) = match dataflow.phase_order {
        PhaseOrder::AC => (
            workload.v,
            workload.f,
            dataflow.agg.tile_of(Dim::V).max(dataflow.cmb.tile_of(Dim::V)),
            dataflow.agg.tile_of(Dim::F).max(dataflow.cmb.tile_of(Dim::F)),
        ),
        PhaseOrder::CA => (
            workload.v,
            workload.g,
            dataflow.cmb.tile_of(Dim::V).max(dataflow.agg.tile_of(Dim::N)),
            dataflow.cmb.tile_of(Dim::G).max(dataflow.agg.tile_of(Dim::F)),
        ),
    };
    Some(granularity.pel(rows, cols, t_row_max, t_col_max) as u64)
}



#[cfg(test)]
mod tests {
    use super::*;
    use omega_dataflow::presets::Preset;
    use omega_graph::DatasetSpec;

    fn small_workload() -> GnnWorkload {
        let d = DatasetSpec::mutag().generate(1);
        GnnWorkload::gcn_layer(&d, 16)
    }

    fn eval_preset(name: &str, wl: &GnnWorkload, cfg: &AccelConfig) -> CostReport {
        let df = crate::dse::concretize_preset(&Preset::by_name(name).unwrap(), wl, cfg);
        evaluate(wl, &df, cfg).unwrap()
    }

    #[test]
    fn all_presets_evaluate_on_mutag() {
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        for p in Preset::all() {
            let r = eval_preset(p.name, &wl, &cfg);
            assert!(r.total_cycles > 0, "{}", p.name);
            assert!(r.energy.total_pj() > 0.0, "{}", p.name);
            assert_eq!(r.agg.macs, wl.nnz * wl.f as u64, "{}", p.name);
            assert_eq!(r.cmb.macs, (wl.v * wl.f * wl.g) as u64, "{}", p.name);
        }
    }

    #[test]
    fn seq_runtime_is_sum_of_phases() {
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        let r = eval_preset("Seq1", &wl, &cfg);
        assert_eq!(r.total_cycles, r.agg.cycles + r.cmb.cycles);
        // Table III: Seq buffers the whole V×F intermediate.
        assert_eq!(r.intermediate_buffer_elems, (wl.v * wl.f) as u64);
        assert!(!r.sp_optimized);
        assert!(r.granularity.is_none());
    }

    #[test]
    fn sp_optimized_has_zero_intermediate_buffering_and_traffic() {
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        let r = eval_preset("SP2", &wl, &cfg);
        assert!(r.sp_optimized);
        assert_eq!(r.intermediate_buffer_elems, 0);
        use omega_accel::OperandClass;
        assert_eq!(r.counters.gb_of(OperandClass::Intermediate), 0);
        assert_eq!(r.total_cycles, r.agg.cycles + r.cmb.cycles);
    }

    #[test]
    fn sp_beats_seq_on_intermediate_energy() {
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        let seq = eval_preset("Seq1", &wl, &cfg);
        let sp = eval_preset("SP2", &wl, &cfg);
        assert!(sp.energy.intermediate_pj < seq.energy.intermediate_pj);
    }

    #[test]
    fn pp_buffers_two_pel_and_uses_pipeline_runtime() {
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        let r = eval_preset("PP3", &wl, &cfg);
        let pel = r.pel.unwrap();
        assert_eq!(r.intermediate_buffer_elems, 2 * pel);
        // Pipelining overlaps: total < sum of phases, ≥ the slower phase.
        assert!(r.total_cycles <= r.agg.cycles + r.cmb.cycles);
        assert!(r.total_cycles >= r.agg.cycles.max(r.cmb.cycles));
        assert!(r.granularity.is_some());
    }

    #[test]
    fn pp_intermediate_energy_discounted_by_partition() {
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        let seq = eval_preset("Seq1", &wl, &cfg);
        let pp = eval_preset("PP1", &wl, &cfg);
        // Same order of intermediate accesses but the PP partition is small →
        // cheaper per access.
        let seq_rate = seq.energy.intermediate_pj
            / seq.counters.gb_of(omega_accel::OperandClass::Intermediate).max(1) as f64;
        let pp_rate = pp.energy.intermediate_pj
            / pp.counters.gb_of(omega_accel::OperandClass::Intermediate).max(1) as f64;
        assert!(pp_rate < seq_rate, "pp {pp_rate} vs seq {seq_rate}");
    }

    #[test]
    fn buffer_peak_composes_like_the_runtime() {
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        let phase_peak = |s: &PhaseStats| -> u64 {
            s.gb_peak_bytes.saturating_add(s.rf_peak_bytes.saturating_mul(s.pe_footprint as u64))
        };
        // Sequential: max of the phase peaks plus Table III buffering.
        let seq = eval_preset("Seq1", &wl, &cfg);
        assert!(seq.buffer_peak_bytes > 0);
        assert_eq!(
            seq.buffer_peak_bytes,
            phase_peak(&seq.agg).max(phase_peak(&seq.cmb))
                + seq.intermediate_buffer_elems * cfg.word_bytes as u64
        );
        // ParallelPipeline: concurrent phases add, plus the 2×Pel ping-pong.
        let pp = eval_preset("PP3", &wl, &cfg);
        assert_eq!(
            pp.buffer_peak_bytes,
            phase_peak(&pp.agg)
                + phase_peak(&pp.cmb)
                + pp.intermediate_buffer_elems * cfg.word_bytes as u64
        );
    }

    #[test]
    fn enforce_capacity_is_identity_when_unbounded_and_costed_when_finite() {
        let wl = small_workload();
        let cfg = AccelConfig::paper_default(); // enforce_capacity defaults off
        let baseline = eval_preset("Seq1", &wl, &cfg);
        // Turning enforcement on with the (ample) default budgets must not
        // change anything unless a working set actually overflows.
        let mut enforced = cfg;
        enforced.knobs.enforce_capacity = true;
        enforced.rf_bytes_per_pe = usize::MAX;
        enforced.gb_bytes = usize::MAX;
        let wide = eval_preset("Seq1", &wl, &enforced);
        assert_eq!(wide.total_cycles, baseline.total_cycles);
        assert_eq!(wide.counters.total_gb_reads() + wide.counters.total_gb_writes(), baseline.counters.total_gb_reads() + baseline.counters.total_gb_writes());
        // A starved global buffer forces spill traffic and extra cycles.
        let mut tight = enforced;
        tight.gb_bytes = 1 << 10;
        let starved = eval_preset("Seq1", &wl, &tight);
        assert!(starved.total_cycles > baseline.total_cycles);
        assert!(starved.counters.total_gb_reads() + starved.counters.total_gb_writes() > baseline.counters.total_gb_reads() + baseline.counters.total_gb_writes());
        // The reported demand itself is capacity-independent.
        assert_eq!(starved.buffer_peak_bytes, baseline.buffer_peak_bytes);
    }

    #[test]
    fn illegal_dataflow_is_rejected() {
        use omega_dataflow::{IntraTiling, LoopOrder, Phase};
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        let agg_order = LoopOrder::new(Phase::Aggregation, [Dim::N, Dim::V, Dim::F]).unwrap();
        let cmb_order = LoopOrder::new(Phase::Combination, [Dim::V, Dim::G, Dim::F]).unwrap();
        let df = GnnDataflow {
            inter: InterPhase::ParallelPipeline,
            phase_order: PhaseOrder::AC,
            agg: IntraTiling::new(Phase::Aggregation, agg_order, [1, 2, 2]),
            cmb: IntraTiling::new(Phase::Combination, cmb_order, [2, 2, 1]),
        };
        let err = evaluate(&wl, &df, &cfg).unwrap_err();
        assert!(matches!(err, EvalError::Invalid(_)));
        assert!(err.to_string().contains("NVF"));
    }

    #[test]
    fn ca_phase_order_evaluates() {
        use omega_dataflow::{IntraTiling, LoopOrder, Phase};
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        // Seq CA with simple tilings.
        let agg_order = LoopOrder::new(Phase::Aggregation, [Dim::V, Dim::F, Dim::N]).unwrap();
        let cmb_order = LoopOrder::new(Phase::Combination, [Dim::V, Dim::G, Dim::F]).unwrap();
        let df = GnnDataflow {
            inter: InterPhase::Sequential,
            phase_order: PhaseOrder::CA,
            agg: IntraTiling::new(Phase::Aggregation, agg_order, [16, 16, 1]),
            cmb: IntraTiling::new(Phase::Combination, cmb_order, [32, 16, 1]),
        };
        let r = evaluate(&wl, &df, &cfg).unwrap();
        // CA aggregation streams G-wide rows.
        assert_eq!(r.agg.macs, wl.nnz * wl.g as u64);
        // CA intermediate is V×G.
        assert_eq!(r.intermediate_buffer_elems, (wl.v * wl.g) as u64);
    }

    fn gat_workload() -> GnnWorkload {
        let d = DatasetSpec::mutag().generate(1);
        GnnWorkload::gat_layer(&d, 16, 4)
    }

    #[test]
    fn gat_workload_prepends_a_scoring_phase() {
        let wl = gat_workload();
        let cfg = AccelConfig::paper_default();
        for name in ["Seq1", "SP2", "PP3"] {
            let r = eval_preset(name, &wl, &cfg);
            let sddmm = r.sddmm.as_ref().expect("attention workload scores");
            // heads × nnz × (F/heads) dot MACs; sequential prefix.
            let att = wl.attention.unwrap();
            assert_eq!(
                sddmm.macs,
                wl.nnz * (att.heads * att.dot_width(wl.f)) as u64,
                "{name}"
            );
            assert!(sddmm.cycles > 0, "{name}");
            let base = match name {
                // PP overlaps agg/cmb, Seq/SP add them.
                "PP3" => r.total_cycles,
                _ => r.agg.cycles + r.cmb.cycles + sddmm.cycles,
            };
            assert_eq!(
                r.total_cycles, base,
                "{name}: sddmm must add sequentially"
            );
            // Scores flow through the Score bucket somewhere (GB or RF).
            let plain = {
                let mut p = wl.clone();
                p.attention = None;
                eval_preset(name, &p, &cfg)
            };
            assert!(r.total_cycles > plain.total_cycles, "{name}");
        }
    }

    #[test]
    fn sp_optimized_gat_keeps_scores_in_the_register_files() {
        let wl = gat_workload();
        let cfg = AccelConfig::paper_default();
        let seq = eval_preset("Seq1", &wl, &cfg);
        let sp = eval_preset("SP2", &wl, &cfg);
        use omega_accel::OperandClass;
        assert!(seq.counters.gb_of(OperandClass::EdgeScore) > 0);
        assert_eq!(sp.counters.gb_of(OperandClass::EdgeScore), 0, "SP-Optimized scores stay local");
    }

    #[test]
    fn gat_rejects_ca_and_sddmm_illegal_orders() {
        use omega_dataflow::{IntraTiling, LoopOrder, Phase};
        let wl = gat_workload();
        let cfg = AccelConfig::paper_default();
        // CA phase order: scores need the AC structure.
        let agg_order = LoopOrder::new(Phase::Aggregation, [Dim::V, Dim::F, Dim::N]).unwrap();
        let cmb_order = LoopOrder::new(Phase::Combination, [Dim::V, Dim::G, Dim::F]).unwrap();
        let ca = GnnDataflow {
            inter: InterPhase::Sequential,
            phase_order: PhaseOrder::CA,
            agg: IntraTiling::new(Phase::Aggregation, agg_order, [16, 16, 1]),
            cmb: IntraTiling::new(Phase::Combination, cmb_order, [32, 16, 1]),
        };
        assert_eq!(evaluate(&wl, &ca, &cfg).unwrap_err(), EvalError::AttentionRequiresAc);
        // N-before-V aggregation order: the SDDMM cannot stream its softmax.
        let nvf = LoopOrder::new(Phase::Aggregation, [Dim::N, Dim::V, Dim::F]).unwrap();
        let bad = GnnDataflow {
            inter: InterPhase::Sequential,
            phase_order: PhaseOrder::AC,
            agg: IntraTiling::new(Phase::Aggregation, nvf, [1, 16, 16]),
            cmb: IntraTiling::new(Phase::Combination, cmb_order, [32, 16, 1]),
        };
        let err = evaluate(&wl, &bad, &cfg).unwrap_err();
        assert!(matches!(
            err,
            EvalError::Invalid(ValidationError::SddmmOrderUnsupported { .. })
        ));
        // The same dataflows are fine without attention.
        let mut plain = wl.clone();
        plain.attention = None;
        assert!(evaluate(&plain, &ca, &cfg).is_ok());
        assert!(evaluate(&plain, &bad, &cfg).is_ok());
    }

    #[test]
    fn tilings_that_do_not_fit_the_array_are_rejected() {
        use omega_dataflow::{IntraTiling, LoopOrder, Phase};
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        // PP_AC(VsFsNt, VsGsFt) with tiles (32,1,16, 32,16,1): two 512-PE
        // partitions running at once need 1,024 PEs.
        let agg_order = LoopOrder::new(Phase::Aggregation, [Dim::V, Dim::F, Dim::N]).unwrap();
        let cmb_order = LoopOrder::new(Phase::Combination, [Dim::V, Dim::G, Dim::F]).unwrap();
        let pp = GnnDataflow {
            inter: InterPhase::ParallelPipeline,
            phase_order: PhaseOrder::AC,
            agg: IntraTiling::new(Phase::Aggregation, agg_order, [32, 16, 1]),
            cmb: IntraTiling::new(Phase::Combination, cmb_order, [32, 16, 1]),
        };
        assert_eq!(pp.to_string(), "PP_AC(VsFsNt, VsGsFt)");
        assert_eq!(
            evaluate(&wl, &pp, &cfg).unwrap_err(),
            EvalError::Oversubscribed { needed: 1024, available: 512 }
        );
        // Time-sharing the array, each 512-PE phase fits on its own.
        let sp = GnnDataflow { inter: InterPhase::SequentialPipeline, ..pp };
        assert!(evaluate(&wl, &sp, &cfg).is_ok());
        // One phase alone larger than the array never fits.
        let small = AccelConfig::paper_default().with_pes(256);
        assert_eq!(
            evaluate(&wl, &sp, &small).unwrap_err(),
            EvalError::Oversubscribed { needed: 512, available: 256 }
        );
    }

    #[test]
    fn gat_cached_evaluation_is_bit_identical() {
        let wl = gat_workload();
        let cfg = AccelConfig::paper_default();
        let prep = PreparedEval::new(&wl, &cfg);
        let cache = PhaseSimCache::new();
        for name in ["Seq1", "Seq2", "SP1", "SP2", "PP1"] {
            let df = crate::dse::concretize_preset(&Preset::by_name(name).unwrap(), &wl, &cfg);
            let direct = prep.evaluate(&df).unwrap();
            let cached = prep.evaluate_with_cache(&df, &cache).unwrap();
            assert_eq!(direct.total_cycles, cached.total_cycles, "{name}");
            assert_eq!(direct.counters, cached.counters, "{name}");
            assert_eq!(
                direct.sddmm.as_ref().map(|s| s.cycles),
                cached.sddmm.as_ref().map(|s| s.cycles),
                "{name}"
            );
        }
        assert!(cache.hits() > 0, "shared agg tilings must share SDDMM sims");
    }

    #[test]
    fn post_op_adds_a_sequential_elementwise_suffix() {
        use omega_accel::engine::ElementwiseOp;
        let mut wl = small_workload();
        let cfg = AccelConfig::paper_default();
        for name in ["Seq1", "SP2", "PP3"] {
            let plain = eval_preset(name, &wl, &cfg);
            assert!(plain.post.is_none(), "{name}");
            wl.post_op = Some(ElementwiseOp::Activation);
            let act = eval_preset(name, &wl, &cfg);
            let post = act.post.as_ref().expect("post stats");
            assert!(post.cycles > 0, "{name}");
            // One ALU op per output element for the activation sweep.
            assert_eq!(post.macs, (wl.v * wl.g) as u64, "{name}");
            // The suffix adds sequentially on top of the unchanged composition.
            assert_eq!(act.total_cycles, plain.total_cycles + post.cycles, "{name}");
            assert_eq!(act.agg.cycles, plain.agg.cycles, "{name}");
            assert_eq!(act.cmb.cycles, plain.cmb.cycles, "{name}");
            // LayerNorm's stats sweep costs more than the activation.
            wl.post_op = Some(ElementwiseOp::LayerNorm);
            let norm = eval_preset(name, &wl, &cfg);
            let norm_post = norm.post.as_ref().unwrap();
            assert_eq!(norm_post.macs, 2 * (wl.v * wl.g) as u64, "{name}");
            assert!(norm_post.cycles > post.cycles, "{name}");
            wl.post_op = None;
        }
    }

    #[test]
    fn post_op_follows_the_final_phase_tiling_under_ca() {
        use omega_accel::engine::ElementwiseOp;
        use omega_dataflow::{IntraTiling, LoopOrder, Phase};
        let mut wl = small_workload();
        wl.post_op = Some(ElementwiseOp::LayerNorm);
        let cfg = AccelConfig::paper_default();
        let agg_order = LoopOrder::new(Phase::Aggregation, [Dim::V, Dim::F, Dim::N]).unwrap();
        let cmb_order = LoopOrder::new(Phase::Combination, [Dim::V, Dim::G, Dim::F]).unwrap();
        let df = GnnDataflow {
            inter: InterPhase::Sequential,
            phase_order: PhaseOrder::CA,
            agg: IntraTiling::new(Phase::Aggregation, agg_order, [16, 16, 1]),
            cmb: IntraTiling::new(Phase::Combination, cmb_order, [32, 16, 1]),
        };
        let r = evaluate(&wl, &df, &cfg).unwrap();
        let post = r.post.as_ref().expect("post stats");
        // Two sweeps over V×G on the CA-final (Aggregation) tiling.
        assert_eq!(post.macs, 2 * (wl.v * wl.g) as u64);
        assert_eq!(r.total_cycles, r.agg.cycles + r.cmb.cycles + post.cycles);
        // Post traffic lands in the Output bucket.
        use omega_accel::OperandClass;
        assert!(r.counters.gb_of(OperandClass::Output) > 0);
    }

    #[test]
    fn post_op_cached_evaluation_is_bit_identical() {
        use omega_accel::engine::ElementwiseOp;
        let mut wl = small_workload();
        wl.post_op = Some(ElementwiseOp::Activation);
        let cfg = AccelConfig::paper_default();
        let prep = PreparedEval::new(&wl, &cfg);
        let cache = PhaseSimCache::new();
        for name in ["Seq1", "Seq2", "SP1", "SP2", "PP1"] {
            let df = crate::dse::concretize_preset(&Preset::by_name(name).unwrap(), &wl, &cfg);
            let direct = prep.evaluate(&df).unwrap();
            let cached = prep.evaluate_with_cache(&df, &cache).unwrap();
            assert_eq!(direct.total_cycles, cached.total_cycles, "{name}");
            assert_eq!(direct.counters, cached.counters, "{name}");
            assert_eq!(
                direct.post.as_ref().map(|s| s.cycles),
                cached.post.as_ref().map(|s| s.cycles),
                "{name}"
            );
        }
        assert!(cache.hits() > 0, "shared final tilings must share post sims");
    }
}
