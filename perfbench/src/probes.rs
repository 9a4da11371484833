//! Per-call probes of the phase engines and the evaluator, timed from outside
//! through their public entry points over a fixed sample of a workload's
//! designs (its ranked winners plus the preset candidates).

use std::time::Instant;

use omega_accel::engine::{
    simulate_gemm_prepared, simulate_sddmm_prepared, simulate_spmm_prepared, EngineOptions,
    GemmDims, OperandClasses, PreparedGemm, PreparedSpmm,
};
use omega_core::mapper::extended_candidates;
use omega_core::{AccelConfig, GnnDataflow, GnnWorkload, PhaseSimCache, PreparedEval};
use omega_dataflow::{validate_sddmm, Dim, PhaseOrder};

/// Minimum wall time each warm per-call measurement accumulates.
const PROBE_MIN_S: f64 = 0.2;

/// The design sample: `ranked` winners plus the preset candidates, keeping
/// only designs that evaluate on `wl`, deduplicated, in a fixed order.
pub fn design_sample(
    wl: &GnnWorkload,
    cfg: &AccelConfig,
    ranked: impl IntoIterator<Item = GnnDataflow>,
) -> Vec<GnnDataflow> {
    let prep = PreparedEval::new(wl, cfg);
    let mut out: Vec<GnnDataflow> = Vec::new();
    for df in ranked.into_iter().chain(extended_candidates(wl, cfg)) {
        if !out.contains(&df) && prep.evaluate(&df).is_ok() {
            out.push(df);
        }
    }
    out
}

/// Engine-layer per-call costs.
pub struct EngineProbe {
    /// Summary preparation: first SpMM call on a fresh `PreparedSpmm` minus
    /// the second, summed over the sample's distinct tile heights (s).
    pub prepare_s: f64,
    pub spmm_us: f64,
    /// 0 when the workload has no attention (no SDDMM phase).
    pub sddmm_us: f64,
    pub gemm_us: f64,
}

impl EngineProbe {
    /// Mean µs of one engine call over the phase kinds the workload runs,
    /// the unit cost behind the derived rows of the trace table.
    pub fn mean_call_us(&self) -> f64 {
        if self.sddmm_us > 0.0 {
            (self.spmm_us + self.gemm_us + self.sddmm_us) / 3.0
        } else {
            (self.spmm_us + self.gemm_us) / 2.0
        }
    }
}

/// Mean µs per call of `f` over the sample, repeating whole passes until at
/// least [`PROBE_MIN_S`] has accumulated. `f` runs once per item untimed first
/// (warm-up). Returns 0 for an empty sample.
fn per_call_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    items.iter().for_each(&mut f);
    let t = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || t.elapsed().as_secs_f64() < PROBE_MIN_S {
        items.iter().for_each(&mut f);
        calls += items.len();
    }
    t.elapsed().as_secs_f64() * 1e6 / calls as f64
}

fn agg_classes(wl: &GnnWorkload, order: PhaseOrder) -> OperandClasses {
    match (wl.attention, order) {
        (Some(_), _) => OperandClasses::aggregation_gat(),
        (None, PhaseOrder::AC) => OperandClasses::aggregation_ac(),
        (None, PhaseOrder::CA) => OperandClasses::aggregation_ca(),
    }
}

fn agg_width(wl: &GnnWorkload, order: PhaseOrder) -> usize {
    match order {
        PhaseOrder::AC => wl.f,
        PhaseOrder::CA => wl.g,
    }
}

pub fn engine(wl: &GnnWorkload, cfg: &AccelConfig, designs: &[GnnDataflow]) -> EngineProbe {
    let opts = EngineOptions::plain(cfg.full_bandwidth());
    let spmm = |prep: &PreparedSpmm<'_>, df: &GnnDataflow| {
        std::hint::black_box(simulate_spmm_prepared(
            prep,
            agg_width(wl, df.phase_order),
            &df.agg,
            cfg,
            &agg_classes(wl, df.phase_order),
            &opts,
        ));
    };

    let mut heights: Vec<usize> = designs.iter().map(|df| df.agg.tile_of(Dim::V)).collect();
    heights.sort_unstable();
    heights.dedup();
    let mut prepare_s = 0.0;
    for t_v in heights {
        let df = designs
            .iter()
            .find(|df| df.agg.tile_of(Dim::V) == t_v)
            .expect("height from sample");
        let fresh = PreparedSpmm::new(&wl.degrees);
        let t = Instant::now();
        spmm(&fresh, df);
        let first = t.elapsed().as_secs_f64();
        let t = Instant::now();
        spmm(&fresh, df);
        prepare_s += first - t.elapsed().as_secs_f64();
    }

    let prep = PreparedSpmm::new(&wl.degrees);
    let spmm_us = per_call_us(designs, |df| spmm(&prep, df));

    let gemm = PreparedGemm::new(GemmDims {
        v: wl.v,
        f: wl.f,
        g: wl.g,
    });
    let gemm_us = per_call_us(designs, |df| {
        let classes = match df.phase_order {
            PhaseOrder::AC => OperandClasses::combination_ac(),
            PhaseOrder::CA => OperandClasses::combination_ca(),
        };
        std::hint::black_box(simulate_gemm_prepared(&gemm, &df.cmb, cfg, &classes, &opts));
    });

    let sddmm_us = match wl.attention {
        None => 0.0,
        Some(att) => {
            let scored: Vec<&GnnDataflow> = designs
                .iter()
                .filter(|df| df.phase_order == PhaseOrder::AC && validate_sddmm(&df.agg).is_ok())
                .collect();
            per_call_us(&scored, |df| {
                std::hint::black_box(simulate_sddmm_prepared(
                    &prep,
                    att.dot_width(wl.f),
                    att.heads,
                    &df.agg,
                    cfg,
                    &OperandClasses::sddmm(),
                    &opts,
                ));
            })
        }
    };
    EngineProbe {
        prepare_s,
        spmm_us,
        sddmm_us,
        gemm_us,
    }
}

/// Evaluator per-call costs.
pub struct EvaluateProbe {
    /// `evaluate_with_cache` with a fresh `PhaseSimCache`: every phase simulated.
    pub cold_us: f64,
    /// `evaluate_with_cache` when every phase hits: composition only.
    pub compose_us: f64,
}

pub fn evaluate(wl: &GnnWorkload, cfg: &AccelConfig, designs: &[GnnDataflow]) -> EvaluateProbe {
    let prep = PreparedEval::new(wl, cfg);
    let cold_us = per_call_us(designs, |df| {
        std::hint::black_box(prep.evaluate_with_cache(df, &PhaseSimCache::new()).ok());
    });
    let warm = PhaseSimCache::new();
    let compose_us = per_call_us(designs, |df| {
        std::hint::black_box(prep.evaluate_with_cache(df, &warm).ok());
    });
    EvaluateProbe {
        cold_us,
        compose_us,
    }
}
