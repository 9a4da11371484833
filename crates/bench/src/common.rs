//! Shared workload construction and evaluation helpers for the harness.

use serde::Serialize;

use omega_accel::AccelConfig;
use omega_core::dse::concretize_preset;
use omega_core::multiphase::PartitionSplit;
use omega_core::{evaluate, CostReport, GnnWorkload};
use omega_dataflow::presets::Preset;
use omega_dataflow::GnnDataflow;
use omega_graph::{suite, Dataset};

/// Base seed used by every experiment (fixed for reproducibility).
pub const SEED: u64 = 0x0E5A_2022;

/// GCN hidden width used throughout the evaluation (see `DESIGN.md` §2).
pub const HIDDEN: usize = 16;

/// The seven Table IV datasets paired with their GCN-layer workloads.
pub fn default_suite() -> Vec<(Dataset, GnnWorkload)> {
    suite(SEED)
        .into_iter()
        .map(|d| {
            let wl = GnnWorkload::gcn_layer(&d, HIDDEN);
            (d, wl)
        })
        .collect()
}

/// One evaluated (dataset × dataflow) point.
#[derive(Debug, Clone, Serialize)]
pub struct EvalPoint {
    /// Dataset name.
    pub dataset: String,
    /// Preset name (`Seq1` .. `PP4`).
    pub dataflow: String,
    /// Concrete dataflow string.
    pub dataflow_desc: String,
    /// Tile sizes `(T_V_AGG, T_N, T_F_AGG, T_V_CMB, T_G, T_F_CMB)`.
    pub tiles: (usize, usize, usize, usize, usize, usize),
    /// The full cost report.
    pub report: CostReport,
}

/// Evaluates one preset (PP split 50-50) on one workload.
pub fn eval_preset(preset: &Preset, workload: &GnnWorkload, cfg: &AccelConfig) -> EvalPoint {
    eval_point(preset, workload, cfg, concretize_preset(preset, workload, cfg))
}

/// Evaluates one PP preset with `agg_fraction` of the PEs given to
/// Aggregation (Fig. 14's load-balancing splits).
pub fn eval_preset_with_split(
    preset: &Preset,
    workload: &GnnWorkload,
    cfg: &AccelConfig,
    agg_fraction: f64,
) -> EvalPoint {
    let split = PartitionSplit::fraction(cfg.num_pes, agg_fraction).expect("PP needs >= 2 PEs");
    let ctx = workload.tile_context(preset.pattern.phase_order);
    let df = preset.concretize(&ctx, split.producer_pes, split.consumer_pes);
    eval_point(preset, workload, cfg, df)
}

fn eval_point(
    preset: &Preset,
    workload: &GnnWorkload,
    cfg: &AccelConfig,
    df: GnnDataflow,
) -> EvalPoint {
    let report = evaluate(workload, &df, cfg).expect("preset dataflows are legal");
    EvalPoint {
        dataset: workload.name.clone(),
        dataflow: preset.name.to_string(),
        dataflow_desc: df.to_string(),
        tiles: df.tile_tuple(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_seven_datasets() {
        let s = default_suite();
        assert_eq!(s.len(), 7);
        assert!(s.iter().all(|(d, w)| d.name() == w.name));
        assert!(s.iter().all(|(_, w)| w.g == HIDDEN));
    }

    #[test]
    fn concretize_splits_pp() {
        let (_, wl) = default_suite().swap_remove(0);
        let cfg = AccelConfig::paper_default();
        let footprints = |p: &EvalPoint| {
            let (tv, tn, tf, tv_c, tg, tf_c) = p.tiles;
            (tv * tn * tf, tv_c * tg * tf_c)
        };
        let pp = eval_preset_with_split(&Preset::by_name("PP1").unwrap(), &wl, &cfg, 0.25);
        let (agg, cmb) = footprints(&pp);
        assert!(agg <= 128 && cmb <= 384, "{agg} + {cmb}");
        let seq = eval_preset(&Preset::by_name("Seq1").unwrap(), &wl, &cfg);
        assert!(footprints(&seq).0 <= 512);
    }

    #[test]
    fn eval_point_carries_names() {
        let (_, wl) = default_suite().swap_remove(0);
        let cfg = AccelConfig::paper_default();
        let p = eval_preset(&Preset::by_name("Seq1").unwrap(), &wl, &cfg);
        assert_eq!(p.dataset, "Mutag");
        assert_eq!(p.dataflow, "Seq1");
        assert!(p.report.total_cycles > 0);
    }
}
