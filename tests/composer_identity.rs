//! Golden bit-identity pin for the inter-phase composition.
//!
//! Every field of every report the two composition entry points produce —
//! the per-layer [`CostReport`] of `evaluate` and the [`ChainReport`] of
//! `evaluate_chain` — is folded into one FNV-1a hash per case family. The
//! constants were recorded before the layer and chain composers were merged
//! into one; any refactor of the composition must reproduce them bit for bit.
//! An intentional cost-model change must update the constants *and* say why
//! in the commit. The model search, which runs every lowered chain through
//! one shared stage-simulation cache, is checked against one-shot chain
//! evaluation field by field.

use omega_accel::engine::{ElementwiseOp, GemmDims};
use omega_accel::PhaseStats;
use omega_dataflow::{Dim, IntraTiling, LoopOrder, Phase};
use omega_gnn::core::dse::model::{evaluate_mapping, explore_model, ModelDseOptions};
use omega_gnn::core::models::{to_chain, uniform_layer_dataflows, GnnModel};
use omega_gnn::core::multiphase::{evaluate_chain, Chain, ChainNode, ChainReport, Link, Stage};
use omega_gnn::core::{EnergyBreakdown, PhaseSimCache, PreparedEval};
use omega_gnn::prelude::*;

/// FNV-1a 64-bit fold.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn stats(&mut self, s: &PhaseStats) {
        self.u64(s.cycles);
        self.u64(s.stall_cycles);
        self.u64(s.macs);
        self.counters(&s.counters);
        self.u64(s.pe_footprint as u64);
        self.u64(s.chunk_marks.len() as u64);
        for &m in &s.chunk_marks {
            self.u64(m);
        }
        self.u64(s.psum_spilled as u64);
        self.u64(s.rf_peak_bytes);
        self.u64(s.gb_peak_bytes);
    }

    fn opt_stats(&mut self, s: Option<&PhaseStats>) {
        self.u64(s.is_some() as u64);
        if let Some(s) = s {
            self.stats(s);
        }
    }

    fn counters(&mut self, c: &omega_accel::AccessCounters) {
        for &r in &c.gb_reads {
            self.u64(r);
        }
        for &w in &c.gb_writes {
            self.u64(w);
        }
        self.u64(c.rf_reads);
        self.u64(c.rf_writes);
    }

    fn energy(&mut self, e: &EnergyBreakdown) {
        self.u64(e.gb_pj.to_bits());
        self.u64(e.rf_pj.to_bits());
        self.u64(e.intermediate_pj.to_bits());
        self.u64(e.dram_pj.to_bits());
        for &c in &e.gb_by_class_pj {
            self.u64(c.to_bits());
        }
        self.u64(e.total_pj().to_bits());
    }

    fn report(&mut self, r: &CostReport) {
        self.str(&r.dataflow.to_string());
        self.u64(r.total_cycles);
        self.stats(&r.agg);
        self.stats(&r.cmb);
        self.opt_stats(r.sddmm.as_ref());
        self.opt_stats(r.post.as_ref());
        self.counters(&r.counters);
        self.u64(r.intermediate_buffer_elems);
        self.u64(r.buffer_peak_bytes);
        self.u64(r.pel.map_or(u64::MAX, |p| p));
        self.str(&format!("{:?}", r.granularity));
        self.u64(r.sp_optimized as u64);
        self.energy(&r.energy);
    }

    fn chain(&mut self, r: &ChainReport) {
        self.u64(r.stages.len() as u64);
        for (name, s) in &r.stages {
            self.str(name);
            self.stats(s);
        }
        self.u64(r.total_cycles);
        self.counters(&r.counters);
        self.energy(&r.energy);
        self.u64(r.buffer_peak_bytes);
    }

    /// Folds a failure in by its message, so an error path is pinned too.
    fn error(&mut self, e: &dyn std::fmt::Display) {
        self.u64(u64::MAX);
        self.str(&e.to_string());
    }
}

/// The nine Table V presets plus the three CA variants.
fn presets() -> Vec<Preset> {
    let mut all = Preset::all();
    all.extend(presets::ca_variants());
    all
}

/// Concretises `preset` on `wl` with the 50-50 PE split for PP.
fn concretize(preset: &Preset, wl: &GnnWorkload, hw: &AccelConfig) -> GnnDataflow {
    let ctx = wl.tile_context(preset.pattern.phase_order);
    let budget = if preset.pattern.inter == InterPhase::ParallelPipeline {
        hw.num_pes / 2
    } else {
        hw.num_pes
    };
    preset.concretize(&ctx, budget, budget)
}

/// Hashes every preset's report on `wl`, both one-shot and through a shared
/// phase-simulation cache (which must agree with the one-shot report).
fn layer_hash(wl: &GnnWorkload, hw: &AccelConfig) -> u64 {
    let mut h = Fnv::new();
    let prep = PreparedEval::new(wl, hw);
    let cache = PhaseSimCache::new();
    for preset in presets() {
        let df = concretize(&preset, wl, hw);
        match evaluate(wl, &df, hw) {
            Ok(r) => {
                h.report(&r);
                let mut cached = Fnv::new();
                cached.report(&prep.evaluate_with_cache(&df, &cache).unwrap());
                let mut direct = Fnv::new();
                direct.report(&r);
                assert_eq!(cached.0, direct.0, "{}: cached report drifted", preset.name);
            }
            Err(e) => h.error(&e),
        }
    }
    h.0
}

fn mutag() -> GnnWorkload {
    GnnWorkload::gcn_layer(&DatasetSpec::mutag().generate(1), 16)
}

#[test]
fn layer_reports_mutag_gcn() {
    assert_eq!(layer_hash(&mutag(), &AccelConfig::paper_default()), 0x05f6f5409bd55585);
}

#[test]
fn layer_reports_mutag_gat() {
    let wl = GnnWorkload::gat_layer(&DatasetSpec::mutag().generate(1), 16, 4);
    assert_eq!(layer_hash(&wl, &AccelConfig::paper_default()), 0x34d6b3304f12db57);
}

#[test]
fn layer_reports_cora_gcn_layernorm() {
    let mut wl = GnnWorkload::gcn_layer(&DatasetSpec::cora().generate(1), 16);
    wl.post_op = Some(ElementwiseOp::LayerNorm);
    assert_eq!(layer_hash(&wl, &AccelConfig::paper_default()), 0xc27dcb2783688c48);
}

#[test]
fn layer_reports_enforced_small_global_buffer() {
    let mut hw = AccelConfig::paper_default();
    hw.knobs.enforce_capacity = true;
    hw.gb_bytes = 4 << 10;
    assert_eq!(layer_hash(&mutag(), &hw), 0xd488f5cb6d00b6c7);
}

fn agg_tiling(tiles: [usize; 3]) -> IntraTiling {
    IntraTiling::new(
        Phase::Aggregation,
        LoopOrder::new(Phase::Aggregation, [Dim::V, Dim::F, Dim::N]).unwrap(),
        tiles,
    )
}

fn cmb_tiling(tiles: [usize; 3]) -> IntraTiling {
    IntraTiling::new(
        Phase::Combination,
        LoopOrder::new(Phase::Combination, [Dim::V, Dim::G, Dim::F]).unwrap(),
        tiles,
    )
}

#[test]
fn chain_reports_dlrm() {
    // The three top-MLP variants of `examples/dlrm_multiphase.rs`.
    let hw = AccelConfig::paper_default();
    let batch = 2048;
    let front = ChainNode::Parallel(vec![
        Stage::spmm("embedding-gather", vec![32; batch], 64, agg_tiling([16, 16, 1])),
        Stage::gemm("bottom-mlp", GemmDims { v: batch, f: 64, g: 64 }, cmb_tiling([16, 16, 1])),
    ]);
    let top1 = |t: [usize; 3]| {
        Stage::gemm("top-mlp-1", GemmDims { v: batch, f: 128, g: 64 }, cmb_tiling(t))
    };
    let top2 = |t: [usize; 3]| {
        Stage::gemm("top-mlp-2", GemmDims { v: batch, f: 64, g: 32 }, cmb_tiling(t))
    };
    let pel = 64 * 64;
    let variants = [
        ([16, 16, 2], [16, 16, 1], Link::Sequential),
        ([16, 16, 2], [16, 16, 1], Link::pipelined(pel)),
        ([16, 16, 1], [16, 16, 1], Link::pipelined_split(pel, 256, 256)),
    ];
    let mut h = Fnv::new();
    for (t1, t2, link) in variants {
        let chain = Chain {
            nodes: vec![front.clone(), ChainNode::Single(top1(t1)), ChainNode::Single(top2(t2))],
            links: vec![Link::Sequential, link],
        };
        h.chain(&evaluate_chain(&chain, &hw).unwrap());
    }
    assert_eq!(h.0, 0xc2b7317e849657b0);
}

/// Hashes the uniform chain (one preset on every layer, sequential between
/// layers) of `model` on `base` for every preset the model admits.
fn uniform_chain_hash(model: &GnnModel, base: &GnnWorkload) -> u64 {
    let hw = AccelConfig::paper_default();
    let mut h = Fnv::new();
    for preset in presets() {
        let dfs = match uniform_layer_dataflows(model, base, &preset, &hw) {
            Ok(dfs) => dfs,
            Err(e) => {
                h.error(&e);
                continue;
            }
        };
        let links = vec![Link::Sequential; dfs.len() - 1];
        let chain = to_chain(model, base, &dfs, &links, &hw).unwrap();
        h.chain(&evaluate_chain(&chain, &hw).unwrap());
    }
    h.0
}

#[test]
fn chain_reports_uniform_gcn2() {
    assert_eq!(uniform_chain_hash(&GnnModel::gcn_2layer(7), &mutag()), 0x4e226eac5f33cf06);
}

#[test]
fn chain_reports_uniform_gin() {
    let base = GnnWorkload::gcn_layer(&DatasetSpec::mutag().generate(4), 64);
    assert_eq!(uniform_chain_hash(&GnnModel::gin(3, 64), &base), 0x4897ba29219b5a82);
}

#[test]
fn chain_reports_uniform_gat() {
    assert_eq!(uniform_chain_hash(&GnnModel::gat_2layer(4, 7), &mutag()), 0xb75fdccac9fab7ae);
}

#[test]
fn chain_reports_uniform_gcn2_activation() {
    let model = GnnModel::gcn_2layer(7).with_activation(ElementwiseOp::Activation);
    assert_eq!(uniform_chain_hash(&model, &mutag()), 0x500e161b57fdd0c9);
}

#[test]
fn chain_reports_gcn2_pipelined_inter_layer_links() {
    // A partitioned inter-layer link (boundary stages re-tiled to fit their
    // partitions) and an idealised one, on a Seq and a PP layer mapping.
    let hw = AccelConfig::paper_default();
    let model = GnnModel::gcn_2layer(7);
    let base = GnnWorkload::gcn_layer(&DatasetSpec::cora().generate(3), 16);
    let (elems, _) = model.layer_output_shape(&base, 0);
    let mut h = Fnv::new();
    for name in ["Seq1", "SP2"] {
        let dfs = uniform_layer_dataflows(&model, &base, &Preset::by_name(name).unwrap(), &hw)
            .unwrap();
        for link in [Link::pipelined_split(elems / 4, 96, 416), Link::pipelined(elems / 16)] {
            let chain = to_chain(&model, &base, &dfs, &[link], &hw).unwrap();
            h.chain(&evaluate_chain(&chain, &hw).unwrap());
        }
    }
    assert_eq!(h.0, 0x4caded8e3f2d37b8);
}

#[test]
fn model_search_reports_match_one_shot_chain_evaluation() {
    // Ranked reports keep no chunk timelines; every other field must match.
    let hw = AccelConfig::paper_default();
    let opts = ModelDseOptions { threads: 2, top_k: 8, ..ModelDseOptions::new(Objective::Runtime) };
    for model in [GnnModel::gat_2layer(4, 7), GnnModel::gcn_2layer(7)] {
        let out = explore_model(&model, &mutag(), &hw, &opts, &DseCache::new());
        assert!(!out.ranked.is_empty());
        for r in &out.ranked {
            let (score, mut report) =
                evaluate_mapping(&model, &mutag(), &r.mapping, &hw, Objective::Runtime).unwrap();
            for (_, s) in &mut report.stages {
                s.chunk_marks.clear();
            }
            let (mut one_shot, mut searched) = (Fnv::new(), Fnv::new());
            one_shot.chain(&report);
            searched.chain(&r.report);
            assert_eq!((score, one_shot.0), (r.score, searched.0), "{}", r.mapping);
        }
    }
}
