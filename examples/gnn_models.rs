//! Whole-model evaluation: 2-layer GCN / GraphSAGE / 3-layer GIN on one graph,
//! joint per-layer dataflow selection, tile refinement, and the
//! runtime-energy-footprint Pareto frontier.
//!
//! ```sh
//! cargo run --release --example gnn_models [dataset]
//! ```

use omega_gnn::core::dse::model::{explore_model, ModelDseOptions};
use omega_gnn::core::mapper::{preset_candidates, refine_tiles};
use omega_gnn::core::models::{to_chain, uniform_layer_dataflows, GnnModel};
use omega_gnn::core::multiphase::{evaluate_chain, Link};
use omega_gnn::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let dataset_name = args.get(1).map(String::as_str).unwrap_or("Cora");
    let spec = DatasetSpec::by_name(dataset_name).unwrap_or_else(DatasetSpec::cora);
    let dataset = spec.generate(17);
    let base = GnnWorkload::gcn_layer(&dataset, 16);
    let hw = AccelConfig::paper_default();
    let cache = DseCache::new();

    // --- whole models: one preset everywhere vs the joint model search ------
    println!("models on {} (V={}, F={}):\n", base.name, base.v, base.f);
    let models = [GnnModel::gcn_2layer(7), GnnModel::sage_2layer(32, 7), GnnModel::gin(3, 64)];
    for model in &models {
        let preset = Preset::by_name("SP2").expect("preset");
        let dfs = uniform_layer_dataflows(model, &base, &preset, &hw).expect("legal");
        let links = vec![Link::Sequential; dfs.len() - 1];
        let chain = to_chain(model, &base, &dfs, &links, &hw).expect("legal");
        let fixed = evaluate_chain(&chain, &hw).expect("structurally valid");
        let searched = explore_model(
            model,
            &base,
            &hw,
            &ModelDseOptions { threads: 4, ..ModelDseOptions::new(Objective::Runtime) },
            &cache,
        );
        let best = searched.best().expect("non-empty model space");
        println!(
            "{:<12} SP2-everywhere: {:>9} cycles | searched mapping: {:>9} cycles ({:.1}% better)",
            model.name,
            fixed.total_cycles,
            best.report.total_cycles,
            100.0 * (1.0 - best.report.total_cycles as f64 / fixed.total_cycles as f64),
        );
        println!("             {}", best.mapping);
    }

    // --- tile refinement around the best preset ------------------------------
    println!("\ntile refinement (hill climbing over T_Dim doublings/halvings):");
    let candidates = preset_candidates(&base, &hw);
    for df in candidates.iter().take(3) {
        let before = evaluate(&base, df, &hw).expect("legal").total_cycles;
        let refined = refine_tiles(df, &base, &hw, Objective::Runtime, 16).expect("refinable");
        println!(
            "  {df}: {before} -> {} cycles ({} evaluations)",
            refined.report.total_cycles, refined.evaluated
        );
    }

    // --- Pareto frontier -------------------------------------------------------
    println!("\nruntime/energy/footprint Pareto frontier over the full layer space:");
    let frontier = dse::explore(
        &base,
        &hw,
        &DseOptions { threads: 4, pareto: true, ..DseOptions::new(Objective::Runtime) },
    );
    for point in &frontier.frontier {
        println!(
            "  {:<28} {:>9} cycles  {:>9.2} uJ  {:>8} B peak",
            point.dataflow.to_string(),
            point.runtime_cycles,
            point.energy_pj / 1e6,
            point.buffer_peak_bytes
        );
    }
}
