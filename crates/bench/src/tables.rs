//! Generators for Tables I–V of the paper.

use serde::Serialize;

use omega_accel::AccelConfig;
use omega_core::dse::concretize_preset;
use omega_core::model_check::{buffering_formula, runtime_formula};
use omega_dataflow::analysis::{analyse, ReductionStyle};
use omega_dataflow::enumerate::{count_for, design_space_size, sp_optimized_pattern_count};
use omega_dataflow::presets::Preset;
use omega_dataflow::{Dim, InterPhase, IntraTiling, LoopOrder, Phase};
use omega_graph::{Category, DatasetSpec, GraphStats};

use crate::common::{default_suite, eval_preset, SEED};

/// Table I: hardware implications of the three example 2D GEMM dataflows.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Dataflow string (`VsGsFt`, ...).
    pub dataflow: String,
    /// Stationary operand ("Output" when the output accumulates in place).
    pub stationary: String,
    /// Streaming operands.
    pub streaming: Vec<String>,
    /// `(operand, spatial dim)` multicast pairs.
    pub multicast: Vec<String>,
    /// `Spatial` or `Temporal` reduction.
    pub reduction: String,
}

/// Regenerates Table I from the analysis module.
pub fn table1() -> Vec<Table1Row> {
    // The paper's three example dataflows, as concrete tilings with every
    // spatial dim unrolled by 2 (the analysis only cares about s/t).
    let rows: [(&str, [Dim; 3], [usize; 3]); 3] = [
        ("VsGsFt", [Dim::V, Dim::G, Dim::F], [2, 2, 1]),
        ("GsFsVt", [Dim::G, Dim::F, Dim::V], [2, 2, 1]),
        ("VsFsGt", [Dim::V, Dim::F, Dim::G], [2, 2, 1]),
    ];
    rows.iter()
        .map(|&(name, order, tiles)| {
            let t = IntraTiling::new(
                Phase::Combination,
                LoopOrder::new(Phase::Combination, order).expect("valid order"),
                tiles,
            );
            let a = analyse(&t);
            Table1Row {
                dataflow: name.to_string(),
                stationary: if a.output_stationary {
                    "Output (VG)".to_string()
                } else {
                    a.stationary.map(|o| o.to_string()).unwrap_or_default()
                },
                streaming: a.streaming.iter().map(|o| o.to_string()).collect(),
                multicast: a.multicast.iter().map(|(o, d)| format!("{o} across {d}")).collect(),
                reduction: match a.reduction {
                    ReductionStyle::Spatial => "Spatial".to_string(),
                    ReductionStyle::Temporal => "Temporal".to_string(),
                },
            }
        })
        .collect()
}

/// Table II: the design-space characterisation, summarised as counts.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Summary {
    /// Sequential choices (row 1).
    pub seq_choices: usize,
    /// SP-Generic choices (row 3 = rows 4-9).
    pub sp_choices: usize,
    /// PP choices (rows 4-9).
    pub pp_choices: usize,
    /// The paper's total: 6,656.
    pub total: usize,
    /// SP-Optimized instances (row 2).
    pub sp_optimized: usize,
}

/// Regenerates the Table II counts.
pub fn table2() -> Table2Summary {
    Table2Summary {
        seq_choices: count_for(InterPhase::Sequential),
        sp_choices: count_for(InterPhase::SequentialPipeline),
        pp_choices: count_for(InterPhase::ParallelPipeline),
        total: design_space_size(),
        sp_optimized: sp_optimized_pattern_count(),
    }
}

/// Table III: runtime/buffering closed forms checked against the simulator for
/// every preset on every dataset.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Row {
    /// Dataset name.
    pub dataset: String,
    /// Dataflow preset name.
    pub dataflow: String,
    /// Buffering the closed form predicts (elements).
    pub buffering_formula: u64,
    /// Buffering the simulator reports.
    pub buffering_simulated: u64,
    /// Runtime the closed form predicts (cycles).
    pub runtime_formula: u64,
    /// Runtime the simulator reports.
    pub runtime_simulated: u64,
    /// Whether both agree exactly.
    pub consistent: bool,
}

/// Regenerates the Table III consistency check.
pub fn table3() -> Vec<Table3Row> {
    let cfg = AccelConfig::paper_default();
    let mut rows = Vec::new();
    for (_, wl) in default_suite() {
        for preset in Preset::all() {
            let p = eval_preset(&preset, &wl, &cfg);
            let bf = buffering_formula(&p.report, &wl);
            let rf = runtime_formula(&p.report);
            rows.push(Table3Row {
                dataset: p.dataset,
                dataflow: p.dataflow,
                buffering_formula: bf,
                buffering_simulated: p.report.intermediate_buffer_elems,
                runtime_formula: rf,
                runtime_simulated: p.report.total_cycles,
                consistent: bf == p.report.intermediate_buffer_elems && rf == p.report.total_cycles,
            });
        }
    }
    rows
}

/// Table IV: dataset statistics — the published spec plus the generated
/// synthetic batch's actual statistics.
#[derive(Debug, Clone, Serialize)]
pub struct Table4Row {
    /// Dataset name.
    pub name: String,
    /// Graphs in the full collection (spec).
    pub population: usize,
    /// Published average nodes per graph.
    pub spec_avg_nodes: f64,
    /// Published average edges per graph.
    pub spec_avg_edges: f64,
    /// Feature width.
    pub features: usize,
    /// Paper-assigned category.
    pub category: Category,
    /// Evaluated batch size.
    pub batch_size: usize,
    /// Generated batched-graph statistics.
    pub generated: GraphStats,
}

/// Regenerates Table IV.
pub fn table4() -> Vec<Table4Row> {
    DatasetSpec::all()
        .into_iter()
        .map(|spec| {
            let d = spec.generate(SEED);
            Table4Row {
                name: spec.name.to_string(),
                population: spec.population,
                spec_avg_nodes: spec.avg_nodes,
                spec_avg_edges: spec.avg_edges,
                features: spec.features,
                category: spec.category,
                batch_size: spec.batch_size,
                generated: d.stats(),
            }
        })
        .collect()
}

/// Table V: the nine dataflow configurations with their concrete tile tuples
/// on Citeseer (the paper prints tiles per figure; we show one representative).
#[derive(Debug, Clone, Serialize)]
pub struct Table5Row {
    /// Preset name.
    pub name: String,
    /// Pattern in the paper's template syntax.
    pub configuration: String,
    /// Table V's distinguishing-property column.
    pub distinguishing_property: String,
    /// Concrete tiles on Citeseer at 512 PEs.
    pub citeseer_tiles: (usize, usize, usize, usize, usize, usize),
}

/// Regenerates Table V.
pub fn table5() -> Vec<Table5Row> {
    let cfg = AccelConfig::paper_default();
    let (_, wl) = default_suite()
        .into_iter()
        .find(|(d, _)| d.name() == "Citeseer")
        .expect("Citeseer in suite");
    Preset::all()
        .into_iter()
        .map(|p| {
            let df = concretize_preset(&p, &wl, &cfg);
            Table5Row {
                name: p.name.to_string(),
                configuration: p.pattern.to_string(),
                distinguishing_property: p.distinguishing_property.to_string(),
                citeseer_tiles: df.tile_tuple(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_rows() {
        let rows = table1();
        assert_eq!(rows.len(), 3);
        // Row 1: VsGsFt — output stationary, temporal reduction.
        assert_eq!(rows[0].stationary, "Output (VG)");
        assert_eq!(rows[0].reduction, "Temporal");
        // Row 2: GsFsVt — weight stationary, spatial reduction.
        assert!(rows[1].stationary.contains("Weights"));
        assert_eq!(rows[1].reduction, "Spatial");
        // Row 3: VsFsGt — intermediate stationary, spatial reduction.
        assert!(rows[2].stationary.contains("Intermediate"));
        assert_eq!(rows[2].reduction, "Spatial");
    }

    #[test]
    fn table2_reproduces_6656() {
        let t = table2();
        assert_eq!(t.seq_choices, 4608);
        assert_eq!(t.sp_choices, 1024);
        assert_eq!(t.pp_choices, 1024);
        assert_eq!(t.total, 6656);
        assert_eq!(t.sp_optimized, 16);
    }

    #[test]
    fn table5_lists_nine_presets() {
        let rows = table5();
        assert_eq!(rows.len(), 9);
        assert_eq!(rows[0].name, "Seq1");
        assert!(rows[4].configuration.starts_with("SP_AC"));
        // SPhighV really maps the whole array to V.
        assert_eq!(rows[4].citeseer_tiles.0, 512);
    }

    #[test]
    fn table4_specs_match_registry() {
        let rows = table4();
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[5].name, "Citeseer");
        assert_eq!(rows[5].generated.vertices, 3327);
        assert_eq!(rows[4].batch_size, 32);
    }
}
