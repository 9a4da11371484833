//! Visualising the PP pipeline (Fig. 7a as ASCII): reconstruct the chunk
//! schedule from the engines' `Pel`-granularity timestamps and render a Gantt
//! chart of the two partitions, including the bubbles load imbalance creates.
//!
//! ```sh
//! cargo run --release --example pipeline_gantt [dataset] [preset] [agg_fraction]
//! ```

use omega_gnn::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let dataset_name = args.get(1).map(String::as_str).unwrap_or("Mutag");
    let preset_name = args.get(2).map(String::as_str).unwrap_or("PP3");
    let agg_fraction: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(0.5);

    let spec = DatasetSpec::by_name(dataset_name).unwrap_or_else(DatasetSpec::mutag);
    let dataset = spec.generate(7);
    let wl = GnnWorkload::gcn_layer(&dataset, 16);
    let hw = AccelConfig::paper_default();
    let preset = Preset::by_name(preset_name).expect("preset exists");
    assert_eq!(
        preset.pattern.inter,
        InterPhase::ParallelPipeline,
        "pipeline_gantt needs a PP preset (PP1..PP4)"
    );

    let split = omega_gnn::core::multiphase::PartitionSplit::fraction(hw.num_pes, agg_fraction)
        .expect("PP needs >= 2 PEs");
    let ctx = wl.tile_context(preset.pattern.phase_order);
    let df = preset.concretize(&ctx, split.producer_pes, split.consumer_pes);
    let report = evaluate(&wl, &df, &hw).expect("legal dataflow");

    // Reconstruct the schedule from the chunk durations and the pipeline
    // recurrence: consumer chunk i starts when both producer chunk i and
    // consumer chunk i-1 are done.
    let p = report.agg.chunk_durations();
    let c_raw = report.cmb.chunk_durations();
    let k = p.len();
    let c = if c_raw.len() == k {
        c_raw
    } else {
        omega_gnn::core::resample_durations(&c_raw, k)
    };
    let mut p_end = vec![0u64; k];
    let mut c_end = vec![0u64; k];
    let mut t = 0;
    for i in 0..k {
        t += p[i];
        p_end[i] = t;
    }
    let mut done = 0;
    for i in 0..k {
        let start = p_end[i].max(done);
        done = start + c[i];
        c_end[i] = done;
    }

    println!(
        "{} on {} — {} ({} agg PEs / {} cmb PEs, Pel = {}, {} chunks)\n",
        preset_name,
        wl.name,
        df,
        df.agg.pe_footprint(),
        df.cmb.pe_footprint(),
        report.pel.unwrap_or(0),
        k
    );

    let total = c_end.last().copied().unwrap_or(0).max(1);
    let width = 72usize;
    let scale = |cycles: u64| (cycles as usize * width / total as usize).min(width);
    let bar = |start: u64, end: u64, ch: char| {
        let s = scale(start);
        let e = scale(end).max(s + 1);
        format!("{}{}{}", " ".repeat(s), ch.to_string().repeat(e - s), " ".repeat(width - e))
    };

    let show = k.min(24);
    for i in 0..show {
        let p_start = if i == 0 { 0 } else { p_end[i - 1] };
        let c_start = c_end[i] - c[i];
        println!("chunk {i:>3} AGG |{}|", bar(p_start, p_end[i], '#'));
        println!("          CMB |{}|", bar(c_start, c_end[i], '='));
    }
    if k > show {
        println!("... ({} more chunks)", k - show);
    }
    println!(
        "\ntotal {} cycles (sum of phases would be {}; overlap saves {:.1}%)",
        report.total_cycles,
        report.agg.cycles + report.cmb.cycles,
        100.0 * (1.0 - report.total_cycles as f64 / (report.agg.cycles + report.cmb.cycles) as f64)
    );
    println!(
        "pipeline efficiency: slower phase = {} cycles, achieved = {} ({:.1}% bubble)",
        report.agg.cycles.max(report.cmb.cycles),
        report.total_cycles,
        100.0
            * (report.total_cycles as f64 / report.agg.cycles.max(report.cmb.cycles) as f64 - 1.0)
    );
}
