//! `eval` — evaluate any dataflow (in the paper's template syntax) on any
//! dataset, with hardware overrides. The tool a downstream user reaches for.
//!
//! ```text
//! eval --dataflow "SP_AC(VsFxNt, VsFxGx)" --dataset Citeseer
//! eval --preset PP3 --dataset Collab --pes 1024 --bandwidth 256 --hidden 64
//! eval --dataflow "PP_CA(FsNtVs, GtFtVs)" --dataset Cora --agg-pes 128
//! ```
//!
//! Patterns with `x` placeholders are concretised by the tile chooser; pass
//! `--tiles tv,tn,tf,tv,tg,tf` to pin exact tile sizes instead.

use std::process::ExitCode;

use omega_accel::AccelConfig;
use omega_core::dse::{concretize_pattern, concretize_preset};
use omega_core::multiphase::PartitionSplit;
use omega_core::{evaluate, GnnWorkload};
use omega_dataflow::presets::Preset;
use omega_dataflow::{Dim, GnnDataflow, GnnDataflowPattern, InterPhase, IntraPattern, IntraTiling};
use omega_graph::DatasetSpec;

struct Args {
    dataflow: Option<String>,
    preset: Option<String>,
    dataset: String,
    hidden: usize,
    pes: usize,
    bandwidth: Option<usize>,
    agg_pes: Option<usize>,
    tiles: Option<[usize; 6]>,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        dataflow: None,
        preset: None,
        dataset: "Citeseer".into(),
        hidden: 16,
        pes: 512,
        bandwidth: None,
        agg_pes: None,
        tiles: None,
        seed: 0x0E5A_2022,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--dataflow" => out.dataflow = Some(value(&mut i)?),
            "--preset" => out.preset = Some(value(&mut i)?),
            "--dataset" => out.dataset = value(&mut i)?,
            "--hidden" => out.hidden = value(&mut i)?.parse().map_err(|e| format!("--hidden: {e}"))?,
            "--pes" => out.pes = value(&mut i)?.parse().map_err(|e| format!("--pes: {e}"))?,
            "--bandwidth" => {
                out.bandwidth = Some(value(&mut i)?.parse().map_err(|e| format!("--bandwidth: {e}"))?)
            }
            "--agg-pes" => {
                out.agg_pes = Some(value(&mut i)?.parse().map_err(|e| format!("--agg-pes: {e}"))?)
            }
            "--seed" => out.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--tiles" => {
                let raw = value(&mut i)?;
                let parts: Vec<usize> = raw
                    .split(',')
                    .map(|p| p.trim().parse().map_err(|e| format!("--tiles: {e}")))
                    .collect::<Result<_, _>>()?;
                if parts.len() != 6 {
                    return Err("--tiles needs 6 comma-separated values (tV,tN,tF,tV,tG,tF)".into());
                }
                out.tiles = Some([parts[0], parts[1], parts[2], parts[3], parts[4], parts[5]]);
            }
            "--help" | "-h" => return Err("usage".into()),
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    if out.dataflow.is_none() && out.preset.is_none() {
        // Bare `eval` should still do something useful: evaluate the paper's
        // SP2 preset on the default dataset.
        out.preset = Some("SP2".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if e != "usage" {
                eprintln!("error: {e}\n");
            }
            eprintln!(
                "usage: eval [--dataflow \"SP_AC(VsFxNt, VsFxGx)\" | --preset SP2] \
                 [--dataset NAME] [--hidden G] [--pes N] [--bandwidth ELEMS] \
                 [--agg-pes N] [--tiles tV,tN,tF,tV,tG,tF] [--seed S]\n\
                 with no dataflow/preset, defaults to --preset SP2"
            );
            return ExitCode::FAILURE;
        }
    };

    // Degenerate hardware is rejected up front: 0 PEs has no meaningful cost
    // model. Tilings too large for the array (a PP dataflow on 1 PE, an
    // oversized `--tiles`) are refused by `evaluate` below.
    if args.pes == 0 {
        eprintln!("error: --pes must be >= 1 (got 0)");
        return ExitCode::FAILURE;
    }

    let Some(spec) = DatasetSpec::by_name(&args.dataset) else {
        eprintln!(
            "unknown dataset '{}'; known: {}",
            args.dataset,
            DatasetSpec::all().iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
        );
        return ExitCode::FAILURE;
    };
    let dataset = spec.generate(args.seed);
    let wl = GnnWorkload::gcn_layer(&dataset, args.hidden);

    let mut cfg = AccelConfig::paper_default().with_pes(args.pes);
    if let Some(bw) = args.bandwidth {
        cfg = cfg.with_bandwidth(bw);
    }

    // `--agg-pes` sizes a PP dataflow's Aggregation partition explicitly;
    // without it the core budget rule (a 50-50 split) applies.
    let agg_fraction = args.agg_pes.map(|agg_pes| agg_pes as f64 / args.pes as f64);
    // Below 2 PEs there is no split; the budget rule's dataflow is then
    // refused by `evaluate` like any PP dataflow on 1 PE.
    let pp_split = |inter: InterPhase| {
        let f = agg_fraction.filter(|_| inter == InterPhase::ParallelPipeline)?;
        PartitionSplit::fraction(cfg.num_pes, f)
    };
    let df: GnnDataflow = if let Some(name) = &args.preset {
        let Some(preset) = Preset::by_name(name) else {
            eprintln!("unknown preset '{name}'; known: Seq1 Seq2 SP1 SP2 SPhighV PP1 PP2 PP3 PP4");
            return ExitCode::FAILURE;
        };
        match pp_split(preset.pattern.inter) {
            Some(s) => preset.concretize(
                &wl.tile_context(preset.pattern.phase_order),
                s.producer_pes,
                s.consumer_pes,
            ),
            None => concretize_preset(&preset, &wl, &cfg),
        }
    } else {
        let pattern: GnnDataflowPattern = match args.dataflow.as_deref().unwrap_or_default().parse() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("could not parse dataflow: {e}");
                return ExitCode::FAILURE;
            }
        };
        match (args.tiles, pp_split(pattern.inter)) {
            (Some(tiles), _) => pinned(&pattern, tiles),
            (None, Some(s)) => pattern.concretize(
                &wl.tile_context(pattern.phase_order),
                s.producer_pes,
                s.consumer_pes,
            ),
            (None, None) => concretize_pattern(&pattern, &wl, &cfg),
        }
    };

    println!("workload  {} (V={}, F={}, G={}, nnz={}, max deg={})", wl.name, wl.v, wl.f, wl.g, wl.nnz, wl.max_degree);
    println!("machine   {} PEs, {} elems/cycle NoC", cfg.num_pes, cfg.dist_bandwidth);
    println!("dataflow  {df}   tiles {:?}", df.tile_tuple());

    match evaluate(&wl, &df, &cfg) {
        Ok(r) => {
            println!("\nruntime              {:>14} cycles", r.total_cycles);
            println!("  aggregation        {:>14} cycles ({} stall)", r.agg.cycles, r.agg.stall_cycles);
            println!("  combination        {:>14} cycles ({} stall)", r.cmb.cycles, r.cmb.stall_cycles);
            println!("intermediate buffer  {:>14} elements", r.intermediate_buffer_elems);
            if let (Some(g), Some(pel)) = (r.granularity, r.pel) {
                println!("pipelining           {g} granularity, Pel = {pel}");
            }
            println!("SP-Optimized         {:>14}", r.sp_optimized);
            println!("energy               {:>14.3} uJ", r.energy.total_uj());
            println!("  global buffer      {:>14.3} uJ", r.energy.gb_pj / 1e6);
            println!("  intermediate       {:>14.3} uJ", r.energy.intermediate_pj / 1e6);
            println!("  register files     {:>14.3} uJ", r.energy.rf_pj / 1e6);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("\nillegal dataflow: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `pattern` with the exact `--tiles` sizes `(tV, tN, tF, tV, tG, tF)`.
fn pinned(pattern: &GnnDataflowPattern, t: [usize; 6]) -> GnnDataflow {
    let place = |tiling: &IntraPattern, tv: usize, tmid: usize, tf: usize| {
        let tiles = tiling.order().dims().map(|d| match d {
            Dim::V => tv,
            Dim::N | Dim::G => tmid,
            Dim::F => tf,
        });
        IntraTiling::new(tiling.phase(), tiling.order(), tiles)
    };
    GnnDataflow {
        inter: pattern.inter,
        phase_order: pattern.phase_order,
        agg: place(&pattern.agg, t[0], t[1], t[2]),
        cmb: place(&pattern.cmb, t[3], t[4], t[5]),
    }
}
