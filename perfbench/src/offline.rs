//! The offline workloads: the full single-layer sweep (`sweep-rmat18`) and
//! the whole-model joint search (`model-gat-rmat16`).

use std::time::Instant;

use omega_core::dse::model::{build_space, evaluate_mapping, explore_model, ModelDseOptions};
use omega_core::dse::{explore, DseCache, DseOptions, ExploreOutcome};
use omega_core::mapper::Objective;
use omega_core::models::GnnModel;
use omega_core::{AccelConfig, GnnWorkload};
use omega_graph::{DatasetSpec, Graph};

use crate::stats::{self, median, percentile, secs};
use crate::trace::{Table, Tracer};
use crate::{probes, Ctx, Outcome};

/// Search threads of the offline workloads.
pub const DSE_THREADS: usize = 2;
/// Set-ups per run, each of its own input instance derived from the seed;
/// `setup_s` is their median and the searches cycle through the instances.
const SETUP_REPEATS: usize = 3;
/// Least number of timed searches per run, however short the window.
const MIN_SEARCHES: usize = 3;
/// Hidden width of the single-layer GCN workloads.
const GCN_WIDTH: usize = 16;
/// Untraced/traced pass pairs behind a trace table and its overhead.
const TRACE_PAIRS: usize = 2;

/// Generates the named graph: a Table IV dataset or a scale-family name.
fn generate(name: &str, seed: u64) -> Result<Graph, String> {
    match DatasetSpec::by_name(name) {
        Some(spec) => Ok(spec.generate(seed).graph),
        None => {
            omega_graph::scale_graph(name, seed).ok_or_else(|| format!("unknown graph `{name}`"))
        }
    }
}

/// Graph generation plus workload build, each in its span.
pub fn build(tracer: &Tracer, name: &str, seed: u64, g: usize) -> Result<GnnWorkload, String> {
    let graph = tracer.span("graph.generate", || generate(name, seed))?;
    Ok(tracer.span("workload.build", || GnnWorkload::from_graph(&graph, g)))
}

/// Builds the [`SETUP_REPEATS`] workload instances of `seed`; returns the
/// set-up times and the instances.
fn setup(tracer: &Tracer, name: &str, seed: u64) -> Result<(Vec<f64>, Vec<GnnWorkload>), String> {
    let mut times = Vec::new();
    let mut instances = Vec::new();
    for k in 0..SETUP_REPEATS {
        let t = Instant::now();
        instances.push(build(
            tracer,
            name,
            stats::derive(seed, k as u64),
            GCN_WIDTH,
        )?);
        times.push(secs(t.elapsed()));
    }
    Ok((times, instances))
}

fn dse_options(threads: usize) -> DseOptions {
    DseOptions {
        threads,
        ..DseOptions::new(Objective::Runtime)
    }
}

/// What a ranked answer must reproduce: each winner's dataflow and cycles.
fn ranked_key(outcome: &ExploreOutcome) -> Vec<(String, u64)> {
    outcome
        .ranked
        .iter()
        .map(|r| (r.dataflow.to_string(), r.report.total_cycles))
        .collect()
}

/// Runs `search` back to back on the instances in turn until the window
/// closes (at least [`MIN_SEARCHES`] times), checking each answer against
/// the instance's 1-thread reference; returns the call times.
fn timed_searches<W, K: PartialEq>(
    ctx: &Ctx,
    out: &mut Outcome,
    instances: &[W],
    search: impl Fn(&W, usize) -> K,
) -> Vec<f64> {
    let reference: Vec<K> = instances.iter().map(|w| search(w, 1)).collect();
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < MIN_SEARCHES || secs(start.elapsed()) < ctx.seconds {
        let i = times.len() % instances.len();
        let t = Instant::now();
        let answer = search(&instances[i], DSE_THREADS);
        times.push(secs(t.elapsed()));
        out.check(answer == reference[i]);
    }
    times
}

/// The end-to-end metrics of an offline workload. Each search call is one
/// request: its latency is the call time, every answer is exact, and no
/// request carries a deadline.
fn offline_metrics(out: &mut Outcome, setup: &[f64], times: &[f64]) -> Result<(), String> {
    let m = &mut out.metrics;
    m.set("setup_s", median(setup));
    m.set("search_s", median(times));
    m.set("peak_rss_mb", stats::peak_rss_mb(None)?);
    let ms: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
    m.set("latency_p50_ms", percentile(&ms, 0.50));
    m.set("latency_p90_ms", percentile(&ms, 0.90));
    m.set("latency_p99_ms", percentile(&ms, 0.99));
    m.set("slo_qps", times.len() as f64 / times.iter().sum::<f64>());
    m.set("deadline_met_pct", 100.0);
    m.set("exact_pct", 100.0);
    out.samples = times.to_vec();
    Ok(())
}

/// Labels each counter from repeated observations: `deterministic` when all
/// agree, `deterministic at 1 thread` when only the 1-thread ones agree, and
/// `schedule-dependent` otherwise.
fn label_counters(
    out: &mut Outcome,
    serial: &[Vec<(&'static str, u64)>],
    parallel: &[Vec<(&'static str, u64)>],
) {
    let Some(first) = serial.first() else { return };
    for (i, (name, value)) in first.iter().enumerate() {
        let agree = |obs: &[Vec<(&'static str, u64)>]| obs.iter().all(|o| o[i].1 == *value);
        let label = match (agree(serial), agree(parallel)) {
            (true, true) => "deterministic",
            (true, false) => "deterministic at 1 thread",
            _ => "schedule-dependent",
        };
        let seen = |obs: &[Vec<(&'static str, u64)>]| {
            obs.iter()
                .map(|o| o[i].1.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        out.report.push(format!(
            "counter {name:<24} {label:<26} 1 thread: {}; {DSE_THREADS} threads: {}",
            seen(serial),
            seen(parallel)
        ));
        out.counter_labels.push((name.to_string(), label));
    }
}

fn dse_counters(o: &ExploreOutcome) -> Vec<(&'static str, u64)> {
    vec![
        ("dse.evaluated", o.evaluated as u64),
        ("dse.pruned", o.pruned as u64),
        ("dse.phase_sims", o.phase_sims as u64),
        ("dse.phase_cache_hits", o.phase_cache_hits as u64),
        ("engine.class_replays", o.class_replays),
    ]
}

/// The per-layer metrics of the engine, evaluate and dse layers on `wl`,
/// counted from 1-thread searches (repeated, and compared with the 2-thread
/// `parallel` outcomes to label each counter). Returns the 1-thread outcome
/// and the probes, for the derived table rows.
pub fn search_layers(
    out: &mut Outcome,
    wl: &GnnWorkload,
    cfg: &AccelConfig,
    parallel: &[&ExploreOutcome],
) -> (ExploreOutcome, probes::EngineProbe, probes::EvaluateProbe) {
    let mut one_thread = Vec::new();
    let mut times = Vec::new();
    for _ in 0..2 {
        let t = Instant::now();
        one_thread.push(explore(wl, cfg, &dse_options(1)));
        times.push(secs(t.elapsed()));
    }
    let serial = one_thread.swap_remove(0);
    for o in one_thread.iter().chain(parallel.iter().copied()) {
        out.check(ranked_key(o) == ranked_key(&serial));
    }
    let serial_counts: Vec<_> = std::iter::once(&serial)
        .chain(&one_thread)
        .map(dse_counters)
        .collect();
    let parallel_counts: Vec<_> = parallel.iter().map(|o| dse_counters(o)).collect();
    label_counters(out, &serial_counts, &parallel_counts);

    let designs = probes::design_sample(wl, cfg, serial.ranked.iter().map(|r| r.dataflow));
    let engine = probes::engine(wl, cfg, &designs);
    let eval = probes::evaluate(wl, cfg, &designs);
    let m = &mut out.metrics;
    m.set("engine.prepare_s", engine.prepare_s);
    m.set("engine.spmm_us", engine.spmm_us);
    m.set("engine.sddmm_us", engine.sddmm_us);
    m.set("engine.gemm_us", engine.gemm_us);
    m.set("engine.class_replays", serial.class_replays as f64);
    m.set("evaluate.cold_us", eval.cold_us);
    m.set("evaluate.compose_us", eval.compose_us);
    let lookups = (serial.phase_sims + serial.phase_cache_hits).max(1);
    m.set(
        "evaluate.phase_reuse_ratio",
        serial.phase_cache_hits as f64 / lookups as f64,
    );
    m.set("dse.explore_1t_s", median(&times));
    m.set("dse.evaluated", serial.evaluated as f64);
    m.set("dse.pruned", serial.pruned as f64);
    m.set("dse.phase_sims", serial.phase_sims as f64);
    m.set("dse.phase_cache_hits", serial.phase_cache_hits as f64);
    m.set(
        "dse.prune_ratio",
        serial.pruned as f64 / serial.space.max(1) as f64,
    );
    out.report.push(format!(
        "probe: {} designs; engine spmm {:.2} us, gemm {:.2} us, sddmm {:.2} us per call; \
         evaluate cold {:.2} us, compose {:.2} us",
        designs.len(),
        engine.spmm_us,
        engine.gemm_us,
        engine.sddmm_us,
        eval.cold_us,
        eval.compose_us
    ));
    (serial, engine, eval)
}

/// A traced pass's spans next to the untraced passes it is compared with.
struct Traced<T> {
    /// The spans of the last traced pass, and that pass's wall time.
    tracer: Tracer,
    wall_s: f64,
    /// Median wall of the traced and of the untraced passes.
    traced_s: f64,
    plain_s: f64,
    /// Every pass's result, untraced and traced alternating.
    results: Vec<T>,
}

/// Runs `pass` [`TRACE_PAIRS`] times untraced and traced, alternating.
fn traced_pairs<T>(
    mut pass: impl FnMut(&Tracer) -> Result<T, String>,
) -> Result<Traced<T>, String> {
    let (mut plain, mut traced, mut results) = (Vec::new(), Vec::new(), Vec::new());
    let mut tracer = Tracer::new(true);
    for _ in 0..TRACE_PAIRS {
        let off = Tracer::new(false);
        let t = Instant::now();
        results.push(pass(&off)?);
        plain.push(secs(t.elapsed()));
        tracer = Tracer::new(true);
        let t = Instant::now();
        results.push(pass(&tracer)?);
        traced.push(secs(t.elapsed()));
    }
    let wall_s = *traced.last().expect("at least one pair");
    Ok(Traced {
        tracer,
        wall_s,
        traced_s: median(&traced),
        plain_s: median(&plain),
        results,
    })
}

/// Records the trace table, its unattributed share and the tracing overhead.
fn finish_table<T>(out: &mut Outcome, table: &Table, pairs: &Traced<T>) {
    out.report.extend(table.render());
    let (traced_s, plain_s) = (pairs.traced_s, pairs.plain_s);
    out.report.push(format!(
        "trace: overhead {:.6} s (median traced pass {traced_s:.6} s - median untraced pass \
         {plain_s:.6} s, {TRACE_PAIRS} pairs)",
        traced_s - plain_s
    ));
    let share = if table.wall_s > 0.0 {
        100.0 * table.unattributed_s() / table.wall_s
    } else {
        0.0
    };
    out.metrics.set("trace.unattributed_pct", share);
    out.metrics.set("trace.overhead_s", traced_s - plain_s);
}

fn sweep_graph(ctx: &Ctx) -> &'static str {
    if ctx.tiny {
        "rmat-10"
    } else {
        "rmat-18"
    }
}

/// `sweep-rmat18`: the full 6,656-pattern `explore` of a GCN layer on an
/// R-MAT graph of 2^18 vertices.
pub fn sweep(ctx: &Ctx) -> Result<Outcome, String> {
    let cfg = AccelConfig::paper_default();
    let mut out = Outcome::new(ctx);
    out.threads = vec![("dse", DSE_THREADS)];
    out.sample_label = "explore call (s)";
    let tracer = Tracer::new(ctx.traced);
    let (setup_times, instances) = setup(&tracer, sweep_graph(ctx), ctx.seed)?;
    if !ctx.traced {
        let times = timed_searches(ctx, &mut out, &instances, |wl, threads| {
            ranked_key(&explore(wl, &cfg, &dse_options(threads)))
        });
        offline_metrics(&mut out, &setup_times, &times)?;
        return Ok(out);
    }

    let wl = &instances[0];
    let seed = stats::derive(ctx.seed, 0);
    let pairs = traced_pairs(|t| {
        let wl = build(t, sweep_graph(ctx), seed, GCN_WIDTH)?;
        let start = Instant::now();
        let o = t.span("dse.explore", || {
            explore(&wl, &cfg, &dse_options(DSE_THREADS))
        });
        Ok((secs(start.elapsed()), o))
    })?;
    let explore_times: Vec<f64> = pairs.results.iter().map(|p| p.0).collect();
    let parallel: Vec<&ExploreOutcome> = pairs.results.iter().map(|p| &p.1).collect();
    let (serial, engine, eval) = search_layers(&mut out, wl, &cfg, &parallel);

    let m = &mut out.metrics;
    m.set(
        "graph.generate_s",
        median(&tracer.durations("graph.generate")),
    );
    m.set(
        "workload.build_s",
        median(&tracer.durations("workload.build")),
    );
    m.set("dse.explore_s", median(&explore_times));
    out.samples = explore_times;

    let mut table = Table::from_tracer(
        format!(
            "{} (generate, build, one {DSE_THREADS}-thread explore)",
            sweep_graph(ctx)
        ),
        pairs.wall_s,
        &pairs.tracer,
    );
    let threads = DSE_THREADS as f64;
    table.derived.push((
        "dse.explore > engine".into(),
        serial.phase_sims as f64 * engine.mean_call_us() * 1e-6 / threads,
        format!(
            "phase_sims {} x engine call / {DSE_THREADS} threads",
            serial.phase_sims
        ),
    ));
    table.derived.push((
        "dse.explore > compose".into(),
        serial.evaluated as f64 * eval.compose_us * 1e-6 / threads,
        format!(
            "evaluated {} x evaluate.compose_us / {DSE_THREADS} threads",
            serial.evaluated
        ),
    ));
    finish_table(&mut out, &table, &pairs);
    Ok(out)
}

fn model_graph(ctx: &Ctx) -> &'static str {
    if ctx.tiny {
        "Mutag"
    } else {
        "rmat-16"
    }
}

fn model_options(threads: usize) -> ModelDseOptions {
    ModelDseOptions {
        threads,
        ..ModelDseOptions::new(Objective::Runtime)
    }
}

/// `model-gat-rmat16`: `explore_model` of a 2-layer GAT (8 heads, 7 classes)
/// on an R-MAT graph of 2^16 vertices, each search with a fresh `DseCache`.
pub fn model(ctx: &Ctx) -> Result<Outcome, String> {
    let cfg = AccelConfig::paper_default();
    let gat = GnnModel::gat_2layer(8, 7);
    let mut out = Outcome::new(ctx);
    out.threads = vec![("dse", DSE_THREADS), ("model", DSE_THREADS)];
    out.sample_label = "explore_model call with a fresh cache (s)";
    let tracer = Tracer::new(ctx.traced);
    let (setup_times, instances) = setup(&tracer, model_graph(ctx), ctx.seed)?;
    let key = |o: &omega_core::dse::model::ModelExploreOutcome| -> Vec<(String, u64)> {
        o.ranked
            .iter()
            .map(|r| {
                let mapping = serde_json::to_string(&r.mapping).unwrap_or_default();
                (mapping, r.report.total_cycles)
            })
            .collect()
    };
    if !ctx.traced {
        let times = timed_searches(ctx, &mut out, &instances, |base, threads| {
            key(&explore_model(
                &gat,
                base,
                &cfg,
                &model_options(threads),
                &DseCache::new(),
            ))
        });
        offline_metrics(&mut out, &setup_times, &times)?;
        return Ok(out);
    }

    let base = &instances[0];
    let seed = stats::derive(ctx.seed, 0);
    let opts = model_options(DSE_THREADS);
    let pairs = traced_pairs(|t| {
        let base = build(t, model_graph(ctx), seed, GCN_WIDTH)?;
        let cache = DseCache::new();
        let start = Instant::now();
        t.span("model.layer_search", || {
            build_space(&gat, &base, &cfg, &opts, &cache)
        });
        let layer_s = secs(start.elapsed());
        let start = Instant::now();
        let o = t.span("model.chain", || {
            explore_model(&gat, &base, &cfg, &opts, &cache)
        });
        Ok((layer_s, secs(start.elapsed()), key(&o)))
    })?;
    let reference = key(&explore_model(
        &gat,
        base,
        &cfg,
        &model_options(1),
        &DseCache::new(),
    ));
    for p in &pairs.results {
        out.check(p.2 == reference);
    }
    let layer_s: Vec<f64> = pairs.results.iter().map(|p| p.0).collect();
    let chain_s: Vec<f64> = pairs.results.iter().map(|p| p.1).collect();
    out.samples = layer_s.iter().zip(&chain_s).map(|(a, b)| a + b).collect();

    let cache = DseCache::new();
    let space = build_space(&gat, base, &cfg, &opts, &cache);
    let start = Instant::now();
    for i in 0..space.len() {
        std::hint::black_box(
            evaluate_mapping(&gat, base, &space.mapping(i), &cfg, opts.objective).ok(),
        );
    }
    let mapping_us = secs(start.elapsed()) * 1e6 / space.len().max(1) as f64;

    // The dse, evaluate and engine layers on the first (attention) layer.
    let layer0 = gat.layer_workloads(base).swap_remove(0);
    let parallel: Vec<ExploreOutcome> = (0..2)
        .map(|_| explore(&layer0, &cfg, &dse_options(DSE_THREADS)))
        .collect();
    let dse_times: Vec<f64> = parallel.iter().map(|o| o.elapsed_ms / 1e3).collect();
    let parallel: Vec<&ExploreOutcome> = parallel.iter().collect();
    let (serial, engine, _) = search_layers(&mut out, &layer0, &cfg, &parallel);

    let m = &mut out.metrics;
    m.set(
        "graph.generate_s",
        median(&tracer.durations("graph.generate")),
    );
    m.set(
        "workload.build_s",
        median(&tracer.durations("workload.build")),
    );
    m.set("dse.explore_s", median(&dse_times));
    m.set("model.layer_search_s", median(&layer_s));
    m.set("model.chain_s", median(&chain_s));
    m.set("model.evaluate_mapping_us", mapping_us);

    let mut table = Table::from_tracer(
        format!(
            "{} (generate, build, layer searches into a fresh cache, joint search on the warm cache)",
            model_graph(ctx)
        ),
        pairs.wall_s,
        &pairs.tracer,
    );
    table.derived.push((
        "model.chain > evaluate_mapping".into(),
        space.len() as f64 * mapping_us * 1e-6 / DSE_THREADS as f64,
        format!(
            "{} mappings x model.evaluate_mapping_us / {DSE_THREADS} threads",
            space.len()
        ),
    ));
    table.derived.push((
        "model.layer_search > engine".into(),
        serial.phase_sims as f64 * engine.mean_call_us() * 1e-6 / DSE_THREADS as f64,
        format!(
            "layer-0 phase_sims {} x engine call / {DSE_THREADS} threads",
            serial.phase_sims
        ),
    ));
    finish_table(&mut out, &table, &pairs);
    Ok(out)
}
