//! `perfbench`: the repository benchmark of the OMEGA mapper.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Four workloads (see `README.md` next to this package): two offline searches
//! (`sweep-rmat18`, `model-gat-rmat16`) and two `mapperd` traffic mixes over
//! loopback TCP (`serve-citeseer-mixed`, `serve-rmat-spec`). An untraced run
//! (`--trace 0`) prints the end-to-end metrics; a traced run (`--trace 1`)
//! prints the per-layer metrics and self-time tables. The last line of
//! standard output is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod metrics;
mod offline;
mod probes;
mod serving;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use serde_json::{Map, Value};

use metrics::{number, Metrics};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning, for re-checking a claim on unseen inputs.
pub const HELDOUT_SEED: u64 = 7_919;

/// Where result files go, relative to the repository root.
const RESULTS_DIR: &str = "perfbench/results";

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "sweep-rmat18",
    "model-gat-rmat16",
    "serve-citeseer-mixed",
    "serve-rmat-spec",
];

/// What a workload is asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Tiny inputs (Mutag / rmat-10 class) for the self-test smoke.
    pub tiny: bool,
}

/// What a workload run produced.
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted (searches, requests, checks).
    pub attempted: u64,
    /// Operations that failed: errors, sheds and answers failing their check.
    pub failed: u64,
    /// Answers that failed a correctness check, and errors.
    pub incorrect: u64,
    /// The headline timing samples of the run and what one sample is.
    pub samples: Vec<f64>,
    pub sample_label: &'static str,
    /// Threads per layer.
    pub threads: Vec<(&'static str, usize)>,
    /// Counter name → `deterministic` / `schedule-dependent`.
    pub counter_labels: Vec<(String, &'static str)>,
    /// Human-readable report lines (tables, notes).
    pub report: Vec<String>,
}

impl Outcome {
    pub fn new(ctx: &Ctx) -> Self {
        Outcome {
            metrics: Metrics::new(ctx.traced),
            attempted: 0,
            failed: 0,
            incorrect: 0,
            samples: Vec::new(),
            sample_label: "",
            threads: Vec::new(),
            counter_labels: Vec::new(),
            report: Vec::new(),
        }
    }

    /// Counts one checked operation; `ok == false` is a failure.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.incorrect += 1;
        }
    }
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        tiny: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                ctx.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(ctx.seconds > 0.0 && ctx.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                ctx.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                }
            }
            "--tiny" => ctx.tiny = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args { workload, ctx })
}

/// A JSON whole number.
fn integer(x: u64) -> Value {
    serde_json::to_value(x).expect("a u64 always serialises")
}

/// The git revision of the working directory, or `unknown` outside a git
/// checkout.
fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &Args, outcome: &Outcome) -> Value {
    let mut p = Map::new();
    let command: Vec<Value> = std::env::args().map(Value::String).collect();
    p.insert("command".into(), Value::Array(command));
    p.insert("git_revision".into(), Value::String(git_revision()));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    p.insert("nproc".into(), integer(nproc as u64));
    let threads: Map<String, Value> = outcome
        .threads
        .iter()
        .map(|(k, v)| (k.to_string(), integer(*v as u64)))
        .collect();
    p.insert("threads".into(), Value::Object(threads));
    p.insert("workload".into(), Value::String(args.workload.clone()));
    p.insert("seed".into(), integer(args.ctx.seed));
    p.insert("heldout_seed".into(), integer(HELDOUT_SEED));
    p.insert("run_seconds".into(), number(args.ctx.seconds));
    p.insert("traced".into(), Value::Bool(args.ctx.traced));
    p.insert("tiny".into(), Value::Bool(args.ctx.tiny));
    p.insert("sample".into(), Value::String(outcome.sample_label.into()));
    p.insert("samples".into(), integer(outcome.samples.len() as u64));
    p.insert(
        "spread_iqr_over_median".into(),
        number(stats::spread(&outcome.samples)),
    );
    let labels: Map<String, Value> = outcome
        .counter_labels
        .iter()
        .map(|(k, v)| (k.clone(), Value::String(v.to_string())))
        .collect();
    p.insert("counters".into(), Value::Object(labels));
    Value::Object(p)
}

fn run(args: &Args) -> Result<Value, String> {
    let ctx = &args.ctx;
    let mut outcome = match args.workload.as_str() {
        "sweep-rmat18" => offline::sweep(ctx)?,
        "model-gat-rmat16" => offline::model(ctx)?,
        "serve-citeseer-mixed" => serving::citeseer_mixed(ctx)?,
        "serve-rmat-spec" => serving::rmat_spec(ctx)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    if ctx.traced {
        outcome.metrics.zero_rest();
    }
    let metrics = outcome.metrics.finish()?;

    let prov = provenance(args, &outcome);
    println!("provenance: {prov}");
    for line in &outcome.report {
        println!("{line}");
    }
    for (def, value) in outcome.metrics.rows() {
        let bound = def
            .bound
            .map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0));
        println!(
            "metric {:<28} {value:>14.6} {:<6} ({} is better{bound})",
            def.name,
            def.unit,
            def.better.label()
        );
    }

    let mut result = Map::new();
    result.insert("correct".into(), Value::Bool(outcome.incorrect == 0));
    result.insert("attempted".into(), integer(outcome.attempted.max(1)));
    result.insert("failed".into(), integer(outcome.failed));
    result.insert("metrics".into(), metrics);
    let result = Value::Object(result);

    let mut file = Map::new();
    file.insert("provenance".into(), prov);
    file.insert("result".into(), result.clone());
    file.insert(
        "report".into(),
        Value::Array(outcome.report.iter().cloned().map(Value::String).collect()),
    );
    std::fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("creating {RESULTS_DIR}: {e}"))?;
    let name = format!(
        "{}-seed{}-trace{}{}.json",
        args.workload,
        ctx.seed,
        u8::from(ctx.traced),
        if ctx.tiny { "-tiny" } else { "" }
    );
    let path = Path::new(RESULTS_DIR).join(name);
    std::fs::write(&path, format!("{}\n", Value::Object(file)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(result)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(serving::DAEMON_ARG) {
        return serving::daemon_main();
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
