//! Benchmark self-test: a tiny-size run of every workload, untraced and
//! traced, prints a result line that carries exactly the metrics
//! `BENCHMARK.json` names, each with its declared unit.

use std::path::Path;
use std::process::{Command, Output};

use serde_json::Value;

const REPO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(Path::new(REPO).join("BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Value, key: &str) -> Vec<(String, Option<String>)> {
    list.get(key)
        .and_then(Value::as_array)
        .expect("a list")
        .iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string();
            (
                name,
                e.get("unit").and_then(Value::as_str).map(str::to_string),
            )
        })
        .collect()
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(REPO)
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn every_workload_emits_the_declared_schema() {
    let bench = benchmark_json();
    for (workload, _) in names(&bench, "workloads") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = perfbench(&[
                "--workload",
                &workload,
                "--seed",
                "3",
                "--seconds",
                "0.5",
                "--trace",
                trace,
                "--tiny",
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result: Value = serde_json::from_str(last).expect("the last line is JSON");
            let object = result.as_object().expect("an object");
            let keys: Vec<&str> = object.keys().map(String::as_str).collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}: {stdout}"
            );
            let whole = |k: &str| match result.get(k) {
                Some(Value::Number(n)) => n.as_u64(),
                _ => None,
            };
            assert!(
                whole("attempted").is_some_and(|n| n >= 1),
                "{workload}: attempted"
            );
            assert_eq!(whole("failed"), Some(0), "{workload}: failed");

            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let declared = names(&bench, key);
            assert_eq!(
                metrics.len(),
                declared.len(),
                "{workload} --trace {trace}: metric count"
            );
            for (name, unit) in declared {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: `{name}` missing"));
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    unit.as_deref(),
                    "{name}"
                );
                let value = m.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: `{name}` value"
                );
            }
            if trace == "1" {
                assert!(
                    stdout.contains("unattributed"),
                    "{workload}: no self-time table"
                );
                assert!(
                    stdout.contains("trace: overhead"),
                    "{workload}: no tracing overhead"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload", "sweep-rmat18", "--trace", "2"],
        &["--workload", "sweep-rmat18", "--seconds", "0"],
        &["--seed", "1"],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
