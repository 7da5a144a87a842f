//! The benchmark's self-test: `--smoke` on every workload, traced and
//! untraced, twice, checked against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::Command;

use xqjg_benchmark::json::Json;

const SEED: &str = "3";

/// `name -> (value, unit)` from the `metric` lines, plus the result line.
struct Output {
    metrics: BTreeMap<String, (f64, String)>,
    result: Json,
}

fn smoke(workload: &str, trace: &str) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_xqjg-benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            SEED,
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("the harness starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut metrics = BTreeMap::new();
    for line in stdout.lines().filter(|l| l.starts_with("metric ")) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (name, value, unit) = (fields[1], fields[2], fields[3]);
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {name:?}"
        );
        let value: f64 = value.parse().expect("a number");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        let again = metrics.insert(name.to_string(), (value, unit.to_string()));
        assert!(again.is_none(), "{workload}: {name} printed twice");
    }
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    Output { metrics, result }
}

/// Spans nest: a parent starts no later and ends no earlier than its
/// child, so every self time is non-negative.
fn check_trace(workload: &str) {
    let path = format!("{}/out/{workload}.trace.json", env!("CARGO_MANIFEST_DIR"));
    let trace = Json::parse(&std::fs::read_to_string(&path).expect("a trace file")).expect("JSON");
    let spans = trace.get("spans").expect("spans").items();
    assert!(!spans.is_empty(), "{workload}: no spans");
    let field = |span: &Json, key: &str| span.get(key).and_then(Json::as_f64);
    let mut children_ns = vec![0.0; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        assert_eq!(field(span, "id"), Some(i as f64));
        let (start, end) = (
            field(span, "start_ns").unwrap(),
            field(span, "end_ns").unwrap(),
        );
        assert!(start <= end);
        match span.get("parent").expect("a parent field") {
            Json::Null => {}
            parent => {
                let p = parent.as_f64().expect("a span id") as usize;
                assert!(p < i, "{workload}: span {i} precedes its parent {p}");
                assert_eq!(field(span, "trace"), field(&spans[p], "trace"));
                assert!(field(&spans[p], "start_ns").unwrap() <= start);
                assert!(end <= field(&spans[p], "end_ns").unwrap());
                children_ns[p] += end - start;
            }
        }
    }
    for (span, children) in spans.iter().zip(children_ns) {
        let own = field(span, "end_ns").unwrap() - field(span, "start_ns").unwrap();
        assert!(
            children <= own,
            "{workload}: negative self time in {span:?}"
        );
    }
}

#[test]
fn smoke_runs_print_what_benchmark_json_names() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = Json::parse(&std::fs::read_to_string(manifest).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let names = |section: &str, key: &str| -> Vec<String> {
        let items = manifest.get(section).expect(section).items();
        items
            .iter()
            .map(|m| m.get(key).and_then(Json::as_str).expect(key).to_string())
            .collect()
    };
    let workloads = names("workloads", "name");
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let first = smoke(workload, trace);
            let second = smoke(workload, trace);
            let expected: BTreeMap<String, String> = names(section, "name")
                .into_iter()
                .zip(names(section, "unit"))
                .collect();
            let printed: BTreeMap<String, String> = first
                .metrics
                .iter()
                .map(|(name, (_, unit))| (name.clone(), unit.clone()))
                .collect();
            assert_eq!(printed, expected, "{workload} trace={trace}");
            let in_result: Vec<String> = first
                .result
                .get("metrics")
                .expect("metrics")
                .fields()
                .iter()
                .map(|(name, _)| name.clone())
                .collect();
            assert_eq!(in_result, names(section, "name"));
            assert_eq!(first.result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(first.result.get("failed").and_then(Json::as_f64), Some(0.0));
            if trace == "1" {
                assert_eq!(first.metrics["failed_frac"].0, 0.0);
                check_trace(workload);
            }
            // Counters repeat exactly for a fixed seed where one client
            // runs alone.
            if workload != "serve_mix" {
                for (name, (value, unit)) in &first.metrics {
                    if unit == "count" || unit == "ratio" {
                        assert_eq!(*value, second.metrics[name].0, "{workload}: {name}");
                    }
                }
            }
        }
    }
}
