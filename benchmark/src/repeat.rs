//! `repeat`: the whole benchmark several times on one build, each set with
//! its own seed as the driver does, and the spread of every end-to-end
//! metric — the evidence behind the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::Json;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};

/// Run every workload untraced `sets` times, one child process per run so
/// each has its own peak memory, and print one row per workload and metric.
/// `run_args` are passed through to each run (`--seconds`, `--smoke`).
pub fn repeat(sets: usize, first_seed: u64, run_args: &[String]) -> Result<(), String> {
    if sets < 2 {
        return Err("quartiles need --sets of at least 2".into());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for set in 0..sets {
        for w in &WORKLOADS {
            let seed = (first_seed + set as u64).to_string();
            eprintln!("set {} of {sets}: {} seed {seed}", set + 1, w.name);
            let out = Command::new(&exe)
                .args(["run", "--workload", w.name, "--seed", &seed, "--trace", "0"])
                .args(run_args)
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            if !out.status.success() {
                return Err(format!(
                    "{} seed {seed} exited with {}:\n{}",
                    w.name,
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            let stdout = String::from_utf8_lossy(&out.stdout);
            let result = Json::parse(stdout.lines().last().unwrap_or(""))?;
            for (name, _) in END_TO_END {
                let value = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{}: no {name} in the result line", w.name))?;
                values.entry((w.name, name)).or_default().push(value);
            }
        }
    }
    println!("| workload | metric | unit | median | q1 | q3 | (q3-q1)/median |");
    println!("|---|---|---|---|---|---|---|");
    for w in &WORKLOADS {
        for (name, unit) in END_TO_END {
            let xs = &values[&(w.name, name)];
            let (q1, q3) = quartiles(xs);
            let mid = median(xs);
            println!(
                "| {} | {name} | {unit} | {mid:.4} | {q1:.4} | {q3:.4} | {:.4} |",
                w.name,
                (q3 - q1) / mid
            );
        }
    }
    Ok(())
}
