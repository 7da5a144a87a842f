//! Regenerate the tables of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p xqjg-bench --bin tables -- table6
//! cargo run --release -p xqjg-bench --bin tables -- table8
//! cargo run --release -p xqjg-bench --bin tables -- table9 [--scale 0.2] [--budget-secs 120]
//! cargo run --release -p xqjg-bench --bin tables -- all
//! ```
//!
//! Performance numbers come from the standalone `benchmark/` package (see
//! `BENCHMARK.json`), not from this binary.

use std::time::Duration;
use xqjg_bench::{queries, render_table9, table9, DataSet, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let scale = flag_value(&args, "--scale").unwrap_or(0.1);
    let budget = Duration::from_secs(flag_value(&args, "--budget-secs").unwrap_or(300.0) as u64);

    match which {
        "table6" => table6(scale),
        "table8" => table8(),
        "table9" => print!("{}", render_table9(&table9(scale, budget), scale)),
        "all" => {
            table6(scale);
            println!();
            table8();
            println!();
            print!("{}", render_table9(&table9(scale, budget), scale));
        }
        other => {
            eprintln!("unknown table {other:?}; expected table6 | table8 | table9 | all");
            std::process::exit(1);
        }
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<f64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Table VI — B-tree indexes proposed by the index advisor for the Q2
/// workload (with the serialization step made explicit).
fn table6(scale: f64) {
    println!("Table VI — B-tree indexes proposed by the index advisor (db2advis stand-in)");
    let mut workload = Workload::new(scale);
    let q2 = queries().into_iter().find(|q| q.id == "Q2").unwrap();
    let proposals = workload
        .xmark
        .advise_and_deploy(&[q2.text])
        .expect("advisor runs on Q2");
    println!(
        "{:<12} {:<28} {:<24} Rationale",
        "Index", "Key columns", "INCLUDE columns"
    );
    for p in proposals {
        println!(
            "{:<12} {:<28} {:<24} {}{}",
            p.name,
            p.key_columns.join(","),
            p.include_columns.join(","),
            if p.clustered { "[clustered] " } else { "" },
            p.rationale
        );
    }
}

/// Table VIII — the sample query set taken from the TurboXPath paper.
fn table8() {
    println!("Table VIII — sample query set");
    println!("{:<6} {:<8} {:<10} Query", "Id", "Data", "[13] id");
    for q in queries() {
        let data = match q.dataset {
            DataSet::Xmark => "XMark",
            DataSet::Dblp => "DBLP",
        };
        let turbo = q.turboxpath_id.unwrap_or("-");
        let text: String = q.text.split_whitespace().collect::<Vec<_>>().join(" ");
        println!("{:<6} {:<8} {:<10} {}", q.id, data, turbo, text);
    }
}
