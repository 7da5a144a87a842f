//! The rewriter's safety net: the isolated SQL text and the operator counts
//! before and after `simplify` of every query the repository ships — Table
//! VIII's Q1–Q6, the `examples/` queries and the end-to-end suite's extra
//! shapes — recorded in `golden_isolated.txt`.  A rewriter change must keep
//! the SQL byte-identical; an `ops_after` that moves must shrink, and the
//! change regenerates the file with `UPDATE_GOLDEN=1` and reviews the diff.
//! The application count is deliberately not recorded: it depends on how
//! the rewriter schedules rules, not on what it produces.

use xqjg_bench::{queries, DataSet};
use xqjg_compiler::compile;
use xqjg_core::{decompose_sequences, isolate_sfw, simplify};
use xqjg_xquery::parse_and_normalize;

const GOLDEN_ISOLATED: &str = "tests/golden_isolated.txt";

/// Queries beyond Q1–Q6 (all over `auction.xml`): the two-way join of
/// `examples/explain_plans.rs` and the reverse-axis and element-result
/// shapes of `tests/end_to_end.rs`.
const EXTRA_QUERIES: [(&str, &str); 5] = [
    (
        "explain_plans",
        r#"let $a := doc("auction.xml")
           for $ca in $a//closed_auction[price > 500],
               $i in $a//item
           where $ca/itemref/@item = $i/@id
           return $i/name"#,
    ),
    (
        "ancestor",
        "for $b in //bidder return $b/ancestor::open_auction",
    ),
    (
        "parent",
        "for $pr in //price return $pr/parent::closed_auction",
    ),
    (
        "descendant_or_self",
        "for $x in //open_auction[bidder] return $x/descendant-or-self::bidder",
    ),
    (
        "person_name",
        r#"/site/people/person[@id = "person0"]/name"#,
    ),
];

fn render_golden_isolated() -> String {
    let mut corpus: Vec<(&str, &str, &str)> = queries()
        .into_iter()
        .map(|q| {
            let uri = match q.dataset {
                DataSet::Xmark => "auction.xml",
                DataSet::Dblp => "dblp.xml",
            };
            (q.id, q.text, uri)
        })
        .collect();
    corpus.extend(
        EXTRA_QUERIES
            .iter()
            .map(|&(id, text)| (id, text, "auction.xml")),
    );
    let mut out = String::new();
    for (id, text, uri) in corpus {
        let core = parse_and_normalize(text, Some(uri)).expect("normalizes");
        for (i, branch) in decompose_sequences(&core).iter().enumerate() {
            let mut plan = compile(branch).expect("compiles").plan;
            let report = simplify(&mut plan);
            let sql = isolate_sfw(&plan).expect("isolates").sql();
            out.push_str(&format!(
                "== {id} branch {i} ops_before={} ops_after={}\n{sql}\n",
                report.ops_before, report.ops_after
            ));
        }
    }
    out
}

#[test]
fn isolated_sql_matches_the_golden_file_byte_for_byte() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_ISOLATED);
    let actual = render_golden_isolated();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("golden file written");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file readable");
    if let Some((n, (want, got))) = golden
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!(
            "{GOLDEN_ISOLATED} line {}:\n  golden: {want}\n  actual: {got}",
            n + 1
        );
    }
    assert_eq!(
        golden.len(),
        actual.len(),
        "{GOLDEN_ISOLATED}: length differs"
    );
}
