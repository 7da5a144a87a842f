//! Plan-tail parity: `SELECT [DISTINCT] … [ORDER BY …]` over random select
//! and order shapes must return the materializing oracle's rows, byte for
//! byte and in its order, and report the SORT actuals that oracle implies.
//!
//! The shapes cover duplicates, `ORDER BY` a permutation or a strict subset
//! of the select list or a column that is not selected, no `ORDER BY`, no
//! `DISTINCT`, `alias.*`, string / decimal / mixed / NULL-bearing columns
//! and computed `a + b` items.  Each shape runs at batch capacity
//! {1, 1024}, plus a 4 KiB-budget leg (the spilling sorter, and
//! the two-pass sort DISTINCT) whose rows must equal the unbudgeted run's.
//!
//! The SORT actuals come from a second oracle run of the same join tree
//! with the order columns appended to the select list and no tail: its
//! rows are the bindings in arrival order, from which the expected
//! `rows_in`, `rows_out` and `kernel_rows` follow by first-occurrence
//! DISTINCT and a stable sort.

use std::collections::HashSet;

use proptest::prelude::*;
use xqjg_engine::{
    execute_materialized_with_stats, optimize, parse_sql, PhysPlan, QueryRequest, SelectItem,
    SqlExpr,
};
use xqjg_store::{Database, ExecConfig, OpStats, Row, Schema, Table, Value};

const COLUMNS: [&str; 6] = ["pre", "grp", "nul", "dec", "tag", "mix"];

/// `pre` unique, `grp` duplicated, `nul` NULL-bearing integers, `dec`
/// NULL-bearing decimals, `tag` NULL-bearing strings, and `mix` integers
/// with a few `Dec(2.0)`s — equal to `Int(2)` under DISTINCT but rendered
/// differently, so keeping the wrong duplicate shows in the bytes.
fn fixture() -> Database {
    let mut t = Table::new(Schema::new(COLUMNS));
    for i in 0..240i64 {
        t.push(vec![
            Value::Int(i),
            Value::Int(i % 11),
            if i % 5 == 2 {
                Value::Null
            } else {
                Value::Int(i % 7)
            },
            if i % 6 == 1 {
                Value::Null
            } else {
                Value::Dec((i % 9) as f64 / 4.0)
            },
            if i % 9 == 4 {
                Value::Null
            } else {
                Value::str(format!("t{}", i % 4))
            },
            if i % 13 == 12 {
                Value::Dec(2.0)
            } else {
                Value::Int(i % 3)
            },
        ]);
    }
    let mut db = Database::new();
    db.create_table("doc", t);
    db
}

/// One random tail shape, rendered as SQL.
fn shape_sql(
    two_way: bool,
    picks: &[usize],
    star: bool,
    distinct: bool,
    order_mode: usize,
    order_picks: &[usize],
    bound: i64,
) -> String {
    let aliases: &[&str] = if two_way { &["d1", "d2"] } else { &["d1"] };
    let last = aliases[aliases.len() - 1];
    let plain: Vec<String> = aliases
        .iter()
        .flat_map(|a| COLUMNS.iter().map(move |c| format!("{a}.{c}")))
        .collect();
    let computed = [
        format!("d1.grp + {last}.nul"),
        format!("d1.dec + {last}.pre"),
        format!("{last}.mix + 1"),
    ];
    let mut items: Vec<String> = Vec::new();
    let mut selected: Vec<String> = Vec::new();
    if star {
        items.push(format!("{last}.*"));
        selected.extend(COLUMNS.iter().map(|c| format!("{last}.{c}")));
    }
    for (i, &p) in picks.iter().enumerate() {
        let p = p % (plain.len() + computed.len());
        if p < plain.len() {
            items.push(format!("{} AS c{i}", plain[p]));
            selected.push(plain[p].clone());
        } else {
            items.push(format!("{} AS c{i}", computed[p - plain.len()]));
        }
    }
    let mut seen = HashSet::new();
    selected.retain(|c| seen.insert(c.clone()));
    let rotate = |cols: &[String], by: usize| -> Vec<String> {
        let mut cols = cols.to_vec();
        if !cols.is_empty() {
            let n = cols.len();
            cols.rotate_left(by % n);
        }
        cols
    };
    let order: Vec<String> = match order_mode {
        // No ORDER BY.
        0 => Vec::new(),
        // A permutation of the selected columns.
        1 => rotate(&selected, order_picks[0]),
        // A strict subset of them.
        2 => {
            let mut cols = rotate(&selected, order_picks[0]);
            cols.truncate(cols.len().saturating_sub(1).max(1));
            cols
        }
        // Any columns, selected or not.
        _ => order_picks
            .iter()
            .map(|&p| plain[p % plain.len()].clone())
            .collect(),
    };
    let mut sql = format!(
        "SELECT {}{} FROM doc AS d1",
        if distinct { "DISTINCT " } else { "" },
        items.join(", ")
    );
    if two_way {
        sql += &format!(" , doc AS d2 WHERE d1.grp = d2.grp AND d1.pre <= {bound}");
    } else {
        sql += &format!(" WHERE d1.pre <= {}", bound * 4);
    }
    if !order.is_empty() {
        sql += &format!(" ORDER BY {}", order.join(", "));
    }
    sql
}

/// What the SORT (or RETURN) operator must report.
struct TailActuals {
    name: &'static str,
    rows_in: usize,
    rows_out: usize,
    /// Rows sorted when typed kernels are on: every order value of the
    /// emitted rows is an integer or NULL (0 otherwise, and without ORDER
    /// BY).
    kernel_rows: usize,
}

/// The expected output rows and tail actuals of `plan`, derived from the
/// materializing executor's bindings of the same join tree.
fn reference(plan: &PhysPlan, db: &Database) -> (Vec<Row>, TailActuals) {
    let mut probe = plan.clone();
    probe.distinct = false;
    probe.order_by.clear();
    probe.select.extend(
        plan.order_by
            .iter()
            .enumerate()
            .map(|(i, c)| SelectItem::Expr {
                expr: SqlExpr::Col(c.clone()),
                alias: format!("k{i}"),
            }),
    );
    let (bindings, _) = execute_materialized_with_stats(&probe, db);
    let width = bindings.schema().len() - plan.order_by.len();
    let mut rows: Vec<(Row, Row)> = bindings
        .rows()
        .iter()
        .map(|r| (r[..width].to_vec(), r[width..].to_vec()))
        .collect();
    let rows_in = rows.len();
    if plan.distinct {
        let mut seen: HashSet<Row> = HashSet::new();
        rows.retain(|(sel, _)| seen.insert(sel.clone()));
    }
    rows.sort_by(|a, b| a.1.cmp(&b.1));
    let int_keys = rows
        .iter()
        .all(|(_, key)| key.iter().all(|v| matches!(v, Value::Int(_) | Value::Null)));
    let kernel_rows = if plan.order_by.is_empty() || !int_keys {
        0
    } else {
        rows.len()
    };
    let name = match (plan.distinct, plan.order_by.is_empty()) {
        (true, _) => "SORT(distinct)",
        (false, false) => "SORT",
        (false, true) => "RETURN",
    };
    let actuals = TailActuals {
        name,
        rows_in,
        rows_out: rows.len(),
        kernel_rows,
    };
    (rows.into_iter().map(|(sel, _)| sel).collect(), actuals)
}

fn tail_of(stats: &xqjg_engine::ExecStats) -> &OpStats {
    stats.operators.last().expect("the tail reports actuals")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn columnar_tail_matches_the_oracle_over_random_shapes(
        (two_way, star, distinct) in (proptest::bool::ANY, proptest::bool::ANY, proptest::bool::ANY),
        picks in prop::collection::vec(0usize..64, 1..5),
        order_mode in 0usize..4,
        order_picks in prop::collection::vec(0usize..64, 1..4),
        bound in 8i64..48,
    ) {
        let db = fixture();
        let sql = shape_sql(two_way, &picks, star, distinct, order_mode, &order_picks, bound);
        let plan = optimize(&parse_sql(&sql).unwrap(), &db).unwrap();
        let (oracle, _) = execute_materialized_with_stats(&plan, &db);
        let (want_rows, want) = reference(&plan, &db);
        let want_bytes = format!("{:?}", oracle.rows());
        prop_assert_eq!(&format!("{want_rows:?}"), &want_bytes, "reference vs oracle: {}", sql);

        let mut unbudgeted: Option<(Table, OpStats)> = None;
        for cap in [1, 1024] {
            let cfg = ExecConfig::sequential()
                .with_batch_capacity(cap)
                .with_mem_budget(None);
            let out = QueryRequest::new(&plan, &db).config(&cfg).expect_run();
            let what = format!("{sql} [cap {cap}]");
            prop_assert_eq!(out.rows.schema(), oracle.schema(), "{}", what);
            prop_assert_eq!(&format!("{:?}", out.rows.rows()), &want_bytes, "{}", what);
            let tail = tail_of(&out.stats);
            let got = (tail.name.as_str(), tail.rows_in, tail.rows_out, tail.kernel_rows);
            let expect = (want.name, want.rows_in, want.rows_out, want.kernel_rows);
            prop_assert_eq!(got, expect, "{}", what);
            prop_assert_eq!(tail.build_rows, tail.rows_in, "{}", what);
            prop_assert_eq!(tail.batches, tail.rows_out.div_ceil(cap), "{}", what);
            prop_assert_eq!((tail.spill_runs, tail.spill_bytes), (0, 0), "{}", what);
            if cap == 1024 {
                unbudgeted = Some((out.rows, tail.clone()));
            }
        }

        // The budgeted path (external sorter, two-pass sort DISTINCT)
        // returns the same rows.
        let (rows_ref, tail_ref) = unbudgeted.expect("the unbudgeted legs ran");
        let cfg = ExecConfig::sequential().with_mem_budget(Some(4 * 1024));
        let out = QueryRequest::new(&plan, &db).config(&cfg).expect_run();
        let what = format!("{sql} [4 KiB]");
        prop_assert_eq!(
            &format!("{:?}", out.rows.rows()),
            &format!("{:?}", rows_ref.rows()),
            "{}",
            what
        );
        prop_assert_eq!(tail_of(&out.stats).sans_spill(), tail_ref.sans_spill(), "{}", what);
    }
}
