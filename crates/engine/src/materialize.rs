//! The seed's operator-at-a-time executor, retained as the independent
//! reference the tests compare the pipelined executor in [`crate::exec`]
//! against (and as the baseline of the `executor` benchmark).
//!
//! Every join level materializes the complete binding set before the next
//! level starts, and the hash join clones an owned `Vec<Value>` key per
//! inner row and per probe — no batches, no compiled predicates, no typed
//! kernels, no spilling.  Keep this module semantically frozen: the parity
//! suites treat its rows, row order, aggregate counters and per-join-level
//! actuals as ground truth.

use crate::exec::{alias_table, exec_access, pred_holds, Env, ExecStats, Fetched};
use crate::physical::{Access, JoinNode, PhysPlan};
use crate::sql::{SelectItem, SqlExpr};
use std::collections::HashMap;
use xqjg_store::{Database, OpStats, Schema, Table, Value};

/// Execute a physical plan by materializing every join level, returning
/// the result table.
pub fn execute_materialized(plan: &PhysPlan, db: &Database) -> Table {
    execute_materialized_with_stats(plan, db).0
}

/// Execute a physical plan by materializing every join level, returning
/// the result table and work counters.  `operators` holds one entry per
/// join level, leaf first, labelled as EXPLAIN labels the pipeline's
/// operators; each carries only the actuals both executors define the
/// same way: `rows_out`, `fetched` and `probes`.  The plan tail has no
/// entry.
pub fn execute_materialized_with_stats(plan: &PhysPlan, db: &Database) -> (Table, ExecStats) {
    let mut stats = ExecStats::default();
    let (aliases, bindings) = exec_node(&plan.root, db, &mut stats);
    stats.bindings += bindings.len();

    let env_tables: Vec<&Table> = aliases
        .iter()
        .map(|a| alias_table(&plan.root, a, db))
        .collect();

    // Evaluate select and order expressions per binding.
    let mut out_rows: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(bindings.len());
    for binding in &bindings {
        let env = Env {
            aliases: &aliases,
            tables: &env_tables,
            binding,
        };
        let mut select_vals = Vec::new();
        for item in &plan.select {
            match item {
                SelectItem::Star(alias) => {
                    let (table, rid) = env.lookup(alias);
                    select_vals.extend(table.rows()[rid].iter().cloned());
                }
                SelectItem::Expr { expr, .. } => select_vals.push(env.eval(expr)),
            }
        }
        let order_vals: Vec<Value> = plan
            .order_by
            .iter()
            .map(|c| env.eval(&SqlExpr::Col(c.clone())))
            .collect();
        out_rows.push((select_vals, order_vals));
    }

    // DISTINCT over the select list.
    if plan.distinct {
        let mut seen = std::collections::HashSet::new();
        out_rows.retain(|(sel, _)| seen.insert(sel.clone()));
    }
    // ORDER BY.
    out_rows.sort_by(|a, b| a.1.cmp(&b.1));

    // Output schema.
    let mut columns: Vec<String> = Vec::new();
    for item in &plan.select {
        match item {
            SelectItem::Star(alias) => {
                let table = alias_table(&plan.root, alias, db);
                columns.extend(table.schema().columns().iter().cloned());
            }
            SelectItem::Expr { alias, .. } => columns.push(alias.clone()),
        }
    }
    let mut table = Table::new(Schema::new(columns));
    for (sel, _) in out_rows {
        table.push(sel);
    }
    (table, stats)
}

/// Add `fetched` to the aggregate counters and return it.
fn record(stats: &mut ExecStats, fetched: Fetched) -> usize {
    match fetched {
        Fetched::Scanned(n) => {
            stats.scan_rows += n;
            n
        }
        Fetched::Indexed(n) => {
            stats.index_rows += n;
            n
        }
    }
}

fn exec_node(
    node: &JoinNode,
    db: &Database,
    stats: &mut ExecStats,
) -> (Vec<String>, Vec<Vec<usize>>) {
    match node {
        JoinNode::Leaf {
            alias,
            table,
            access,
            ..
        } => {
            let (rows, fetched) = exec_access(access, alias, table, db, None, None);
            let mut op = OpStats::named(match access {
                Access::TableScan { .. } => format!("TBSCAN({alias})"),
                Access::IndexScan { index, .. } => format!("IXSCAN({alias} ix={index})"),
            });
            op.fetched = record(stats, fetched);
            op.rows_out = rows.len();
            stats.operators.push(op);
            (vec![alias.clone()], rows.iter().map(|&r| vec![r]).collect())
        }
        JoinNode::Join {
            outer,
            alias,
            table,
            access,
            method: _,
            hash_keys,
            residual,
            ..
        } => {
            let (mut aliases, outer_bindings) = exec_node(outer, db, stats);
            let outer_tables: Vec<&Table> =
                aliases.iter().map(|a| alias_table(outer, a, db)).collect();
            let base = db.table(table).expect("table registered");
            let mut result: Vec<Vec<usize>> = Vec::new();
            let probes0 = stats.probes;
            let mut op = OpStats::named(if hash_keys.is_empty() {
                format!("NLJOIN({alias})")
            } else {
                format!("HSJOIN({alias})")
            });

            if hash_keys.is_empty() {
                // Nested-loop join: probe the access path per outer binding.
                for binding in &outer_bindings {
                    stats.probes += 1;
                    let env = Env {
                        aliases: &aliases,
                        tables: &outer_tables,
                        binding,
                    };
                    let (rows, fetched) = exec_access(access, alias, table, db, Some(&env), None);
                    op.fetched += record(stats, fetched);
                    for &rid in rows.iter() {
                        let ok = residual
                            .iter()
                            .all(|p| pred_holds(p, alias, Some((base, rid)), Some(&env)));
                        if ok {
                            let mut b = binding.clone();
                            b.push(rid);
                            result.push(b);
                        }
                    }
                }
            } else {
                // Hash join: enumerate inner rows once, hash on key columns
                // (owned key vectors per inner row and per probe — the
                // allocation behaviour the pipelined executor fixes).
                let (inner_rows, fetched) = exec_access(access, alias, table, db, None, None);
                op.fetched = record(stats, fetched);
                let key_cols: Vec<usize> = hash_keys
                    .iter()
                    .map(|(_, col)| base.schema().expect_index(col))
                    .collect();
                let mut buckets: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
                for &rid in inner_rows.iter() {
                    let key: Vec<Value> = key_cols
                        .iter()
                        .map(|&c| base.rows()[rid][c].clone())
                        .collect();
                    if key.iter().any(Value::is_null) {
                        continue;
                    }
                    buckets.entry(key).or_default().push(rid);
                }
                for binding in &outer_bindings {
                    stats.probes += 1;
                    let env = Env {
                        aliases: &aliases,
                        tables: &outer_tables,
                        binding,
                    };
                    let probe_key: Vec<Value> = hash_keys
                        .iter()
                        .map(|(outer_expr, _)| env.eval(outer_expr))
                        .collect();
                    if probe_key.iter().any(Value::is_null) {
                        continue;
                    }
                    if let Some(matches) = buckets.get(&probe_key) {
                        for &rid in matches {
                            let ok = residual
                                .iter()
                                .all(|p| pred_holds(p, alias, Some((base, rid)), Some(&env)));
                            if ok {
                                let mut b = binding.clone();
                                b.push(rid);
                                result.push(b);
                            }
                        }
                    }
                }
            }
            aliases.push(alias.clone());
            stats.bindings += result.len();
            op.probes = stats.probes - probes0;
            op.rows_out = result.len();
            stats.operators.push(op);
            (aliases, result)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use crate::sqlparse::parse_sql;
    use xqjg_store::IndexDef;

    fn db() -> Database {
        let mut t = Table::new(Schema::new([
            "pre", "size", "level", "kind", "name", "value", "data",
        ]));
        let rows: Vec<(i64, i64, i64, &str, Option<&str>)> = vec![
            (0, 4, 0, "DOC", Some("a.xml")),
            (1, 3, 1, "ELEM", Some("site")),
            (2, 1, 2, "ELEM", Some("open_auction")),
            (3, 0, 3, "ELEM", Some("bidder")),
            (4, 0, 2, "ELEM", Some("open_auction")),
        ];
        for (pre, size, level, kind, name) in rows {
            t.push(vec![
                Value::Int(pre),
                Value::Int(size),
                Value::Int(level),
                Value::str(kind),
                name.map(Value::str).unwrap_or(Value::Null),
                Value::Null,
                Value::Null,
            ]);
        }
        let mut db = Database::new();
        db.create_table("doc", t);
        db.create_index(IndexDef {
            name: "nkp".into(),
            table: "doc".into(),
            key_columns: vec!["name".into(), "kind".into(), "pre".into()],
            include_columns: vec![],
            clustered: false,
        });
        db
    }

    #[test]
    fn materializing_executor_still_answers_queries() {
        let db = db();
        let q = parse_sql(
            "SELECT d1.pre AS p FROM doc AS d1 WHERE d1.name = 'open_auction' ORDER BY d1.pre",
        )
        .unwrap();
        let plan = optimize(&q, &db).unwrap();
        let (t, stats) = execute_materialized_with_stats(&plan, &db);
        assert_eq!(t.len(), 2);
        assert!(stats.index_rows + stats.scan_rows > 0);
        // One entry per join level (here: the leaf alone), no tail, and
        // `fetched` is the split of the aggregate counters.
        assert_eq!(stats.operators.len(), 1);
        let leaf = &stats.operators[0];
        assert!(leaf.name.starts_with("IXSCAN(d1") || leaf.name == "TBSCAN(d1)");
        assert_eq!(leaf.rows_out, 2);
        assert_eq!(leaf.fetched, stats.index_rows + stats.scan_rows);
    }
}
