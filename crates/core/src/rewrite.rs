//! Plan simplification rewrites (the house-cleaning and ϱ-goal rules of
//! Fig. 5).
//!
//! The rules implemented here operate directly on the algebra DAG and are
//! applied to a fixpoint, guided by the inferred plan properties:
//!
//! * Rule (1)–(3): drop `#`, `ϱ`, `@` operators whose column is not needed
//!   upstream (`icols`),
//! * Rule (4): prune projection columns to `icols`,
//! * Rule (6): drop a `δ` whose output is duplicate-eliminated upstream
//!   anyway (`set`),
//! * Rule (12): turn a single-criterion `ϱ` into a column-copying projection
//!   (document order *is* the sequence order),
//! * Rule (13): drop constant columns from ranking criteria,
//! * house cleaning: drop a projection that is the identity over its
//!   input's columns.
//!
//! Rewriting proceeds in rounds.  Each round infers the properties once and
//! then walks the plan top-down (reverse topological order) a single time,
//! applying at every operator that is still live the rule that fires for it
//! under that round's properties; the round after one that applies nothing
//! ends the loop.  Why properties inferred at the start of a round stay
//! usable for the whole round is argued on `sweep`.
//!
//! The remaining goals of Fig. 5 — moving the one surviving `δ` into the
//! plan tail and pushing/removing the equi-joins introduced by the FOR/IF
//! rules (rules 8–11, 14–17) — are realized during join-graph extraction in
//! [`crate::sfw`], which flattens the (shared) DAG into a single
//! `SELECT DISTINCT … FROM … WHERE … ORDER BY …` block; see DESIGN.md for
//! the correspondence.

use crate::properties::Properties;
use xqjg_algebra::{OpId, OpKind, Plan};

/// Outcome of the simplification pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RewriteReport {
    /// Number of rule applications performed.
    pub applications: usize,
    /// Operators before simplification.
    pub ops_before: usize,
    /// Operators after simplification.
    pub ops_after: usize,
}

/// Apply the simplification rules to a fixpoint.
pub fn simplify(plan: &mut Plan) -> RewriteReport {
    let mut report = RewriteReport {
        ops_before: plan.size(),
        ..Default::default()
    };
    // Every application removes an operator, a projection column or a
    // ranking criterion, or turns a ranking into a projection, and no rule
    // undoes another.  Compiled plans settle in three or four rounds; the
    // cap only stops a rule pair that would undo each other, which the
    // assertion turns into a test failure.
    let max_rounds = report.ops_before + 1;
    let mut converged = false;
    for _ in 0..max_rounds {
        let applied = sweep(plan);
        report.applications += applied;
        if applied == 0 {
            converged = true;
            break;
        }
    }
    debug_assert!(converged, "simplify: no fixpoint after {max_rounds} rounds");
    plan.garbage_collect();
    report.ops_after = plan.size();
    report
}

/// What the rule that fires at an operator does to it.
#[derive(Debug)]
enum Rewrite {
    /// Redirect every use of the operator to this input (rules 1–3, 6 and
    /// the identity projection).
    Bypass(OpId),
    /// Replace the operator in place by one with the same output columns
    /// (rules 4, 12 and 13).
    Replace(OpKind),
}

/// One round of rewriting: infer the properties once, then visit every
/// reachable operator top-down and apply the rule that fires for it.
/// Returns the number of applications.  Operators bypassed in earlier
/// rounds stay in the arena, unreachable, until [`simplify`] collects them.
///
/// The round's properties go stale as soon as the first rule applies, and
/// reusing them is sound for each property a rule reads:
///
/// * Within a round, rewrites only shrink `icols` — a removed operator or
///   column, or a dropped ranking criterion, only ever needs fewer columns
///   below it.  A stale `icols` is thus a superset of the true one: rules
///   1–3 drop a column only if it is not in the superset, and rule 4 keeps
///   every column in it, so both fire conservatively.
/// * `const` and `cols` are bottom-up, and the walk is top-down: every
///   rewrite so far this round happened at an ancestor of the operator
///   being visited, so its input subtree — what rules 12, 13 and the
///   identity projection read — is unchanged since the inference.
/// * Rule 6 never removes the top-most `δ` on any root path, since that
///   `δ` has `set = false`; removing one with `set = true` leaves the
///   `set` of every other operator as it was.
///
/// No rule creates operators (rule 12 rewrites the rank in place), so every
/// operator visited has properties; one that lost its last user to a
/// bypass earlier in the round is dead and skipped.
fn sweep(plan: &mut Plan) -> usize {
    let props = Properties::infer(plan);
    let order = plan.topo_order();
    let mut parents: Vec<Vec<OpId>> = vec![Vec::new(); plan.arena_len()];
    for &id in &order {
        for child in plan.op(id).children() {
            parents[child.0].push(id);
        }
    }
    let mut applied = 0;
    for &id in order.iter().rev() {
        if id != plan.root() && parents[id.0].is_empty() {
            continue;
        }
        match rule_at(plan, &props, id) {
            None => continue,
            Some(Rewrite::Replace(op)) => *plan.op_mut(id) = op,
            Some(Rewrite::Bypass(input)) => replace_uses(plan, &mut parents, id, input),
        }
        applied += 1;
    }
    applied
}

/// The rule that fires at `id` under `props`, if any — the first in the
/// order of the module documentation.
fn rule_at(plan: &Plan, props: &Properties, id: OpId) -> Option<Rewrite> {
    match plan.op(id) {
        // Rules (1)–(3): unused attached columns.
        OpKind::RowNum { input, col }
        | OpKind::Attach { input, col, .. }
        | OpKind::Rank { input, col, .. }
            if !props.needs(id, col) =>
        {
            Some(Rewrite::Bypass(*input))
        }
        OpKind::Rank {
            input,
            col,
            order_by,
        } => {
            // Rule (13): constant ranking criteria contribute nothing.
            let pruned: Vec<String> = order_by
                .iter()
                .filter(|c| !props.is_const(*input, c))
                .cloned()
                .collect();
            if pruned.len() < order_by.len() && !pruned.is_empty() {
                return Some(Rewrite::Replace(OpKind::Rank {
                    input: *input,
                    col: col.clone(),
                    order_by: pruned,
                }));
            }
            // Rule (12): a single-criterion rank is a column copy.
            let [src] = order_by.as_slice() else {
                return None;
            };
            let mut cols: Vec<(String, String)> = props
                .cols_of(*input)
                .map(|c| (c.to_string(), c.to_string()))
                .collect();
            cols.push((col.clone(), src.clone()));
            Some(Rewrite::Replace(OpKind::Project {
                input: *input,
                cols,
            }))
        }
        OpKind::Project { input, cols } => {
            // Rule (4): prune projections to the needed columns.
            let needed: Vec<(String, String)> = cols
                .iter()
                .filter(|(new, _)| props.needs(id, new))
                .cloned()
                .collect();
            if !needed.is_empty() && needed.len() < cols.len() {
                return Some(Rewrite::Replace(OpKind::Project {
                    input: *input,
                    cols: needed,
                }));
            }
            // House cleaning: an identity projection is its input.
            let identity = cols.iter().all(|(new, old)| new == old)
                && props
                    .cols_of(*input)
                    .eq(cols.iter().map(|(new, _)| new.as_str()));
            identity.then_some(Rewrite::Bypass(*input))
        }
        // Rule (6): duplicates are eliminated upstream anyway.
        OpKind::Distinct { input } if props.set_of(id) => Some(Rewrite::Bypass(*input)),
        _ => None,
    }
}

/// Redirect every use of `old` (including the root) to `new`, keeping the
/// round's parent map current.
fn replace_uses(plan: &mut Plan, parents: &mut [Vec<OpId>], old: OpId, new: OpId) {
    let users = std::mem::take(&mut parents[old.0]);
    for &p in &users {
        plan.op_mut(p).replace_child(old, new);
    }
    let new_parents = &mut parents[new.0];
    new_parents.retain(|&p| p != old);
    new_parents.extend(users);
    if plan.root() == old {
        plan.set_root(new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqjg_algebra::{
        doc_relation, evaluate, histogram, result_items, Comparison, EvalContext, Predicate,
    };
    use xqjg_compiler::compile;
    use xqjg_data::{generate_dblp_encoded, generate_xmark_encoded, DblpConfig, XmarkConfig};
    use xqjg_store::Value;
    use xqjg_xquery::parse_and_normalize;

    /// The first operator at which a rule fires under freshly inferred
    /// properties — the one-rule-at-a-time view of the plan.  At the
    /// fixpoint `simplify` reaches there is none.
    fn first_applicable(plan: &Plan) -> Option<(OpId, Rewrite)> {
        let props = Properties::infer(plan);
        plan.topo_order()
            .into_iter()
            .rev()
            .find_map(|id| rule_at(plan, &props, id).map(|r| (id, r)))
    }

    /// A rank and an attach whose columns no one needs.
    fn unused_rank_and_attach_plan() -> Plan {
        let mut p = Plan::new();
        let doc = p.add(OpKind::DocTable);
        let proj = p.add(OpKind::Project {
            input: doc,
            cols: vec![("item".to_string(), "pre".to_string())],
        });
        let rank = p.add(OpKind::Rank {
            input: proj,
            col: "unused".to_string(),
            order_by: vec!["item".to_string()],
        });
        let att = p.add(OpKind::Attach {
            input: rank,
            col: "alsounused".to_string(),
            value: Value::Int(1),
        });
        // The output projection only needs item (plus the implicit pos).
        let out = p.add(OpKind::Project {
            input: att,
            cols: vec![
                ("pos".to_string(), "item".to_string()),
                ("item".to_string(), "item".to_string()),
            ],
        });
        let root = p.add(OpKind::Serialize { input: out });
        p.set_root(root);
        p
    }

    /// A single-criterion rank right below the serialization point.
    fn single_criterion_rank_plan() -> Plan {
        let mut p = Plan::new();
        let doc = p.add(OpKind::DocTable);
        let proj = p.add(OpKind::Project {
            input: doc,
            cols: vec![("item".to_string(), "pre".to_string())],
        });
        let rank = p.add(OpKind::Rank {
            input: proj,
            col: "pos".to_string(),
            order_by: vec!["item".to_string()],
        });
        let root = p.add(OpKind::Serialize { input: rank });
        p.set_root(root);
        p
    }

    /// A rank whose first criterion is a constant column.
    fn constant_criterion_rank_plan() -> Plan {
        let mut p = Plan::new();
        let doc = p.add(OpKind::DocTable);
        let att = p.add(OpKind::Attach {
            input: doc,
            col: "posc".to_string(),
            value: Value::Int(1),
        });
        let rank = p.add(OpKind::Rank {
            input: att,
            col: "pos".to_string(),
            order_by: vec!["posc".to_string(), "pre".to_string()],
        });
        let proj = p.add(OpKind::Project {
            input: rank,
            cols: vec![
                ("pos".to_string(), "pos".to_string()),
                ("item".to_string(), "pre".to_string()),
            ],
        });
        let root = p.add(OpKind::Serialize { input: proj });
        p.set_root(root);
        p
    }

    /// Two stacked `δ`s over element nodes.
    fn distinct_below_distinct_plan() -> Plan {
        let mut p = Plan::new();
        let doc = p.add(OpKind::DocTable);
        let sel = p.add(OpKind::Select {
            input: doc,
            pred: Predicate::single(Comparison::col_eq_const("kind", "ELEM")),
        });
        let proj = p.add(OpKind::Project {
            input: sel,
            cols: vec![
                ("pos".to_string(), "pre".to_string()),
                ("item".to_string(), "pre".to_string()),
            ],
        });
        let d1 = p.add(OpKind::Distinct { input: proj });
        let d2 = p.add(OpKind::Distinct { input: d1 });
        let root = p.add(OpKind::Serialize { input: d2 });
        p.set_root(root);
        p
    }

    #[test]
    fn unused_rank_and_attach_are_removed() {
        let mut p = unused_rank_and_attach_plan();
        let report = simplify(&mut p);
        assert!(report.applications >= 2);
        let h = histogram(&p);
        assert_eq!(h.rank, 0);
        assert_eq!(h.attach, 0);
    }

    #[test]
    fn single_criterion_rank_becomes_projection() {
        let mut p = single_criterion_rank_plan();
        simplify(&mut p);
        let h = histogram(&p);
        assert_eq!(h.rank, 0, "rank must be rewritten into a projection");
        assert!(h.project >= 1);
    }

    #[test]
    fn constant_rank_criteria_are_pruned() {
        let mut p = constant_criterion_rank_plan();
        simplify(&mut p);
        // After pruning the constant criterion, the rank collapses into a
        // projection and the attach becomes unused.
        let h = histogram(&p);
        assert_eq!(h.rank, 0);
        assert_eq!(h.attach, 0);
    }

    #[test]
    fn redundant_distinct_below_distinct_is_dropped() {
        let mut p = distinct_below_distinct_plan();
        simplify(&mut p);
        let h = histogram(&p);
        assert_eq!(h.distinct, 1, "only the upstream δ survives");
    }

    #[test]
    fn identity_projection_is_dropped() {
        // serialize(π pos,item(π pos:pre,item:pre(doc))): the upper
        // projection renames nothing and keeps every column.
        let mut p = Plan::new();
        let doc = p.add(OpKind::DocTable);
        let inner = p.add(OpKind::Project {
            input: doc,
            cols: vec![
                ("pos".to_string(), "pre".to_string()),
                ("item".to_string(), "pre".to_string()),
            ],
        });
        let outer = p.add(OpKind::Project {
            input: inner,
            cols: vec![
                ("pos".to_string(), "pos".to_string()),
                ("item".to_string(), "item".to_string()),
            ],
        });
        let root = p.add(OpKind::Serialize { input: outer });
        p.set_root(root);
        let report = simplify(&mut p);
        assert_eq!(report.ops_after, 3);
        assert_eq!(histogram(&p).project, 1);
    }

    #[test]
    fn simplification_shrinks_compiled_q1() {
        let core = parse_and_normalize(
            r#"doc("auction.xml")/descendant::open_auction[bidder]"#,
            None,
        )
        .unwrap();
        let mut plan = compile(&core).unwrap().plan;
        let before = histogram(&plan);
        let report = simplify(&mut plan);
        let after = histogram(&plan);
        assert!(report.ops_after < report.ops_before);
        assert!(
            after.rank < before.rank,
            "ranks: {} -> {}",
            before.rank,
            after.rank
        );
        assert!(after.total < before.total);
    }

    /// Table VIII's Q1–Q6, the `examples/` queries and the end-to-end
    /// suite's extra shapes, with the document each runs against.
    const CORPUS: [(&str, &str); 11] = [
        (
            "auction.xml",
            r#"doc("auction.xml")/descendant::open_auction[bidder]"#,
        ),
        (
            "auction.xml",
            r#"let $a := doc("auction.xml")
               for $ca in $a//closed_auction[price > 500],
                   $i in $a//item,
                   $c in $a//category
               where $ca/itemref/@item = $i/@id
                 and $i/incategory/@category = $c/@id
               return $c/name"#,
        ),
        (
            "auction.xml",
            r#"/site/people/person[@id = "person0"]/name/text()"#,
        ),
        ("auction.xml", "//closed_auction/price/text()"),
        (
            "dblp.xml",
            r#"/dblp/*[@key = "conf/vldb2001" and editor and title]/title"#,
        ),
        (
            "dblp.xml",
            r#"for $thesis in /dblp/phdthesis[year < "1994" and author and title]
               return ($thesis/title, $thesis/author, $thesis/year)"#,
        ),
        (
            "auction.xml",
            r#"let $a := doc("auction.xml")
               for $ca in $a//closed_auction[price > 500],
                   $i in $a//item
               where $ca/itemref/@item = $i/@id
               return $i/name"#,
        ),
        (
            "auction.xml",
            "for $b in //bidder return $b/ancestor::open_auction",
        ),
        (
            "auction.xml",
            "for $pr in //price return $pr/parent::closed_auction",
        ),
        (
            "auction.xml",
            "for $x in //open_auction[bidder] return $x/descendant-or-self::bidder",
        ),
        (
            "auction.xml",
            r#"/site/people/person[@id = "person0"]/name"#,
        ),
    ];

    /// After `simplify`, no rule fires under fresh properties, and the
    /// simplified plan yields the stacked plan's item sequence (the `item`
    /// column ordered by `iter`, `pos`) over small generated documents.
    #[test]
    fn simplify_reaches_a_fixpoint_that_preserves_results() {
        let xmark = doc_relation(&generate_xmark_encoded(
            "auction.xml",
            &XmarkConfig::with_scale(0.01),
        ));
        let dblp = doc_relation(&generate_dblp_encoded(
            "dblp.xml",
            &DblpConfig::with_scale(0.01),
        ));
        let mut plans: Vec<(String, &str, Plan)> = vec![
            (
                "unused rank/attach".into(),
                "auction.xml",
                unused_rank_and_attach_plan(),
            ),
            (
                "single-criterion rank".into(),
                "auction.xml",
                single_criterion_rank_plan(),
            ),
            (
                "constant criterion".into(),
                "auction.xml",
                constant_criterion_rank_plan(),
            ),
            (
                "δ below δ".into(),
                "auction.xml",
                distinct_below_distinct_plan(),
            ),
        ];
        for (uri, text) in CORPUS {
            let core = parse_and_normalize(text, Some(uri)).unwrap();
            for branch in crate::decompose_sequences(&core) {
                plans.push((text.to_string(), uri, compile(&branch).unwrap().plan));
            }
        }
        let mut items = 0;
        for (name, uri, stacked) in plans {
            let mut simplified = stacked.clone();
            simplify(&mut simplified);
            if let Some((id, rewrite)) = first_applicable(&simplified) {
                panic!("{name}: {rewrite:?} still fires at {id:?}");
            }
            let doc = if uri == "dblp.xml" { &dblp } else { &xmark };
            let ctx = EvalContext { doc };
            let want = result_items(&evaluate(&stacked, &ctx));
            let got = result_items(&evaluate(&simplified, &ctx));
            assert_eq!(got, want, "{name}");
            items += want.len();
        }
        assert!(items > 0, "the documents must exercise the queries");
    }
}
