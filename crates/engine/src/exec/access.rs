//! Access paths: probe bounds resolved to B-tree key ranges (memoized
//! through the postings cache), the leaf domain, the access-predicate
//! filter a scan leaf and a build side share, and the run probes an
//! NLJOIN index scan searches instead of the B-tree.

use super::stage::{ceval, cpred_holds, CBounds, CStage, ColEnv, IntExpr, RunShape, EMPTY_ENV};
use crate::physical::Access;
use std::ops::Bound;
use std::sync::Arc;
use xqjg_store::{
    mask_terms, BitMask, CodeRun, MaskTerm, PostingsCache, PostingsKey, PrefixRun, Value,
};

/// A posting list handed to the operators: owned fresh off the B-tree, or
/// shared out of the [`PostingsCache`] (hit *and* insert paths — the cache
/// hands back an `Arc` either way).  Derefs to the rid slice, so consumers
/// never care which.
pub(crate) enum Postings {
    Owned(Vec<usize>),
    Shared(Arc<Vec<usize>>),
}

impl std::ops::Deref for Postings {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        match self {
            Postings::Owned(v) => v,
            Postings::Shared(v) => v,
        }
    }
}

/// The postings cache paired with the catalog version the execution
/// observed at entry (`None` = memoization off for this execution, either
/// no cache supplied or `XQJG_POSTINGS_CACHE=0`).
pub(crate) type PostingsCtx<'a> = Option<(&'a PostingsCache, u64)>;

/// `IXSCAN` probe bounds with every expression evaluated to a constant
/// composite key ([`resolve_cbounds`]): together with the index name, the
/// [`PostingsKey`] of the memoized range scan.  An unbounded side is the
/// empty key with its inclusive flag normalized to `true`, so every range
/// has exactly one spelling (cache keys must not alias).
struct ResolvedBounds {
    lower: Vec<Value>,
    lower_inc: bool,
    upper: Vec<Value>,
    upper_inc: bool,
}

impl ResolvedBounds {
    fn lower_bound(&self) -> Bound<&[Value]> {
        if self.lower.is_empty() {
            Bound::Unbounded
        } else if self.lower_inc {
            Bound::Included(self.lower.as_slice())
        } else {
            Bound::Excluded(self.lower.as_slice())
        }
    }

    fn upper_bound(&self) -> Bound<&[Value]> {
        if self.upper.is_empty() {
            Bound::Unbounded
        } else if self.upper_inc {
            Bound::Included(self.upper.as_slice())
        } else {
            Bound::Excluded(self.upper.as_slice())
        }
    }

    /// Does a bound compare against NULL?  Such a probe matches no entry
    /// (SQL three-valued logic), although the B-tree orders NULL keys like
    /// any other.
    fn binds_null(&self) -> bool {
        self.lower.iter().chain(&self.upper).any(Value::is_null)
    }

    fn into_key(self, index: &str) -> PostingsKey {
        PostingsKey {
            index: index.to_string(),
            lower: self.lower,
            lower_inc: self.lower_inc,
            upper: self.upper,
            upper_inc: self.upper_inc,
        }
    }
}

/// Run (or recall) the B-tree range scan for resolved bounds.  With a
/// postings context the scan is memoized under (index name, bounds) and
/// the catalog version; without one it walks the tree directly.  Hit or
/// miss, callers count `rids.len()` into their fetch accounting — the
/// EXPLAIN actuals never depend on cache state.  Bounds that compare
/// against NULL match nothing and consult neither.
fn cached_tree_range(
    tree: &xqjg_store::BPlusTree,
    rb: ResolvedBounds,
    index: &str,
    ctx: PostingsCtx<'_>,
) -> Postings {
    if rb.binds_null() {
        return Postings::Owned(Vec::new());
    }
    match ctx {
        Some((cache, version)) => {
            let (rids, _hit) = cache.get_or_compute(version, rb.into_key(index), |k| {
                tree.range_rids(k.lower_bound(), k.upper_bound())
            });
            Postings::Shared(rids)
        }
        None => Postings::Owned(tree.range_rids(rb.lower_bound(), rb.upper_bound())),
    }
}

/// The row ids a stage's access path fetches with no outer row bound:
/// the scan leaf's domain, and the enumeration of a hash join's build side.
pub(super) enum LeafDomain {
    /// `TBSCAN`: the base table's full rid range `[0, n)`.
    Rids(usize),
    /// `IXSCAN`: the pre-fetched posting list (pre-residual).
    Postings(Postings),
}

impl LeafDomain {
    pub(super) fn len(&self) -> usize {
        match self {
            LeafDomain::Rids(n) => *n,
            LeafDomain::Postings(rids) => rids.len(),
        }
    }

    /// Replace `out` with up to `n` rids from domain position `start` on.
    pub(super) fn fill(&self, start: usize, n: usize, out: &mut Vec<usize>) {
        let end = self.len().min(start + n);
        out.clear();
        match self {
            LeafDomain::Rids(_) => out.extend(start..end),
            LeafDomain::Postings(rids) => out.extend_from_slice(&rids[start..end]),
        }
    }
}

/// Resolve a stage's access path against no outer row: a `TBSCAN` covers
/// the whole table, an `IXSCAN` fetches the range of its constant bounds
/// (memoized through `postings` when a context is given).
pub(super) fn stage_domain(stage: &CStage<'_>, postings: PostingsCtx<'_>) -> LeafDomain {
    match (stage.access, stage.tree, &stage.cbounds) {
        (Access::IndexScan { index, .. }, Some(tree), Some(cb)) => LeafDomain::Postings(
            cached_tree_range(tree, resolve_cbounds(cb, &EMPTY_ENV), index, postings),
        ),
        _ => LeafDomain::Rids(stage.base.len()),
    }
}

/// A stage's access-level predicates as one filter over candidate rids:
/// every typed-lowered predicate runs in ONE fused selection pass (a
/// single gather over the rids, the conjunction folded word-wise), then
/// the interpreted remainder refines the survivors.  The scan leaf filters
/// each batch through it and a hash join's build side its enumeration.
pub(super) struct AccessFilter<'a> {
    stage: &'a CStage<'a>,
    kernel_terms: Vec<MaskTerm<'a>>,
    /// Indices of the access predicates left to the interpreted path.
    scalar_preds: Vec<usize>,
    /// Scratch: packed keep bits of one kernel pass.
    keep: BitMask,
}

impl<'a> AccessFilter<'a> {
    pub(super) fn new(stage: &'a CStage<'a>) -> Self {
        let mut kernel_terms: Vec<MaskTerm<'a>> = Vec::new();
        let mut scalar_preds: Vec<usize> = Vec::new();
        for (pi, tp) in stage.typed_preds.iter().enumerate() {
            match tp.term() {
                Some(t) => kernel_terms.push(t),
                None => scalar_preds.push(pi),
            }
        }
        AccessFilter {
            stage,
            kernel_terms,
            scalar_preds,
            keep: BitMask::default(),
        }
    }

    /// Keep the rids (in order) that satisfy every access predicate;
    /// returns the kernel work, rows times fused terms.
    pub(super) fn retain(&mut self, rids: &mut Vec<usize>) -> usize {
        let mut kernel_rows = 0;
        if !self.kernel_terms.is_empty() {
            mask_terms(&self.kernel_terms, true, rids, &mut self.keep);
            kernel_rows = rids.len() * self.kernel_terms.len();
            retain_rids(rids, &self.keep);
        }
        let base = self.stage.base;
        for &pi in &self.scalar_preds {
            let pred = &self.stage.access_preds[pi];
            rids.retain(|&rid| cpred_holds(pred, &EMPTY_ENV, Some((base, rid))));
        }
        kernel_rows
    }
}

/// Evaluate compiled probe bounds against one outer row (the empty
/// environment for a leaf or build side) into their canonical resolved
/// form.
fn resolve_cbounds(bounds: &CBounds, env: &ColEnv<'_>) -> ResolvedBounds {
    let eq_vals: Vec<Value> = bounds
        .eq
        .iter()
        .map(|e| ceval(e, env, None).into_owned())
        .collect();
    let (lower, lower_inc) = match &bounds.lower {
        Some((e, inc)) => {
            let mut k = eq_vals.clone();
            k.push(ceval(e, env, None).into_owned());
            (k, *inc)
        }
        None => (eq_vals.clone(), true),
    };
    let (upper, upper_inc) = match &bounds.upper {
        Some((e, inc)) => {
            let mut k = eq_vals.clone();
            k.push(ceval(e, env, None).into_owned());
            (k, *inc)
        }
        None => (eq_vals, true),
    };
    ResolvedBounds {
        lower,
        lower_inc,
        upper,
        upper_inc,
    }
}

/// Perform (or recall) the B-tree range scan described by compiled probe
/// bounds for one outer row ([`resolve_cbounds`] + [`cached_tree_range`]),
/// replacing the contents of `out`.
pub(super) fn cindex_range(
    tree: &xqjg_store::BPlusTree,
    bounds: &CBounds,
    env: &ColEnv<'_>,
    index: &str,
    ctx: PostingsCtx<'_>,
    out: &mut Vec<usize>,
) {
    let rb = resolve_cbounds(bounds, env);
    out.clear();
    if rb.binds_null() {
        return;
    }
    match ctx {
        Some(_) => out.extend_from_slice(&cached_tree_range(tree, rb, index, ctx)),
        None => tree.range_rids_into(rb.lower_bound(), rb.upper_bound(), out),
    }
}

/// One operator instance's run probe: the memoized run of the stage's
/// `RunSpec`, searched with the spec's lowered range bounds or the outer
/// row's dictionary code.
pub(super) enum RunProbe<'a> {
    Prefix {
        run: Arc<PrefixRun>,
        lower: &'a Option<(IntExpr<'a>, bool)>,
        upper: &'a Option<(IntExpr<'a>, bool)>,
    },
    Coded {
        run: Arc<CodeRun>,
        slot: usize,
        codes: &'a [u32],
        validity: Option<&'a BitMask>,
    },
}

impl<'a> RunProbe<'a> {
    /// `None` when the stage is not eligible or its run does not exist
    /// (a non-integer range column under the prefix).
    pub(super) fn resolve(stage: &'a CStage<'a>) -> Option<RunProbe<'a>> {
        let spec = stage.run.as_ref()?;
        Some(match &spec.shape {
            RunShape::Prefix {
                prefix,
                lower,
                upper,
            } => RunProbe::Prefix {
                run: spec.db.prefix_run(spec.index, prefix)?,
                lower,
                upper,
            },
            RunShape::Coded {
                terms,
                slot,
                codes,
                validity,
            } => RunProbe::Coded {
                run: spec.db.code_run(spec.index, terms)?,
                slot: *slot,
                codes,
                validity: *validity,
            },
        })
    }

    /// The probe's rids — exactly the B-tree range scan's, in its order —
    /// or `None` when a range bound is not an integer for this outer row.
    /// A NULL outer code matches nothing (SQL equality).
    pub(super) fn rids(&self, env: &ColEnv<'_>) -> Option<&[usize]> {
        match self {
            RunProbe::Prefix { run, lower, upper } => {
                let bound = |b: &Option<(IntExpr<'_>, bool)>| {
                    Some(match b {
                        None => Bound::Unbounded,
                        Some((e, true)) => Bound::Included(e.eval(env, None)?),
                        Some((e, false)) => Bound::Excluded(e.eval(env, None)?),
                    })
                };
                Some(run.range(bound(lower)?, bound(upper)?))
            }
            RunProbe::Coded {
                run,
                slot,
                codes,
                validity,
            } => {
                let rid = env.cols[*slot][env.idx];
                Some(match validity {
                    Some(m) if !m.get(rid) => &[],
                    _ => run.rids_of(codes[rid]),
                })
            }
        }
    }
}

/// Drop the rids whose keep bit is cleared, preserving order.
pub(super) fn retain_rids(rids: &mut Vec<usize>, keep: &BitMask) {
    let mut w = 0;
    for i in keep.ones() {
        rids[w] = rids[i];
        w += 1;
    }
    rids.truncate(w);
}
