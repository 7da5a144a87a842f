//! Stage compilation: the left-deep join chain flattened into stages,
//! each with its predicates, hash keys and probe bounds compiled once per
//! execution ([`CStage`]) and lowered onto typed column images where the
//! operands allow.

use crate::physical::{Access, JoinNode};
use crate::sql::{SqlCmp, SqlExpr, SqlPredicate};
use std::borrow::Cow;
use xqjg_store::{BitMask, Database, KernelCmp, MaskTerm, Table, TypedColumn, Value};

/// One stage of the flattened left-deep join chain: the leaf scan (stage
/// 0) or one join level.
pub(super) struct Stage<'a> {
    pub(super) alias: &'a str,
    pub(super) table_name: &'a str,
    pub(super) base: &'a Table,
    pub(super) access: &'a Access,
    pub(super) hash_keys: &'a [(SqlExpr, String)],
    residual: &'a [SqlPredicate],
    /// Aliases bound by the stages below this one, outer-to-inner.
    outer_aliases: Vec<String>,
    /// Base tables of `outer_aliases`.
    outer_tables: Vec<&'a Table>,
}

/// Flatten the left-deep join tree into its stage sequence.
pub(super) fn flatten_stages<'a>(node: &'a JoinNode, db: &'a Database) -> Vec<Stage<'a>> {
    match node {
        JoinNode::Leaf {
            alias,
            table,
            access,
            ..
        } => vec![Stage {
            alias,
            table_name: table,
            base: db.table(table).expect("table registered"),
            access,
            hash_keys: &[],
            residual: &[],
            outer_aliases: Vec::new(),
            outer_tables: Vec::new(),
        }],
        JoinNode::Join {
            outer,
            alias,
            table,
            access,
            hash_keys,
            residual,
            ..
        } => {
            let stages = flatten_stages(outer, db);
            let outer_aliases: Vec<String> = stages.iter().map(|s| s.alias.to_string()).collect();
            let outer_tables: Vec<&Table> = stages.iter().map(|s| s.base).collect();
            let mut stages = stages;
            stages.push(Stage {
                alias,
                table_name: table,
                base: db.table(table).expect("table registered"),
                access,
                hash_keys,
                residual,
                outer_aliases,
                outer_tables,
            });
            stages
        }
    }
}

// ---------------------------------------------------------------------
// Compiled expressions — every schema offset is resolved once per execution
// instead of once per row.
// ---------------------------------------------------------------------

/// An expression with alias slots and column offsets pre-resolved.
#[derive(Clone)]
pub(super) enum CExpr {
    /// Literal value.
    Lit(Value),
    /// Column of a bound outer alias: slot into the stage's outer alias
    /// list and column offset in that alias's base table.
    Outer { slot: usize, col: usize },
    /// Column of the current stage's candidate row.
    Cur { col: usize },
    /// Numeric addition.
    Add(Box<CExpr>, Box<CExpr>),
}

/// A predicate over compiled expressions.
pub(super) struct CPred {
    pub(super) lhs: CExpr,
    op: SqlCmp,
    pub(super) rhs: CExpr,
}

/// Compiled index probe bounds (the outer-dependent `IXSCAN` keys).
pub(super) struct CBounds {
    pub(super) eq: Vec<CExpr>,
    pub(super) lower: Option<(CExpr, bool)>,
    pub(super) upper: Option<(CExpr, bool)>,
}

/// One row of a columnar batch as an expression environment: the outer
/// tables, the batch's rid columns and the physical row index.
pub(super) struct ColEnv<'a> {
    pub(super) tables: &'a [&'a Table],
    pub(super) cols: &'a [Vec<usize>],
    pub(super) idx: usize,
}

pub(super) const EMPTY_ENV: ColEnv<'static> = ColEnv {
    tables: &[],
    cols: &[],
    idx: 0,
};

/// Evaluate a compiled expression.  Column references borrow straight from
/// table storage — only computed expressions allocate.
pub(super) fn ceval<'v>(
    e: &'v CExpr,
    env: &ColEnv<'v>,
    cur: Option<(&'v Table, usize)>,
) -> Cow<'v, Value> {
    match e {
        CExpr::Lit(v) => Cow::Borrowed(v),
        CExpr::Outer { slot, col } => {
            let rid = env.cols[*slot][env.idx];
            Cow::Borrowed(&env.tables[*slot].rows()[rid][*col])
        }
        CExpr::Cur { col } => {
            let (table, rid) = cur.expect("current row required");
            Cow::Borrowed(&table.rows()[rid][*col])
        }
        CExpr::Add(a, b) => Cow::Owned(ceval(a, env, cur).numeric_add(&ceval(b, env, cur))),
    }
}

/// Check a compiled predicate (SQL three-valued semantics: NULL fails).
#[inline]
pub(super) fn cpred_holds(p: &CPred, env: &ColEnv<'_>, cur: Option<(&Table, usize)>) -> bool {
    let l = ceval(&p.lhs, env, cur);
    let r = ceval(&p.rhs, env, cur);
    match l.sql_cmp(&r) {
        Some(ord) => p.op.eval(ord),
        None => false,
    }
}

/// A leaf access predicate lowered onto the typed column images of the
/// base table.  `Scalar` keeps the interpreted [`CPred`] path (mixed-type
/// column, computed expression, or a literal the column image cannot
/// represent); the kernel variants become [`MaskTerm`]s of one fused
/// branch-free selection pass.  NULL-bearing columns carry their validity
/// mask: a cleared bit fails every comparison (SQL three-valued logic),
/// so the sentinel slot values never leak into results.
pub(super) enum TypedPred<'a> {
    /// Fall back to the row-at-a-time compiled predicate.
    Scalar,
    /// `i64` column `op` integer literal.
    Int {
        vals: &'a [i64],
        validity: Option<&'a BitMask>,
        op: KernelCmp,
        rhs: i64,
    },
    /// Dictionary-coded string column `op` code boundary.  String order
    /// equals code order (the dictionary is sorted), so range predicates
    /// rewrite to boundary comparisons even for absent literals.
    Code {
        vals: &'a [u32],
        validity: Option<&'a BitMask>,
        op: KernelCmp,
        rhs: u32,
    },
    /// The predicate holds exactly where the column is non-NULL (e.g.
    /// `<> 'absent'` over a NULL-bearing column).
    Valid { validity: &'a BitMask },
    /// The predicate is constant over the whole column (e.g. `= 'absent'`
    /// over a column with no NULLs).
    Const(bool),
}

impl<'a> TypedPred<'a> {
    /// The fused-pass selection term of this lowering (`None` keeps the
    /// predicate on the interpreted path).
    pub(super) fn term(&self) -> Option<MaskTerm<'a>> {
        match self {
            TypedPred::Scalar => None,
            TypedPred::Int {
                vals,
                validity,
                op,
                rhs,
            } => Some(MaskTerm::I64 {
                vals,
                validity: *validity,
                op: *op,
                rhs: *rhs,
            }),
            TypedPred::Code {
                vals,
                validity,
                op,
                rhs,
            } => Some(MaskTerm::Code {
                vals,
                validity: *validity,
                op: *op,
                rhs: *rhs,
            }),
            TypedPred::Valid { validity } => Some(MaskTerm::Valid { validity }),
            TypedPred::Const(v) => Some(MaskTerm::Const(*v)),
        }
    }
}

fn kcmp(op: SqlCmp) -> KernelCmp {
    match op {
        SqlCmp::Eq => KernelCmp::Eq,
        SqlCmp::Ne => KernelCmp::Ne,
        SqlCmp::Lt => KernelCmp::Lt,
        SqlCmp::Le => KernelCmp::Le,
        SqlCmp::Gt => KernelCmp::Gt,
        SqlCmp::Ge => KernelCmp::Ge,
    }
}

/// Lower one access predicate onto `base`'s typed columns, if its shape
/// (`cur.col op lit` or flipped) and the column image allow it.
fn compile_typed_pred<'a>(p: &CPred, base: &'a Table) -> TypedPred<'a> {
    let (col, op, lit) = match (&p.lhs, &p.rhs) {
        (CExpr::Cur { col }, CExpr::Lit(v)) => (*col, p.op, v),
        (CExpr::Lit(v), CExpr::Cur { col }) => (*col, p.op.flip(), v),
        _ => return TypedPred::Scalar,
    };
    match (base.typed().col(col), lit) {
        (Some(TypedColumn::Int { vals, validity }), Value::Int(rhs)) => TypedPred::Int {
            vals,
            validity: validity.as_ref(),
            op: kcmp(op),
            rhs: *rhs,
        },
        (
            Some(
                tc @ TypedColumn::Dict {
                    codes, validity, ..
                },
            ),
            Value::Str(s),
        ) => {
            let validity = validity.as_ref();
            let present = tc.code_of(s);
            let lower = tc.dict_boundary(s).expect("dict column has boundaries");
            let code = |op, rhs| TypedPred::Code {
                vals: codes,
                validity,
                op,
                rhs,
            };
            match op {
                SqlCmp::Eq => match present {
                    Some(c) => code(KernelCmp::Eq, c),
                    None => TypedPred::Const(false),
                },
                // `<> 'absent'` holds for every *non-NULL* row: with no
                // validity mask that is the whole column, otherwise
                // exactly the set bits of the mask.
                SqlCmp::Ne => match (present, validity) {
                    (Some(c), _) => code(KernelCmp::Ne, c),
                    (None, Some(validity)) => TypedPred::Valid { validity },
                    (None, None) => TypedPred::Const(true),
                },
                // Codes < lower  <=>  strings < s; codes >= lower + present
                // <=>  strings > s (`lower` counts strings strictly below
                // `s`, and `lower + 1` skips `s` itself when present).
                SqlCmp::Lt => code(KernelCmp::Lt, lower),
                SqlCmp::Ge => code(KernelCmp::Ge, lower),
                SqlCmp::Le => code(KernelCmp::Lt, lower + u32::from(present.is_some())),
                SqlCmp::Gt => code(KernelCmp::Ge, lower + u32::from(present.is_some())),
            }
        }
        _ => TypedPred::Scalar,
    }
}

/// Compile an expression for a stage: `cur_alias` columns become
/// [`CExpr::Cur`], bound outer alias columns become [`CExpr::Outer`].
pub(super) fn compile_expr(
    e: &SqlExpr,
    cur_alias: &str,
    cur_table: &Table,
    outer_aliases: &[String],
    outer_tables: &[&Table],
) -> CExpr {
    match e {
        SqlExpr::Lit(v) => CExpr::Lit(v.clone()),
        SqlExpr::Col(c) => {
            if c.table == cur_alias {
                CExpr::Cur {
                    col: cur_table.schema().expect_index(&c.column),
                }
            } else {
                let slot = outer_aliases
                    .iter()
                    .position(|a| *a == c.table)
                    .unwrap_or_else(|| panic!("alias {:?} not bound", c.table));
                CExpr::Outer {
                    slot,
                    col: outer_tables[slot].schema().expect_index(&c.column),
                }
            }
        }
        SqlExpr::Add(a, b) => CExpr::Add(
            Box::new(compile_expr(
                a,
                cur_alias,
                cur_table,
                outer_aliases,
                outer_tables,
            )),
            Box::new(compile_expr(
                b,
                cur_alias,
                cur_table,
                outer_aliases,
                outer_tables,
            )),
        ),
    }
}

/// An integer expression lowered onto a stage's `i64` column images:
/// literals, bound outer columns, the candidate row's columns and sums of
/// them.  NLJOIN probe operands, computed containment checks and
/// `PrefixRun` bounds all evaluate through it, so a probe over integer
/// columns reads no [`Value`] row.  `Value` keeps an outer-only
/// subexpression the images cannot represent (a decimal literal, a mixed
/// `Int`/`Dec` column) on [`ceval`].
pub(super) enum IntExpr<'a> {
    Lit(i64),
    Outer {
        slot: usize,
        vals: &'a [i64],
        validity: Option<&'a BitMask>,
    },
    Cur {
        vals: &'a [i64],
        validity: Option<&'a BitMask>,
    },
    Add(Box<IntExpr<'a>>, Box<IntExpr<'a>>),
    Value(CExpr),
}

/// The image slot `i`, or `None` when the validity mask marks it NULL.
#[inline]
fn image_at(vals: &[i64], validity: Option<&BitMask>, i: usize) -> Option<i64> {
    match validity {
        Some(m) if !m.get(i) => None,
        _ => Some(vals[i]),
    }
}

impl<'a> IntExpr<'a> {
    /// Lower `e` for a stage over `base`; `None` when it reads a
    /// candidate-row column that has no `i64` image.
    fn lower(e: &CExpr, base: &'a Table, outer_tables: &[&'a Table]) -> Option<IntExpr<'a>> {
        Some(match e {
            CExpr::Lit(Value::Int(k)) => IntExpr::Lit(*k),
            CExpr::Outer { slot, col } => {
                match outer_tables[*slot].typed().int_col_nullable(*col) {
                    Some((vals, validity)) => IntExpr::Outer {
                        slot: *slot,
                        vals,
                        validity,
                    },
                    None => IntExpr::Value(e.clone()),
                }
            }
            CExpr::Cur { col } => {
                let (vals, validity) = base.typed().int_col_nullable(*col)?;
                IntExpr::Cur { vals, validity }
            }
            CExpr::Add(a, b) => IntExpr::Add(
                Box::new(IntExpr::lower(a, base, outer_tables)?),
                Box::new(IntExpr::lower(b, base, outer_tables)?),
            ),
            CExpr::Lit(_) => IntExpr::Value(e.clone()),
        })
    }

    /// Does every leaf read an `i64` image or literal (no [`ceval`])?
    fn is_typed(&self) -> bool {
        match self {
            IntExpr::Lit(_) | IntExpr::Outer { .. } | IntExpr::Cur { .. } => true,
            IntExpr::Add(a, b) => a.is_typed() && b.is_typed(),
            IntExpr::Value(_) => false,
        }
    }

    /// The value for one outer row and candidate rid `cur` (required only
    /// when the expression reads the candidate row); `None` when it is not
    /// an integer — NULL, a decimal, an overflowing sum — and the caller
    /// falls back to [`ceval`] for this row.
    #[inline]
    pub(super) fn eval(&self, env: &ColEnv<'_>, cur: Option<usize>) -> Option<i64> {
        match self {
            IntExpr::Lit(k) => Some(*k),
            IntExpr::Outer {
                slot,
                vals,
                validity,
            } => image_at(vals, *validity, env.cols[*slot][env.idx]),
            IntExpr::Cur { vals, validity } => {
                image_at(vals, *validity, cur.expect("candidate row required"))
            }
            IntExpr::Add(a, b) => a.eval(env, cur)?.checked_add(b.eval(env, cur)?),
            IntExpr::Value(e) => match ceval(e, env, None).as_ref() {
                Value::Int(k) => Some(*k),
                _ => None,
            },
        }
    }
}

/// One NLJOIN probe predicate kernelized over the inner column's `i64`
/// image: `cur.col op <outer-only expression>` (or flipped).  The rhs is
/// evaluated once per probe from the outer alias's image; an integer
/// result runs the compare kernel over the probe's candidate rids.  A
/// non-integer result re-evaluates the source predicate's outer side
/// (`pred` indexes the stage's predicate list) through [`ceval`]: NULL
/// fails the whole probe, anything else interprets the predicate for that
/// probe.
pub(super) struct ProbeTerm<'a> {
    pub(super) vals: &'a [i64],
    pub(super) validity: Option<&'a BitMask>,
    pub(super) op: KernelCmp,
    pub(super) rhs: IntExpr<'a>,
    /// Index of the source predicate in the stage's list (scalar fallback).
    pub(super) pred: usize,
}

/// An integer predicate whose operands read the candidate row through
/// computed expressions (`outer.pre <= cur.pre + cur.size`,
/// `cur.level + 1 = outer.level`): checked per candidate rid over the
/// images.  A row whose operands are not both integers falls back to
/// [`cpred_holds`] on the source predicate (`pred`).
pub(super) struct IntPred<'a> {
    pub(super) lhs: IntExpr<'a>,
    pub(super) op: SqlCmp,
    pub(super) rhs: IntExpr<'a>,
    pub(super) pred: usize,
}

/// The NLJOIN lowering of one inner-side predicate list, split by what
/// each predicate needs: `static_terms` compare against constants (no
/// outer row required), `dynamic` terms re-resolve their rhs per probe and
/// join one fused mask pass, `computed` integer predicates are checked per
/// candidate rid, and `scalar` indexes the predicates left to the
/// interpreted path (strings, decimals and other non-`i64` operands).
#[derive(Default)]
pub(super) struct NlSplit<'a> {
    pub(super) static_terms: Vec<MaskTerm<'a>>,
    pub(super) dynamic: Vec<ProbeTerm<'a>>,
    pub(super) computed: Vec<IntPred<'a>>,
    pub(super) scalar: Vec<usize>,
}

/// Does the expression avoid the current stage's candidate row (literals
/// and bound outer columns only)?
pub(super) fn outer_only(e: &CExpr) -> bool {
    match e {
        CExpr::Lit(_) | CExpr::Outer { .. } => true,
        CExpr::Cur { .. } => false,
        CExpr::Add(a, b) => outer_only(a) && outer_only(b),
    }
}

/// Lower one predicate to an NLJOIN [`ProbeTerm`], if its shape
/// (`cur.col op outer-only-expr` or flipped) and the column image allow.
fn compile_probe_term<'a>(
    p: &CPred,
    pi: usize,
    base: &'a Table,
    outer_tables: &[&'a Table],
) -> Option<ProbeTerm<'a>> {
    let (col, op, rhs) = match (&p.lhs, &p.rhs) {
        (CExpr::Cur { col }, r) if outer_only(r) => (*col, p.op, r),
        (l, CExpr::Cur { col }) if outer_only(l) => (*col, p.op.flip(), l),
        _ => return None,
    };
    let (vals, validity) = base.typed().int_col_nullable(col)?;
    Some(ProbeTerm {
        vals,
        validity,
        op: kcmp(op),
        rhs: IntExpr::lower(rhs, base, outer_tables)?,
        pred: pi,
    })
}

/// Lower one predicate to a per-rid [`IntPred`], if both sides are integer
/// expressions over `i64` images and literals.
fn compile_int_pred<'a>(
    p: &CPred,
    pi: usize,
    base: &'a Table,
    outer_tables: &[&'a Table],
) -> Option<IntPred<'a>> {
    let lhs = IntExpr::lower(&p.lhs, base, outer_tables)?;
    let rhs = IntExpr::lower(&p.rhs, base, outer_tables)?;
    (lhs.is_typed() && rhs.is_typed()).then_some(IntPred {
        lhs,
        op: p.op,
        rhs,
        pred: pi,
    })
}

/// Split an NLJOIN inner-side predicate list into its kernel lowerings.
fn split_nl_preds<'a>(preds: &[CPred], base: &'a Table, outer_tables: &[&'a Table]) -> NlSplit<'a> {
    let mut split = NlSplit::default();
    for (pi, p) in preds.iter().enumerate() {
        if let Some(t) = compile_typed_pred(p, base).term() {
            split.static_terms.push(t);
        } else if let Some(t) = compile_probe_term(p, pi, base, outer_tables) {
            split.dynamic.push(t);
        } else if let Some(t) = compile_int_pred(p, pi, base, outer_tables) {
            split.computed.push(t);
        } else {
            split.scalar.push(pi);
        }
    }
    split
}

/// One kernelized hash key: the outer side's gatherable image and the
/// inner side's comparable image.  Probe hashes chain through
/// `hash_keys_typed` bit-identically to `hash_values` over the
/// corresponding `Value`s, so bucket lookups, Grace partition routing and
/// `BuildCache` reuse are unchanged; NULL outer keys hash to `None` and
/// never probe (the build side skipped NULL keys symmetrically).
pub(super) enum KeyImage<'a> {
    /// `i64` = `i64` equijoin key.
    Int {
        slot: usize,
        outer: &'a [i64],
        outer_validity: Option<&'a BitMask>,
        inner: &'a [i64],
    },
    /// String = string equijoin key over two dictionary images.  Hashes
    /// chain the *outer* dictionary's string; collisions resolve by
    /// translating the outer code into the inner dictionary (`xlat`,
    /// `-1` = the outer string does not occur on the inner side).
    Str {
        slot: usize,
        outer_codes: &'a [u32],
        outer_dict: &'a [String],
        outer_validity: Option<&'a BitMask>,
        inner_codes: &'a [u32],
        xlat: Vec<i64>,
    },
}

impl KeyImage<'_> {
    pub(super) fn slot(&self) -> usize {
        match self {
            KeyImage::Int { slot, .. } | KeyImage::Str { slot, .. } => *slot,
        }
    }

    pub(super) fn outer_validity(&self) -> Option<&BitMask> {
        match self {
            KeyImage::Int { outer_validity, .. } | KeyImage::Str { outer_validity, .. } => {
                *outer_validity
            }
        }
    }
}

/// One hash key's gathered outer values for a probe batch.
pub(super) enum GatheredKey {
    I64(Vec<i64>),
    Code(Vec<u32>),
}

/// A [`Stage`] with every predicate, hash key and probe bound compiled.
/// Borrows only from the plan and the database (never from `Stage`), so it
/// lives alongside the stages for the whole execution.
pub(super) struct CStage<'a> {
    pub(super) base: &'a Table,
    pub(super) access: &'a Access,
    /// Operator label as EXPLAIN prints it.
    pub(super) label: String,
    /// B-tree of an `IndexScan` access, pre-resolved.
    pub(super) tree: Option<&'a xqjg_store::BPlusTree>,
    /// Compiled probe bounds of an `IndexScan` access.
    pub(super) cbounds: Option<CBounds>,
    /// Compiled access-level predicates: the pushed-down filters of a
    /// `TableScan`, or the sargable residuals of an `IndexScan`.
    pub(super) access_preds: Vec<CPred>,
    /// Kernel lowerings of `access_preds` (aligned; `Scalar` where the
    /// operands have no typed image).
    pub(super) typed_preds: Vec<TypedPred<'a>>,
    /// Compiled join-level residual predicates.
    pub(super) residual: Vec<CPred>,
    /// NLJOIN kernel split of `access_preds` (empty for leaf/hash
    /// stages).
    pub(super) nl_access: NlSplit<'a>,
    /// NLJOIN kernel split of `residual`.
    pub(super) nl_residual: NlSplit<'a>,
    /// Compiled hash keys: (outer expression, inner column offset).
    pub(super) hash_keys: Vec<(CExpr, usize)>,
    /// Kernelized hash-key images, present only when *every* key is a
    /// plain outer column whose image type matches the inner column's
    /// ([`KeyImage`] per key — `i64` or dictionary string, NULL-bearing
    /// or not).  Any other shape (computed key, mixed `Int`/`Dec` column,
    /// type-mismatched sides) keeps the scalar [`Value`] path, which is
    /// the semantics of record for cross-type equality.
    pub(super) typed_keys: Option<Vec<KeyImage<'a>>>,
    /// Base tables of the bound outer aliases (slot order).
    pub(super) outer_tables: Vec<&'a Table>,
    /// Set when this NLJOIN stage's probes may search a `PrefixRun`.
    pub(super) run: Option<RunSpec<'a>>,
}

/// An NLJOIN `IndexScan` stage whose probes all read one memoized run of
/// index entries instead of walking the B-tree.
pub(super) struct RunSpec<'a> {
    pub(super) db: &'a Database,
    pub(super) index: &'a str,
    pub(super) shape: RunShape<'a>,
}

pub(super) enum RunShape<'a> {
    /// The equality prefix is all literals and there is at least one range
    /// bound: every probe reads the prefix's `PrefixRun` and
    /// binary-searches its integer image.  The range bounds are lowered to
    /// [`IntExpr`]s once, at compile time.
    Prefix {
        prefix: Vec<Value>,
        lower: Option<(IntExpr<'a>, bool)>,
        upper: Option<(IntExpr<'a>, bool)>,
    },
    /// The bounds are equality-only, one term is a column of an outer
    /// alias over the stage's own table and the rest are literals, and the
    /// index column it binds has a dictionary image: the outer row's code
    /// in that image is a key of the terms' `CodeRun` as it stands.
    Coded {
        /// The equality terms, `None` at the outer column's position.
        terms: Vec<Option<Value>>,
        /// Outer alias slot and its column's code image (the inner's own).
        slot: usize,
        codes: &'a [u32],
        validity: Option<&'a BitMask>,
    },
}

impl<'a> RunSpec<'a> {
    /// The run shape of an NLJOIN stage over `index`, if any.
    fn compile(
        db: &'a Database,
        index: &'a str,
        cb: &CBounds,
        stage: &Stage<'a>,
    ) -> Option<RunSpec<'a>> {
        let literal = |e: &CExpr| match e {
            CExpr::Lit(v) if !v.is_null() => Some(v.clone()),
            _ => None,
        };
        let shape = if cb.lower.is_some() || cb.upper.is_some() {
            // Probe bounds never read the candidate row, so they lower.
            let int_bound = |b: &Option<(CExpr, bool)>| {
                b.as_ref().map(|(e, inc)| {
                    let e = IntExpr::lower(e, stage.base, &stage.outer_tables);
                    (e.expect("probe bounds are outer-only"), *inc)
                })
            };
            RunShape::Prefix {
                prefix: cb.eq.iter().map(literal).collect::<Option<_>>()?,
                lower: int_bound(&cb.lower),
                upper: int_bound(&cb.upper),
            }
        } else {
            let mut open = None;
            let mut terms = Vec::with_capacity(cb.eq.len());
            for (i, e) in cb.eq.iter().enumerate() {
                match e {
                    CExpr::Outer { slot, col } if open.is_none() => {
                        open = Some((i, *slot, *col));
                        terms.push(None);
                    }
                    e => terms.push(Some(literal(e)?)),
                }
            }
            let (pos, slot, col) = open?;
            // The outer code is a key of the run only when it is a code of
            // the same image: the same column of the same table.
            let key_col = &db.index(index)?.def.key_columns[pos];
            if !std::ptr::eq(stage.outer_tables[slot], stage.base)
                || stage.base.schema().index_of(key_col) != Some(col)
            {
                return None;
            }
            let (codes, _, validity) = stage.base.typed().col(col)?.as_dict_nullable()?;
            RunShape::Coded {
                terms,
                slot,
                codes,
                validity,
            }
        };
        Some(RunSpec { db, index, shape })
    }
}

pub(super) fn compile_stage<'a>(index: usize, stage: &Stage<'a>, db: &'a Database) -> CStage<'a> {
    let cc = |e: &SqlExpr| {
        compile_expr(
            e,
            stage.alias,
            stage.base,
            &stage.outer_aliases,
            &stage.outer_tables,
        )
    };
    let cp = |p: &SqlPredicate| CPred {
        lhs: cc(&p.lhs),
        op: p.op,
        rhs: cc(&p.rhs),
    };
    let (label, tree, cbounds, access_preds) = match stage.access {
        Access::TableScan { preds } => {
            let label = if index == 0 {
                format!("TBSCAN({})", stage.alias)
            } else {
                String::new()
            };
            (label, None, None, preds.iter().map(cp).collect::<Vec<_>>())
        }
        Access::IndexScan {
            index: ix_name,
            bounds,
            residual,
        } => {
            let label = if index == 0 {
                format!("IXSCAN({} ix={ix_name})", stage.alias)
            } else {
                String::new()
            };
            let tree = &db.index(ix_name).expect("index registered").tree;
            let cbounds = CBounds {
                eq: bounds.eq.iter().map(|(_, e)| cc(e)).collect(),
                lower: bounds.lower.as_ref().map(|(e, inc)| (cc(e), *inc)),
                upper: bounds.upper.as_ref().map(|(e, inc)| (cc(e), *inc)),
            };
            (
                label,
                Some(tree),
                Some(cbounds),
                residual.iter().map(cp).collect(),
            )
        }
    };
    let label = if index == 0 {
        label
    } else if stage.hash_keys.is_empty() {
        format!("NLJOIN({})", stage.alias)
    } else {
        format!("HSJOIN({})", stage.alias)
    };
    let typed_preds: Vec<TypedPred<'a>> = access_preds
        .iter()
        .map(|p| compile_typed_pred(p, stage.base))
        .collect();
    let hash_keys: Vec<(CExpr, usize)> = stage
        .hash_keys
        .iter()
        .map(|(e, col)| (cc(e), stage.base.schema().expect_index(col)))
        .collect();
    let typed_keys = if !hash_keys.is_empty() {
        hash_keys
            .iter()
            .map(|(e, col)| {
                let CExpr::Outer { slot, col: ocol } = e else {
                    return None;
                };
                let outer_tc = stage.outer_tables[*slot].typed().col(*ocol)?;
                let inner_tc = stage.base.typed().col(*col)?;
                match (outer_tc, inner_tc) {
                    (
                        TypedColumn::Int {
                            vals: outer,
                            validity,
                        },
                        TypedColumn::Int { vals: inner, .. },
                    ) => Some(KeyImage::Int {
                        slot: *slot,
                        outer,
                        outer_validity: validity.as_ref(),
                        inner,
                    }),
                    (
                        TypedColumn::Dict {
                            codes: outer_codes,
                            dict: outer_dict,
                            validity,
                        },
                        TypedColumn::Dict {
                            codes: inner_codes,
                            dict: inner_dict,
                            ..
                        },
                    ) => {
                        // Outer code -> inner code (both dictionaries are
                        // sorted, so a binary search per outer entry).
                        let xlat: Vec<i64> = outer_dict
                            .iter()
                            .map(|s| match inner_dict.binary_search(s) {
                                Ok(c) => c as i64,
                                Err(_) => -1,
                            })
                            .collect();
                        Some(KeyImage::Str {
                            slot: *slot,
                            outer_codes,
                            outer_dict,
                            outer_validity: validity.as_ref(),
                            inner_codes,
                            xlat,
                        })
                    }
                    _ => None,
                }
            })
            .collect()
    } else {
        None
    };
    let residual: Vec<CPred> = stage.residual.iter().map(cp).collect();
    let nested_loop = index > 0 && hash_keys.is_empty();
    let run = match (stage.access, &cbounds) {
        (Access::IndexScan { index, .. }, Some(cb)) if nested_loop => {
            RunSpec::compile(db, index, cb, stage)
        }
        _ => None,
    };
    // NLJOIN stages (non-leaf, no hash keys) additionally split their
    // predicate lists into static / per-probe / per-rid / scalar lowerings.
    let (nl_access, nl_residual) = if nested_loop {
        (
            split_nl_preds(&access_preds, stage.base, &stage.outer_tables),
            split_nl_preds(&residual, stage.base, &stage.outer_tables),
        )
    } else {
        (NlSplit::default(), NlSplit::default())
    };
    CStage {
        base: stage.base,
        access: stage.access,
        label,
        tree,
        cbounds,
        access_preds,
        typed_preds,
        residual,
        nl_access,
        nl_residual,
        hash_keys,
        typed_keys,
        outer_tables: stage.outer_tables.clone(),
        run,
    }
}
