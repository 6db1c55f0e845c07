//! Cost-based planning over compiled plans.
//!
//! The compiler ([`crate::plan`]) lowers SQL into a positional-slot IR but
//! inherits join order from the FROM clause and evaluates `WHERE` only
//! after every join. This module adds a per-execution optimization pass:
//!
//! * **Predicate pushdown** — infallible single-source `WHERE` conjuncts
//!   run against their base table *before* any join.
//! * **Join reordering** — greedy smallest-estimated-intermediate-first
//!   over the equi-join graph, using per-table statistics
//!   ([`crate::stats::TableStats`]).
//! * **Access-path selection** — `col = const` conjuncts probe a lazily
//!   built secondary hash index instead of scanning, and an unfiltered
//!   build side whose key is a plain column reuses the index as a
//!   prebuilt hash-join build table.
//!
//! # Equivalence contract
//!
//! The optimized executor must stay byte-identical to the unoptimized
//! paths in results, errors, and budget accounting. Three mechanisms make
//! that hold:
//!
//! 1. **Eligibility** ([`analyze`]): only root blocks whose sources are
//!    all base tables, whose joins are all inner equi-joins with
//!    infallible, subquery-free keys, and which carry no `UNION` are
//!    optimized. Pushdown additionally requires *every* `WHERE` conjunct
//!    to be infallible — otherwise the whole `WHERE` stays residual and
//!    runs post-join, where per-row evaluation order (and therefore which
//!    row errors first) is identical to the unoptimized path.
//! 2. **Order restoration**: both the hash and nested inner joins emit
//!    rows lexicographically in (left logical order, right physical row),
//!    so a chain of inner joins yields rows sorted by their physical
//!    row-id *tuple* in FROM order, and those tuples are distinct. After
//!    joining in cost order, one sort by that tuple restores the exact
//!    unoptimized row order (skipped when the order was not changed —
//!    filtering sources keeps subsequences in order).
//! 3. **Gating** ([`CompiledPlan::execute`]): the optimizer only engages
//!    under [`crate::ExecLimits::UNLIMITED`]. Pushdown and reordering
//!    change *how much* work each budget ledger sees (that is the point),
//!    so under any finite budget the unoptimized plan runs and exhaustion
//!    points stay byte-identical — the same rule that gates subquery
//!    memoization. The chosen semantics: **planner decisions never decide
//!    which budget trips first** (DESIGN.md §10).
//!
//! Like the vectorized engine, execution is **pure-then-commit**: the
//! entire optimized pipeline (probes, pushed filters, joins, restoration)
//! runs without charging the meter or touching observability; any
//! surprise aborts to the normal paths at zero cost. Only after the join
//! tree is complete are charges and metrics replayed, then the residual
//! `WHERE` and the tail run through the vectorized engine's own
//! `filter_sel` and `tail` (which carry their own scalar fallbacks and
//! charge points).

use std::collections::HashMap;
use std::sync::Arc;

use snails_obs::Metric as Obs;
use snails_sql::{BinOp, JoinKind, UnaryOp};

use crate::batch::{BatchPool, ColData, ColumnSet};
use crate::catalog::Database;
use crate::error::EngineError;
use crate::exec::{adaptive_batch_size, record_statement, ExecOptions};
use crate::plan::{CExpr, CSelect, CSource, CompiledPlan, ExprId, Runner};
use crate::result::ResultSet;
use crate::stats::TableStats;
use crate::value::Value;
use crate::vector::{
    self, scalar_flags, Ev, JoinKey, KeyCol, Rel, SideKeys, Unvec, VKey, NONE_RID,
};

/// Engagement thresholds for the index-probe access path: below this many
/// rows a scan is as cheap as a probe, and below this many distinct values
/// a probe keeps most of the table anyway.
const PROBE_MIN_ROWS: u64 = 16;
const PROBE_MIN_NDV: u64 = 4;

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

/// Per-node "cannot raise at runtime" flags for a block's arena. Stricter
/// than [`scalar_flags`]: arithmetic, functions, `LIKE`, negation, frozen
/// errors, and anything scalar-flagged are all fallible. Pushing a
/// predicate past a join changes how many rows evaluate it, which is only
/// sound when no evaluation can error.
fn infallible_flags(sel: &CSelect, flags: &[bool]) -> Vec<bool> {
    let mut f: Vec<bool> = Vec::with_capacity(sel.arena.len());
    for (id, node) in sel.arena.iter().enumerate() {
        let ok = !flags[id]
            && match node {
                CExpr::Const(_) => true,
                CExpr::Slot { up, .. } => *up == 0,
                CExpr::Err(_)
                | CExpr::Subquery { .. }
                | CExpr::InSubquery { .. }
                | CExpr::Exists { .. }
                | CExpr::Func { .. }
                | CExpr::Like { .. } => false,
                // `-x` can overflow `i64::MIN`; `NOT` of a clean operand
                // cannot raise.
                CExpr::Unary { op, expr } => *op == UnaryOp::Not && f[*expr],
                CExpr::And { left, right } | CExpr::Or { left, right } => f[*left] && f[*right],
                // Comparisons run through the error-free `cmp_cells`
                // kernel; arithmetic can overflow or divide by zero.
                CExpr::Binary { left, op, right } => {
                    op.is_comparison() && f[*left] && f[*right]
                }
                CExpr::IsNull { expr, .. } => f[*expr],
                CExpr::InList { expr, list, .. } => {
                    f[*expr] && list.iter().all(|&i| f[i])
                }
                CExpr::Between { expr, low, high, .. } => f[*expr] && f[*low] && f[*high],
                CExpr::Case { operand, branches, else_expr } => {
                    operand.is_none_or(|o| f[o])
                        && branches.iter().all(|&(w, t)| f[w] && f[t])
                        && else_expr.is_none_or(|e| f[e])
                }
            };
        f.push(ok);
    }
    f
}

/// Split a predicate into its top-level `AND` conjuncts.
fn split_and(sel: &CSelect, id: ExprId, out: &mut Vec<ExprId>) {
    if let CExpr::And { left, right } = &sel.arena[id] {
        split_and(sel, *left, out);
        split_and(sel, *right, out);
    } else {
        out.push(id);
    }
}

/// Collect the combined-row offsets of every current-block slot in a
/// subtree.
fn collect_slots(sel: &CSelect, id: ExprId, out: &mut Vec<usize>) {
    match &sel.arena[id] {
        CExpr::Const(_) | CExpr::Err(_) => {}
        CExpr::Slot { up, idx } => {
            if *up == 0 {
                out.push(*idx);
            }
        }
        CExpr::Unary { expr, .. } | CExpr::IsNull { expr, .. } | CExpr::Like { expr, .. } => {
            collect_slots(sel, *expr, out);
        }
        CExpr::And { left, right }
        | CExpr::Or { left, right }
        | CExpr::Binary { left, right, .. } => {
            collect_slots(sel, *left, out);
            collect_slots(sel, *right, out);
        }
        CExpr::Func { args, .. } => {
            for a in args {
                if let crate::plan::CArg::Expr(e) = a {
                    collect_slots(sel, *e, out);
                }
            }
        }
        CExpr::InList { expr, list, .. } => {
            collect_slots(sel, *expr, out);
            for &e in list {
                collect_slots(sel, e, out);
            }
        }
        CExpr::InSubquery { expr, .. } => collect_slots(sel, *expr, out),
        CExpr::Exists { .. } | CExpr::Subquery { .. } => {}
        CExpr::Between { expr, low, high, .. } => {
            collect_slots(sel, *expr, out);
            collect_slots(sel, *low, out);
            collect_slots(sel, *high, out);
        }
        CExpr::Case { operand, branches, else_expr } => {
            if let Some(o) = operand {
                collect_slots(sel, *o, out);
            }
            for &(w, t) in branches {
                collect_slots(sel, w, out);
                collect_slots(sel, t, out);
            }
            if let Some(e) = else_expr {
                collect_slots(sel, *e, out);
            }
        }
    }
}

/// One base-table source of the block, with its statistics and the
/// planner's decisions about it.
struct SourceInfo {
    name: String,
    offset: usize,
    width: usize,
    set: Arc<ColumnSet>,
    stats: Arc<TableStats>,
    /// Pushed-down `WHERE` conjuncts (all infallible, single-source).
    pushed: Vec<ExprId>,
    /// Candidate index probe: `(local column, conjunct id, key constant)`.
    probe: Option<(usize, ExprId, Value)>,
    /// Estimated rows surviving the pushed predicates.
    est_rows: f64,
}

/// The planner's verdict for one eligible block.
struct Decision {
    srcs: Vec<SourceInfo>,
    /// Join indices in execution order.
    order: Vec<usize>,
    reordered: bool,
    /// Estimated cardinality after each executed join, parallel to `order`.
    est_joins: Vec<f64>,
    /// `WHERE` conjuncts evaluated after the join tree, in original order.
    residual: Vec<ExprId>,
    /// Worth taking the optimized path (vs. pure overhead).
    nontrivial: bool,
}

/// Map a combined-row offset to its source index, if all offsets in
/// `slots` land in the same source.
fn single_source(srcs: &[SourceInfo], slots: &[usize]) -> Option<usize> {
    let mut found: Option<usize> = None;
    for &idx in slots {
        let s = srcs
            .iter()
            .position(|s| idx >= s.offset && idx < s.offset + s.width)?;
        match found {
            None => found = Some(s),
            Some(prev) if prev == s => {}
            Some(_) => return None,
        }
    }
    found
}

/// `Slot = Const` (either orientation) over this source → `(local column,
/// constant)`.
fn eq_const_pattern(sel: &CSelect, id: ExprId, s: &SourceInfo) -> Option<(usize, Value)> {
    let CExpr::Binary { left, op: BinOp::Eq, right } = &sel.arena[id] else {
        return None;
    };
    let pair = match (&sel.arena[*left], &sel.arena[*right]) {
        (CExpr::Slot { up: 0, idx }, CExpr::Const(v))
        | (CExpr::Const(v), CExpr::Slot { up: 0, idx }) => (*idx, v.clone()),
        _ => None?,
    };
    let (idx, v) = pair;
    (idx >= s.offset && idx < s.offset + s.width).then(|| (idx - s.offset, v))
}

fn val_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(n) => Some(*n as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

/// Textbook selectivity estimate for one conjunct against one source.
fn selectivity(sel: &CSelect, id: ExprId, s: &SourceInfo) -> f64 {
    let col_of = |e: ExprId| match &sel.arena[e] {
        CExpr::Slot { up: 0, idx } if *idx >= s.offset && *idx < s.offset + s.width => {
            Some(*idx - s.offset)
        }
        _ => None,
    };
    match &sel.arena[id] {
        CExpr::And { left, right } => selectivity(sel, *left, s) * selectivity(sel, *right, s),
        CExpr::Or { left, right } => {
            (selectivity(sel, *left, s) + selectivity(sel, *right, s)).min(1.0)
        }
        CExpr::Unary { op: UnaryOp::Not, expr } => 1.0 - selectivity(sel, *expr, s),
        CExpr::IsNull { expr, negated } => {
            let frac = col_of(*expr)
                .map(|c| s.stats.columns[c].null_fraction(s.stats.row_count))
                .unwrap_or(1.0 / 3.0);
            if *negated {
                1.0 - frac
            } else {
                frac
            }
        }
        CExpr::InList { expr, list, negated } => {
            let base = col_of(*expr)
                .map(|c| {
                    (list.len() as f64 / s.stats.columns[c].ndv.max(1) as f64).min(1.0)
                })
                .unwrap_or(1.0 / 3.0);
            if *negated {
                1.0 - base
            } else {
                base
            }
        }
        CExpr::Between { .. } => 0.25,
        CExpr::Like { .. } => 0.25,
        CExpr::Binary { left, op, right } if op.is_comparison() => {
            let (col, konst) = match (col_of(*left), col_of(*right)) {
                (Some(c), None) => (Some(c), const_of(sel, *right)),
                (None, Some(c)) => (Some(c), const_of(sel, *left)),
                _ => (None, None),
            };
            let Some(c) = col else { return 1.0 / 3.0 };
            let st = &s.stats.columns[c];
            match op {
                BinOp::Eq => 1.0 / st.ndv.max(1) as f64,
                BinOp::NotEq => 1.0 - 1.0 / st.ndv.max(1) as f64,
                BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                    let frac = match (
                        konst.as_ref().and_then(val_f64),
                        st.min.as_ref().and_then(val_f64),
                        st.max.as_ref().and_then(val_f64),
                    ) {
                        (Some(k), Some(lo), Some(hi)) if hi > lo => {
                            ((k - lo) / (hi - lo)).clamp(0.0, 1.0)
                        }
                        _ => return 1.0 / 3.0,
                    };
                    match op {
                        BinOp::Lt | BinOp::LtEq => frac,
                        _ => 1.0 - frac,
                    }
                }
                _ => 1.0 / 3.0,
            }
        }
        _ => 1.0 / 3.0,
    }
}

fn const_of(sel: &CSelect, id: ExprId) -> Option<Value> {
    match &sel.arena[id] {
        CExpr::Const(v) => Some(v.clone()),
        _ => None,
    }
}

/// NDV of a join-key expression against the sources, for the cardinality
/// denominator. A plain column uses its statistics; anything computed
/// falls back to a third of the input.
fn key_ndv(sel: &CSelect, key: ExprId, srcs: &[SourceInfo], side_rows: f64) -> f64 {
    let mut slots = Vec::new();
    collect_slots(sel, key, &mut slots);
    if let [idx] = slots.as_slice() {
        if let Some(si) = single_source(srcs, &[*idx]) {
            let s = &srcs[si];
            if let Some(cs) = s.stats.columns.get(idx - s.offset) {
                return cs.ndv.max(1) as f64;
            }
        }
    }
    (side_rows / 3.0).max(1.0)
}

/// Right-side key NDV: right keys are compiled side-local, so `Slot{0, c}`
/// is column `c` of the right source directly.
fn right_key_ndv(sel: &CSelect, key: ExprId, s: &SourceInfo) -> f64 {
    if let CExpr::Slot { up: 0, idx } = &sel.arena[key] {
        if let Some(cs) = s.stats.columns.get(*idx) {
            return cs.ndv.max(1) as f64;
        }
    }
    (s.est_rows / 3.0).max(1.0)
}

/// Analyze one block. `Ok` means the block is safely optimizable and
/// carries the full plan; `Err` is a human-readable ineligibility reason.
fn analyze(sel: &CSelect, db: &Database, flags: &[bool]) -> Result<Decision, &'static str> {
    if sel.union.is_some() {
        return Err("UNION blocks are not optimized");
    }
    let Some(CSource::Table { name, width }) = &sel.source else {
        return Err("FROM source is not a base table");
    };
    let inf = infallible_flags(sel, flags);
    let make_source = |name: &str, width: usize, offset: usize| -> Result<SourceInfo, &'static str> {
        let t = db.table(name).ok_or("unknown table")?;
        let set = t.columnar();
        if set.width() != width {
            return Err("table width changed since compile");
        }
        Ok(SourceInfo {
            name: name.to_owned(),
            offset,
            width,
            set,
            stats: t.stats(),
            pushed: Vec::new(),
            probe: None,
            est_rows: 0.0,
        })
    };
    let mut srcs = vec![make_source(name, *width, 0)?];
    let mut offset = *width;
    for join in &sel.joins {
        if join.kind != JoinKind::Inner {
            return Err("only inner joins are reorderable");
        }
        let Some(keys) = &join.hash_keys else {
            return Err("join has no equi-key conjunction");
        };
        if join.on.is_none() {
            return Err("join has no ON predicate");
        }
        if keys.iter().any(|&(l, r)| !inf[l] || !inf[r]) {
            return Err("join keys are fallible or need the scalar runner");
        }
        let CSource::Table { name, width } = &join.source else {
            return Err("join source is not a base table");
        };
        srcs.push(make_source(name, *width, offset)?);
        offset += *width;
    }
    if offset != sel.width {
        return Err("combined width mismatch");
    }

    // WHERE split: pushdown only when every conjunct is infallible, so
    // reordering can never change which row raises first.
    let mut residual: Vec<ExprId> = Vec::new();
    if let Some(w) = sel.where_clause {
        let mut conj = Vec::new();
        split_and(sel, w, &mut conj);
        if conj.iter().all(|&c| inf[c]) {
            for c in conj {
                let mut slots = Vec::new();
                collect_slots(sel, c, &mut slots);
                match (!slots.is_empty()).then(|| single_source(&srcs, &slots)).flatten() {
                    Some(i) => srcs[i].pushed.push(c),
                    None => residual.push(c),
                }
            }
        } else {
            residual.push(w);
        }
    }

    // Per-source estimates and index-probe candidates.
    for s in &mut srcs {
        let mut est = s.stats.row_count as f64;
        for &c in &s.pushed {
            if s.probe.is_none() {
                if let Some((local, v)) = eq_const_pattern(sel, c, s) {
                    let ndv = s.stats.columns[local].ndv;
                    if s.stats.row_count >= PROBE_MIN_ROWS && ndv >= PROBE_MIN_NDV {
                        s.probe = Some((local, c, v));
                    }
                }
            }
            est *= selectivity(sel, c, s);
        }
        s.est_rows = est;
    }

    // Greedy join order: repeatedly take the available join (all left-key
    // sources already placed) with the smallest estimated output. The join
    // whose right source has the smallest original index is always
    // available, so the loop cannot deadlock; ties break to the smallest
    // original index, keeping the choice deterministic.
    let n_joins = sel.joins.len();
    let left_refs: Vec<Vec<usize>> = sel
        .joins
        .iter()
        .map(|j| {
            let mut refs = Vec::new();
            for &(l, _) in j.hash_keys.as_ref().expect("checked above") {
                let mut slots = Vec::new();
                collect_slots(sel, l, &mut slots);
                for idx in slots {
                    if let Some(si) =
                        srcs.iter().position(|s| idx >= s.offset && idx < s.offset + s.width)
                    {
                        if !refs.contains(&si) {
                            refs.push(si);
                        }
                    }
                }
            }
            refs
        })
        .collect();
    let mut placed = vec![false; srcs.len()];
    placed[0] = true;
    let mut done = vec![false; n_joins];
    let mut order = Vec::with_capacity(n_joins);
    let mut est_joins = Vec::with_capacity(n_joins);
    let mut card = srcs[0].est_rows;
    for _ in 0..n_joins {
        let mut best: Option<(f64, usize)> = None;
        for (j, join) in sel.joins.iter().enumerate() {
            if done[j] || !left_refs[j].iter().all(|&s| placed[s]) {
                continue;
            }
            let right = &srcs[j + 1];
            let mut denom = 1.0f64;
            for &(l, r) in join.hash_keys.as_ref().expect("checked above") {
                denom *= key_ndv(sel, l, &srcs, card).max(right_key_ndv(sel, r, right));
            }
            let est = card * right.est_rows / denom.max(1.0);
            if best.is_none_or(|(b, _)| est < b) {
                best = Some((est, j));
            }
        }
        let (est, j) = best.ok_or("join graph is disconnected")?;
        order.push(j);
        est_joins.push(est);
        done[j] = true;
        placed[j + 1] = true;
        card = est;
    }
    let reordered = order.iter().enumerate().any(|(i, &j)| i != j);
    let any_pushed = srcs.iter().any(|s| !s.pushed.is_empty());
    let any_probe = srcs.iter().any(|s| s.probe.is_some());
    let nontrivial = reordered || any_probe || (n_joins > 0 && any_pushed);
    Ok(Decision { srcs, order, reordered, est_joins, residual, nontrivial })
}

// ---------------------------------------------------------------------------
// Pure execution phase
// ---------------------------------------------------------------------------

/// Wrap one source's filtered row ids as a relation whose columns sit at
/// the block's combined offsets, so block-scope expressions evaluate
/// unchanged. Foreign columns map to a dummy entry that is provably never
/// gathered (single-source expressions reference only their own slots);
/// `materialize_row` must not be called on the result.
fn positioned(set: &Arc<ColumnSet>, ids: Vec<u32>, offset: usize, total_width: usize) -> Rel {
    let w = set.width();
    let len = ids.len();
    Rel {
        srcs: vec![Arc::clone(set)],
        rowids: vec![ids],
        len,
        col_map: (0..total_width)
            .map(|c| {
                if c >= offset && c < offset + w {
                    (0u32, (c - offset) as u32)
                } else {
                    (0u32, 0u32)
                }
            })
            .collect(),
        width: total_width,
    }
}

/// Replay log of one pushed-filter application, for the commit phase.
struct FilterApp {
    input: u64,
    kept: u64,
    /// Per-batch `(input, kept)` for the selectivity histogram.
    batches: Vec<(u64, u64)>,
    /// Rows handled by dictionary-code kernels, replayed at commit.
    dict_rows: u64,
}

/// Apply one pushed conjunct to a source's surviving ids, purely.
fn pure_filter(
    sel: &CSelect,
    flags: &[bool],
    rel: &Rel,
    pred: ExprId,
    batch: usize,
    pool: &BatchPool,
) -> Result<(Vec<u32>, FilterApp), Unvec> {
    let ev = Ev::new(sel, rel, flags, pool);
    let mut keep: Vec<u32> = Vec::new();
    let mut batches = Vec::new();
    let mut rows = pool.take_u32();
    let mut start = 0usize;
    while start < rel.len {
        let end = (start + batch).min(rel.len);
        rows.clear();
        rows.extend(start as u32..end as u32);
        let col = ev.eval(pred, &rows)?;
        let before = keep.len();
        for (i, &row) in rows.iter().enumerate() {
            if col.truth_at(i) == Some(true) {
                keep.push(row);
            }
        }
        col.recycle(pool);
        batches.push(((end - start) as u64, (keep.len() - before) as u64));
        start = end;
    }
    pool.put_u32(rows);
    let kept_ids: Vec<u32> = keep.iter().map(|&i| rel.rowids[0][i as usize]).collect();
    let app = FilterApp {
        input: rel.len as u64,
        kept: kept_ids.len() as u64,
        batches,
        dict_rows: ev.dict_rows.get(),
    };
    Ok((kept_ids, app))
}

/// Evaluate one side's join keys purely (no obs, no charges) — mirror of
/// the vectorized `side_keys` with the side pre-picked, accumulating the
/// same typed [`SideKeys`] representation so the optimizer's joins run
/// the code-space atom loops. Returns the keys plus the number of batches
/// consumed (replayed at commit).
fn pure_keys(
    sel: &CSelect,
    flags: &[bool],
    rel: &Rel,
    key_ids: &[ExprId],
    batch: usize,
    pool: &BatchPool,
) -> Result<(SideKeys, u64), Unvec> {
    let ev = Ev::new(sel, rel, flags, pool);
    let mut acc = SideKeys::Cols(
        key_ids
            .iter()
            .map(|_| {
                let mut bits = pool.take_u64();
                bits.reserve(rel.len);
                KeyCol::Bits(bits)
            })
            .collect(),
    );
    let mut batches = 0u64;
    let mut rows = pool.take_u32();
    let mut start = 0usize;
    while start < rel.len {
        let end = (start + batch).min(rel.len);
        rows.clear();
        rows.extend(start as u32..end as u32);
        let cols = key_ids
            .iter()
            .map(|&k| ev.eval(k, &rows))
            .collect::<Result<Vec<_>, _>>()?;
        match &mut acc {
            SideKeys::Cols(kcols)
                if kcols.iter().zip(&cols).all(|(kc, c)| kc.can_append(c)) =>
            {
                for (kc, c) in kcols.iter_mut().zip(&cols) {
                    kc.append(c, rows.len());
                }
            }
            _ => {
                let mut gen =
                    std::mem::replace(&mut acc, SideKeys::Gen(Vec::new())).into_gen();
                vector::append_gen(&mut gen, &cols, rows.len());
                acc = SideKeys::Gen(gen);
            }
        }
        for c in cols {
            c.recycle(pool);
        }
        batches += 1;
        start = end;
    }
    pool.put_u32(rows);
    Ok((acc, batches))
}

/// Per-source pure-phase outcome.
struct SourceExec {
    probe_used: bool,
    probe_kept: u64,
    filters: Vec<FilterApp>,
}

impl SourceExec {
    fn untouched(&self) -> bool {
        !self.probe_used && self.filters.is_empty()
    }
}

/// Per-join pure-phase outcome (in execution order).
struct JoinExec {
    j: usize,
    build_len: u64,
    probe_len: u64,
    emitted: u64,
    key_batches: u64,
    est: f64,
    used_index: bool,
    /// Rows streamed through the dictionary-code translation (replayed as
    /// telemetry at commit).
    dict_rows: u64,
}

/// Convert an equality-probe constant to its index key; `None` means the
/// predicate can match nothing (NULL or NaN never equals anything).
fn probe_key(v: &Value) -> Option<VKey> {
    match v {
        Value::Null => None,
        Value::Int(n) => Some(VKey::num(*n as f64)),
        Value::Float(x) => (!x.is_nan()).then(|| VKey::num(*x)),
        Value::Str(s) => Some(VKey::Str(Arc::from(s.to_ascii_lowercase()))),
    }
}

// ---------------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------------

/// One rendered plan operator with its estimated vs actual cardinality.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainStep {
    /// Operator kind: `scan`, `index_probe`, `filter`, `join`,
    /// `residual_filter`, or `output`.
    pub op: String,
    /// Operator target (table name, predicate count, …).
    pub target: String,
    /// Planner's cardinality estimate going *out* of this operator.
    pub est_rows: f64,
    /// Observed output cardinality.
    pub actual_rows: u64,
}

/// A rendered plan choice: what the cost-based planner decided for one
/// statement, with estimated vs actual cardinalities per operator.
/// Deterministic for a given database + statement — byte-identical at any
/// thread count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Explanation {
    /// Database the plan ran against.
    pub database: String,
    /// Whether the cost-based path executed the statement.
    pub optimized: bool,
    /// Why the optimizer declined, when `optimized` is false.
    pub reason: Option<String>,
    /// Sources in FROM-clause order.
    pub from_order: Vec<String>,
    /// Sources in chosen execution order (first scan, then each join's
    /// right side).
    pub join_order: Vec<String>,
    /// True when the executed join order differs from the FROM order.
    pub reordered: bool,
    /// Number of `WHERE` conjuncts pushed below the join tree.
    pub predicates_pushed: usize,
    /// Number of index-probe access paths taken.
    pub index_probes: usize,
    /// Operator-level plan with estimated vs actual cardinalities.
    pub steps: Vec<ExplainStep>,
    /// Final result-set row count.
    pub rows_out: u64,
}

impl Explanation {
    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("database: {}\n", self.database));
        out.push_str(&format!("optimized: {}\n", self.optimized));
        if let Some(r) = &self.reason {
            out.push_str(&format!("reason: {r}\n"));
        }
        if !self.join_order.is_empty() {
            out.push_str(&format!(
                "join order: {}{}\n",
                self.join_order.join(" -> "),
                if self.reordered { " (reordered)" } else { "" }
            ));
        }
        out.push_str(&format!(
            "predicates pushed: {} | index probes: {}\n",
            self.predicates_pushed, self.index_probes
        ));
        for s in &self.steps {
            out.push_str(&format!(
                "  {:<14} {:<24} est={:<12.1} actual={}\n",
                s.op, s.target, s.est_rows, s.actual_rows
            ));
        }
        out.push_str(&format!("rows out: {}\n", self.rows_out));
        out
    }

    /// Single-line JSON rendering (no external dependencies).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => "\\\"".chars().collect::<Vec<_>>(),
                    '\\' => "\\\\".chars().collect(),
                    '\n' => "\\n".chars().collect(),
                    c if (c as u32) < 0x20 => {
                        format!("\\u{:04x}", c as u32).chars().collect()
                    }
                    c => vec![c],
                })
                .collect()
        }
        let steps = self
            .steps
            .iter()
            .map(|s| {
                format!(
                    "{{\"op\":\"{}\",\"target\":\"{}\",\"est_rows\":{:.2},\"actual_rows\":{}}}",
                    esc(&s.op),
                    esc(&s.target),
                    s.est_rows,
                    s.actual_rows
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let names = |v: &[String]| {
            v.iter().map(|n| format!("\"{}\"", esc(n))).collect::<Vec<_>>().join(",")
        };
        format!(
            "{{\"database\":\"{}\",\"optimized\":{},\"reason\":{},\"from_order\":[{}],\
             \"join_order\":[{}],\"reordered\":{},\"predicates_pushed\":{},\
             \"index_probes\":{},\"steps\":[{}],\"rows_out\":{}}}",
            esc(&self.database),
            self.optimized,
            self.reason
                .as_ref()
                .map_or("null".to_owned(), |r| format!("\"{}\"", esc(r))),
            names(&self.from_order),
            names(&self.join_order),
            self.reordered,
            self.predicates_pushed,
            self.index_probes,
            steps,
            self.rows_out
        )
    }
}

// ---------------------------------------------------------------------------
// The optimized executor
// ---------------------------------------------------------------------------

/// Try to execute `plan` through the cost-based path. `None` means the
/// plan was ineligible or the optimization was trivial (nothing pushed,
/// probed, or reordered) — the caller falls through to the normal
/// executors at zero cost, because nothing was charged or observed.
pub(crate) fn try_execute(
    plan: &CompiledPlan,
    db: &Database,
    opts: ExecOptions,
) -> Option<Result<ResultSet, EngineError>> {
    let runner = Runner::new(db, opts);
    let result = attempt(&runner, &plan.root, db, false, None)?;
    record_statement(&runner.meter, &result);
    Some(result)
}

/// Explain `plan`: run it (optimized when eligible, unoptimized
/// otherwise) and report the chosen plan with estimated vs actual
/// cardinalities.
pub(crate) fn explain_plan(
    plan: &CompiledPlan,
    db: &Database,
    opts: ExecOptions,
) -> Result<Explanation, EngineError> {
    let mut ex = Explanation { database: db.name.clone(), ..Default::default() };
    let gated = opts.optimize && opts.hash_join && opts.limits.is_unlimited();
    if gated {
        let runner = Runner::new(db, opts);
        if let Some(result) = attempt(&runner, &plan.root, db, true, Some(&mut ex)) {
            let rs = result?;
            ex.optimized = true;
            ex.rows_out = rs.rows.len() as u64;
            return Ok(ex);
        }
    } else {
        ex.reason =
            Some("optimizer gated off (finite limits, hash_join=false, or optimize=false)".into());
    }
    let rs = plan.execute(db, ExecOptions { optimize: false, ..opts })?;
    ex.optimized = false;
    if ex.reason.is_none() {
        ex.reason = Some("plan not eligible for cost-based execution".into());
    }
    ex.steps.clear();
    ex.rows_out = rs.rows.len() as u64;
    Ok(ex)
}

/// The optimized executor: analysis, pure phase, commit. See the module
/// docs for the equivalence argument. `force` takes the optimized path
/// even when trivial (explain wants the plan rendered either way).
#[allow(clippy::too_many_lines)]
fn attempt(
    r: &Runner<'_>,
    sel: &CSelect,
    db: &Database,
    force: bool,
    mut explain: Option<&mut Explanation>,
) -> Option<Result<ResultSet, EngineError>> {
    let flags = scalar_flags(sel);
    let dec = match analyze(sel, db, &flags) {
        Ok(d) => d,
        Err(reason) => {
            if let Some(ex) = explain {
                ex.reason = Some(reason.to_owned());
            }
            return None;
        }
    };
    if !(force || dec.nontrivial) {
        if let Some(ex) = explain {
            ex.reason = Some("optimization is trivial for this plan".to_owned());
        }
        return None;
    }
    let batch = r.opts.batch_size.unwrap_or_else(|| adaptive_batch_size(sel.width)).max(1);
    let nsrc = dec.srcs.len();

    // ---- Pure phase (no charges, no obs; any surprise bails for free) --
    let mut src_ids: Vec<Vec<u32>> = Vec::with_capacity(nsrc);
    let mut src_exec: Vec<SourceExec> = Vec::with_capacity(nsrc);
    for s in &dec.srcs {
        let mut ids: Vec<u32> = (0..s.set.len as u32).collect();
        let mut ex = SourceExec { probe_used: false, probe_kept: 0, filters: Vec::new() };
        let mut to_filter: Vec<ExprId> = s.pushed.clone();
        if let Some((local, conj, key)) = &s.probe {
            let t = db.table(&s.name)?;
            let ix = t.index(*local);
            if ix.filter_exact {
                ids = probe_key(key)
                    .and_then(|k| ix.map.get(&k).cloned())
                    .unwrap_or_default();
                to_filter.retain(|c| c != conj);
                ex.probe_used = true;
                ex.probe_kept = ids.len() as u64;
            }
        }
        for &c in &to_filter {
            let rel = positioned(&s.set, ids, s.offset, sel.width);
            let (kept, app) = pure_filter(sel, &flags, &rel, c, batch, &r.pool).ok()?;
            ids = kept;
            ex.filters.push(app);
        }
        src_ids.push(ids);
        src_exec.push(ex);
    }

    // Joins in cost order over physical-row-id assignments.
    let mut assign: Vec<Option<Vec<u32>>> = vec![None; nsrc];
    assign[0] = Some(src_ids[0].clone());
    let mut n = src_ids[0].len();
    let mut join_exec: Vec<JoinExec> = Vec::with_capacity(dec.order.len());
    for (pos, &j) in dec.order.iter().enumerate() {
        let join = &sel.joins[j];
        let right = j + 1;
        let s = &dec.srcs[right];
        let keys = join.hash_keys.as_ref()?;
        let left_ids: Vec<ExprId> = keys.iter().map(|&(l, _)| l).collect();
        let right_ids: Vec<ExprId> = keys.iter().map(|&(_, rk)| rk).collect();

        // Left keys evaluate over the partially assembled combined row:
        // placed sources carry their physical ids, absent sources a
        // NONE_RID pad (gathers as NULL; left keys never reference them).
        let lrel = Rel {
            srcs: dec.srcs.iter().map(|s| Arc::clone(&s.set)).collect(),
            rowids: (0..nsrc)
                .map(|si| assign[si].clone().unwrap_or_else(|| vec![NONE_RID; n]))
                .collect(),
            len: n,
            col_map: dec
                .srcs
                .iter()
                .enumerate()
                .flat_map(|(si, s)| (0..s.width).map(move |c| (si as u32, c as u32)))
                .collect(),
            width: sel.width,
        };
        let (lkeys, lb) = pure_keys(sel, &flags, &lrel, &left_ids, batch, &r.pool).ok()?;

        // Build side: an untouched right source with a plain single-column
        // key reuses the secondary index as a prebuilt build table — same
        // key equivalence ([`VKey`]), same ascending-row bucket order, so
        // the emission sequence is identical to building from scratch.
        let single_col = match (keys.len() == 1, &sel.arena[right_ids[0]]) {
            (true, CExpr::Slot { up: 0, idx }) if *idx < s.width => Some(*idx),
            _ => None,
        };
        let mut key_batches = lb;
        let mut used_index = false;
        let mut dict_rows = 0u64;
        let mut emits = r.pool.take_pairs();
        if let Some(col) = single_col.filter(|_| src_exec[right].untouched()) {
            let ix = db.table(&s.name)?.index(col);
            used_index = true;
            for li in 0..lkeys.len() {
                if let Some(vk) = lkeys.one_at(li) {
                    if let Some(hits) = ix.map.get(&vk) {
                        for &ri in hits {
                            emits.push((li as u32, ri));
                        }
                    }
                }
            }
        } else {
            let rrel = positioned(&s.set, src_ids[right].clone(), 0, s.width);
            let (rkeys, rb) = pure_keys(sel, &flags, &rrel, &right_ids, batch, &r.pool).ok()?;
            key_batches += rb;
            // One- and two-column typed sides run the code-space atom
            // loops (inner joins only here, build side = right); anything
            // else falls back to hashing JoinKeys.
            let pairs = match (lkeys, rkeys) {
                (SideKeys::Cols(lc), SideKeys::Cols(rc)) if lc.len() <= 2 => {
                    let atoms: Vec<(Vec<u64>, Vec<u64>)> = lc
                        .into_iter()
                        .zip(rc)
                        .map(|(l, rcol)| vector::atom_pair(l, rcol, true, &mut dict_rows))
                        .collect();
                    let pairs = match atoms.as_slice() {
                        [(l0, r0)] => vector::pure_inner_join_atoms(l0, r0, &r.pool),
                        [(l0, r0), (l1, r1)] => {
                            let lz: Vec<(u64, u64)> =
                                l0.iter().zip(l1).map(|(&a, &b)| (a, b)).collect();
                            let rz: Vec<(u64, u64)> =
                                r0.iter().zip(r1).map(|(&a, &b)| (a, b)).collect();
                            vector::pure_inner_join_atoms(&lz, &rz, &r.pool)
                        }
                        _ => unreachable!("guard admits one or two key columns"),
                    };
                    for (a, b) in atoms {
                        r.pool.put_u64(a);
                        r.pool.put_u64(b);
                    }
                    pairs
                }
                (lk, rk) => {
                    let (lg, rg) = (lk.into_gen(), rk.into_gen());
                    let mut table: HashMap<&JoinKey, Vec<u32>> = HashMap::new();
                    for (ri, k) in rg.iter().enumerate() {
                        if let Some(k) = k {
                            table.entry(k).or_default().push(ri as u32);
                        }
                    }
                    let mut out = r.pool.take_pairs();
                    for (li, k) in lg.iter().enumerate() {
                        if let Some(k) = k {
                            if let Some(hits) = table.get(k) {
                                for &ri in hits {
                                    out.push((li as u32, ri));
                                }
                            }
                        }
                    }
                    out
                }
            };
            // Logical → physical for the filtered side.
            emits.extend(pairs.iter().map(|&(li, ri)| (li, src_ids[right][ri as usize])));
            r.pool.put_pairs(pairs);
        }

        for a in &mut assign {
            if let Some(prev) = a.take() {
                *a = Some(emits.iter().map(|&(l, _)| prev[l as usize]).collect());
            }
        }
        assign[right] = Some(emits.iter().map(|&(_, ri)| ri).collect());
        join_exec.push(JoinExec {
            j,
            build_len: src_ids[right].len() as u64,
            probe_len: n as u64,
            emitted: emits.len() as u64,
            key_batches,
            est: dec.est_joins[pos],
            used_index,
            dict_rows,
        });
        n = emits.len();
        r.pool.put_pairs(emits);
    }

    // Restore the FROM-order emission sequence: inner equi-join chains
    // emit lexicographically in their physical row-id tuple, and the
    // tuples are distinct, so one sort is exact.
    if dec.reordered && n > 1 {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let cols: Vec<&Vec<u32>> = assign.iter().map(|a| a.as_ref().expect("all placed")).collect();
        perm.sort_unstable_by(|&a, &b| {
            for ids in &cols {
                match ids[a as usize].cmp(&ids[b as usize]) {
                    std::cmp::Ordering::Equal => continue,
                    o => return o,
                }
            }
            std::cmp::Ordering::Equal
        });
        for a in assign.iter_mut() {
            let ids = a.as_ref().expect("all placed");
            *a = Some(perm.iter().map(|&p| ids[p as usize]).collect());
        }
    }

    let rel = Rel {
        srcs: dec.srcs.iter().map(|s| Arc::clone(&s.set)).collect(),
        rowids: assign.into_iter().map(|a| a.expect("all placed")).collect(),
        len: n,
        col_map: dec
            .srcs
            .iter()
            .enumerate()
            .flat_map(|(si, s)| (0..s.width).map(move |c| (si as u32, c as u32)))
            .collect(),
        width: sel.width,
    };

    // ---- Commit phase: replay charges and observability, then finish ---
    if let Err(e) = r.meter.enter_block() {
        return Some(Err(e));
    }
    let result = (|| -> Result<ResultSet, EngineError> {
        for (s, ex) in dec.srcs.iter().zip(&src_exec) {
            r.meter.charge_steps(s.set.len as u64)?;
            snails_obs::observe(Obs::EngineOpScanRows, s.set.len as u64);
            let batches = s.set.len.div_ceil(batch) as u64;
            snails_obs::add(Obs::EngineVecBatches, batches);
            snails_obs::add(Obs::EngineOpScanBatches, batches);
            for col in &s.set.cols {
                if let ColData::Str { dict, .. } = col {
                    snails_obs::observe(Obs::EngineVecDictEntries, dict.len() as u64);
                }
            }
            if ex.probe_used {
                snails_obs::add(Obs::EngineOptIndexProbes, 1);
                r.meter.charge_steps(ex.probe_kept)?;
                snails_obs::observe(Obs::EngineOpFilterRows, ex.probe_kept);
            }
            for f in &ex.filters {
                r.meter.charge_steps(f.input)?;
                for &(inp, kept) in &f.batches {
                    snails_obs::add(Obs::EngineVecBatches, 1);
                    snails_obs::add(Obs::EngineOpFilterBatches, 1);
                    snails_obs::observe(Obs::EngineVecSelectivityPct, kept * 100 / inp.max(1));
                }
                if f.dict_rows > 0 {
                    snails_obs::add(Obs::EngineVecDictKernelRows, f.dict_rows);
                }
                snails_obs::observe(Obs::EngineOpFilterRows, f.kept);
            }
        }
        snails_obs::add(Obs::EngineOptPlans, 1);
        let displaced = dec.order.iter().enumerate().filter(|&(i, &j)| i != j).count() as u64;
        if displaced > 0 {
            snails_obs::add(Obs::EngineOptJoinsReordered, displaced);
        }
        let pushed_total: u64 = dec.srcs.iter().map(|s| s.pushed.len() as u64).sum();
        if pushed_total > 0 {
            snails_obs::add(Obs::EngineOptPredicatesPushed, pushed_total);
        }
        for je in &join_exec {
            r.meter.charge_join(je.build_len)?;
            r.meter.charge_join(je.probe_len + je.emitted)?;
            snails_obs::add(Obs::EngineVecBatches, je.key_batches);
            snails_obs::add(Obs::EngineOpJoinBatches, je.key_batches);
            if je.dict_rows > 0 {
                snails_obs::add(Obs::EngineVecDictKernelRows, je.dict_rows);
            }
            snails_obs::observe(Obs::EngineOpJoinRows, je.emitted);
            let err_pct =
                ((je.est - je.emitted as f64).abs() / (je.emitted.max(1) as f64) * 100.0)
                    .min(100_000.0) as u64;
            snails_obs::observe(Obs::EngineOptCardErrPct, err_pct);
        }
        let before_residual = rel.len as u64;
        // Residual conjuncts chain a selection vector instead of
        // re-materializing the joined row set after each predicate; the
        // tail consumes the final selection directly.
        let mut sel_rows: Option<Vec<u32>> = None;
        for &c in &dec.residual {
            let next = vector::filter_sel(r, sel, &rel, c, sel_rows.as_deref(), batch, &flags)?;
            if let Some(prev) = sel_rows.replace(next) {
                r.pool.put_u32(prev);
            }
        }
        if !dec.residual.is_empty() {
            snails_obs::add(Obs::EngineVecFusedPipelines, 1);
        }
        let after_residual = sel_rows.as_ref().map_or(rel.len as u64, |s| s.len() as u64);
        let result = vector::tail(r, sel, &rel, sel_rows.as_deref(), &flags);
        if let Some(s) = sel_rows {
            r.pool.put_u32(s);
        }
        let result = result?;

        if let Some(ex) = explain.as_mut() {
            ex.from_order = dec.srcs.iter().map(|s| s.name.clone()).collect();
            ex.join_order = std::iter::once(dec.srcs[0].name.clone())
                .chain(dec.order.iter().map(|&j| dec.srcs[j + 1].name.clone()))
                .collect();
            ex.reordered = dec.reordered;
            ex.predicates_pushed = dec.srcs.iter().map(|s| s.pushed.len()).sum();
            ex.index_probes = src_exec.iter().filter(|e| e.probe_used).count();
            let mut steps = Vec::new();
            for ((s, e), ids) in dec.srcs.iter().zip(&src_exec).zip(&src_ids) {
                steps.push(ExplainStep {
                    op: if e.probe_used { "index_probe" } else { "scan" }.to_owned(),
                    target: s.name.clone(),
                    est_rows: s.est_rows,
                    actual_rows: ids.len() as u64,
                });
            }
            for je in &join_exec {
                steps.push(ExplainStep {
                    op: if je.used_index { "join(index)" } else { "join" }.to_owned(),
                    target: dec.srcs[je.j + 1].name.clone(),
                    est_rows: je.est,
                    actual_rows: je.emitted,
                });
            }
            if !dec.residual.is_empty() {
                steps.push(ExplainStep {
                    op: "residual_filter".to_owned(),
                    target: format!("{} conjunct(s)", dec.residual.len()),
                    est_rows: before_residual as f64 / 3.0f64.powi(dec.residual.len() as i32),
                    actual_rows: after_residual,
                });
            }
            steps.push(ExplainStep {
                op: "output".to_owned(),
                target: "result".to_owned(),
                est_rows: steps.last().map_or(0.0, |s| s.est_rows),
                actual_rows: result.rows.len() as u64,
            });
            ex.steps = steps;
        }
        Ok(result)
    })();
    r.meter.exit_block();
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableSchema;
    use crate::value::DataType;

    fn three_table_db() -> Database {
        let mut db = Database::new("opt");
        db.create_table(
            TableSchema::new("fact")
                .column("k1", DataType::Int)
                .column("k2", DataType::Int)
                .column("v", DataType::Int),
        );
        db.create_table(
            TableSchema::new("d1").column("k1", DataType::Int).column("a", DataType::Varchar),
        );
        db.create_table(
            TableSchema::new("d2").column("k2", DataType::Int).column("b", DataType::Varchar),
        );
        for i in 0..600i64 {
            db.insert("fact", vec![Value::Int(i % 30), Value::Int(i % 50), Value::Int(i)])
                .unwrap();
        }
        for j in 0..30i64 {
            db.insert("d1", vec![Value::Int(j), Value::from(format!("a{j}").as_str())])
                .unwrap();
        }
        for j in 0..50i64 {
            db.insert("d2", vec![Value::Int(j), Value::from(format!("b{j}").as_str())])
                .unwrap();
        }
        db
    }

    fn explain_of(db: &Database, sql: &str) -> Explanation {
        let stmt = snails_sql::parse(sql).unwrap();
        let plan = crate::compile(db, &stmt).unwrap();
        plan.explain(db, ExecOptions::default()).unwrap()
    }

    #[test]
    fn join_order_pinned_for_skewed_fixture() {
        let db = three_table_db();
        // Filtering d2 to one key makes fact⋈d2 the cheaper first join.
        let ex = explain_of(
            &db,
            "SELECT COUNT(*) FROM fact \
             JOIN d1 ON fact.k1 = d1.k1 \
             JOIN d2 ON fact.k2 = d2.k2 \
             WHERE d2.b = 'b7'",
        );
        assert!(ex.optimized, "reason: {:?}", ex.reason);
        assert!(ex.reordered);
        assert_eq!(ex.join_order, vec!["fact", "d2", "d1"]);
        assert_eq!(ex.predicates_pushed, 1);
        assert_eq!(ex.index_probes, 1);
        assert!(ex.steps.iter().any(|s| s.op.starts_with("join")));
    }

    #[test]
    fn unfiltered_joins_keep_from_order() {
        let db = three_table_db();
        let ex = explain_of(
            &db,
            "SELECT COUNT(*) FROM fact \
             JOIN d1 ON fact.k1 = d1.k1 \
             JOIN d2 ON fact.k2 = d2.k2",
        );
        assert!(ex.optimized, "reason: {:?}", ex.reason);
        // Both joins keep cardinality at 600; greedy ties break to the
        // original order.
        assert!(!ex.reordered);
        assert_eq!(ex.join_order, vec!["fact", "d1", "d2"]);
    }

    #[test]
    fn optimized_results_match_unoptimized() {
        let db = three_table_db();
        let queries = [
            "SELECT fact.v, d1.a, d2.b FROM fact \
             JOIN d1 ON fact.k1 = d1.k1 \
             JOIN d2 ON fact.k2 = d2.k2 \
             WHERE d2.b = 'b7' ORDER BY fact.v",
            "SELECT d1.a, COUNT(*) FROM fact \
             JOIN d1 ON fact.k1 = d1.k1 \
             JOIN d2 ON fact.k2 = d2.k2 \
             WHERE d2.k2 < 10 GROUP BY d1.a ORDER BY d1.a",
            "SELECT fact.v FROM fact JOIN d2 ON fact.k2 = d2.k2 WHERE fact.v = 123",
            "SELECT fact.v, d1.a FROM fact JOIN d1 ON fact.k1 = d1.k1 \
             WHERE d1.a = 'a3' AND fact.v < 100",
        ];
        for sql in queries {
            let stmt = snails_sql::parse(sql).unwrap();
            let plan = crate::compile(&db, &stmt).unwrap();
            let optimized = plan.execute(&db, ExecOptions::default()).unwrap();
            let plain = plan
                .execute(&db, ExecOptions { optimize: false, ..Default::default() })
                .unwrap();
            let row = plan
                .execute(
                    &db,
                    ExecOptions { optimize: false, vectorized: false, ..Default::default() },
                )
                .unwrap();
            assert_eq!(optimized, plain, "optimized vs vector mismatch: {sql}");
            assert_eq!(optimized, row, "optimized vs row mismatch: {sql}");
        }
    }

    #[test]
    fn finite_limits_gate_the_optimizer_off() {
        let db = three_table_db();
        let stmt = snails_sql::parse(
            "SELECT COUNT(*) FROM fact JOIN d2 ON fact.k2 = d2.k2 WHERE d2.b = 'b7'",
        )
        .unwrap();
        let plan = crate::compile(&db, &stmt).unwrap();
        let limited = ExecOptions {
            limits: crate::ExecLimits { max_steps: Some(1_000_000), ..Default::default() },
            ..Default::default()
        };
        let ex = plan.explain(&db, limited).unwrap();
        assert!(!ex.optimized);
        assert!(ex.reason.as_deref().unwrap_or("").contains("gated off"));
        // And the gated execution still returns correct rows.
        let rs = plan.execute(&db, limited).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(12)]]);
    }

    #[test]
    fn explain_json_parses_shape() {
        let db = three_table_db();
        let ex = explain_of(
            &db,
            "SELECT COUNT(*) FROM fact JOIN d1 ON fact.k1 = d1.k1 \
             JOIN d2 ON fact.k2 = d2.k2 WHERE d2.b = 'b7'",
        );
        let json = ex.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"optimized\":true"));
        assert!(json.contains("\"est_rows\""));
        assert!(json.contains("\"actual_rows\""));
        assert!(ex.render().contains("join order"));
    }
}
