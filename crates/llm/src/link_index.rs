//! The per-view link index: what linking needs to know about a fixed
//! displayed schema, computed once per fact instead of once per grid cell.
//!
//! A [`SchemaView`] is built once per (database, variant) and then serves
//! every grid cell at that coordinate, on every worker thread. Linking asks
//! it the same questions over and over, so the index answers each one once
//! and keeps the answer:
//!
//! * **native lookup** — which table or column displays a native
//!   identifier (first match in table order, ASCII case-insensitive, as the
//!   linear scans it replaces);
//! * **token classes** — the [`TokenClass`] of every token of an identifier
//!   string, so a link probability is arithmetic;
//! * **distractor rankings** — per kind (tables, columns), a pool of the
//!   view's displayed names, sorted and deduplicated once, and per pool
//!   entry its ranked [`NEAREST`] nearest neighbours.
//!
//! Everything fills lazily behind `OnceLock`s, so building a view costs one
//! small allocation; the first cell that needs a fact computes it, and
//! every later cell on any thread reads it without taking a lock. Views
//! derived from a view (clones and [`SchemaView::restricted_to`]) share its
//! token-class memo and keep their own lookup and pools, since both depend
//! on which tables the view displays.
//!
//! Byte-identity contract (DESIGN.md §13): the index changes no output.
//! Token classes come from [`classify_identifier`], the same function the
//! public [`crate::linking::link_probability`] calls per use, and the
//! probability arithmetic is shared. A pool is the old candidate list —
//! lexical `sort_unstable` + `dedup` — and a ranking is its first
//! [`NEAREST`] entries after a stable sort by case-insensitive edit
//! distance, so the linker's single `gen_range` draw over it picks the same
//! name. Strings the index does not hold are answered by the same functions
//! without memoization.

use crate::linking::classify_identifier;
use crate::model::TokenClass;
use crate::schema_view::{SchemaView, ViewTable};
use snails_lexicon::edit::levenshtein_ignore_case;
use snails_obs::Metric;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Distractor candidates kept per identifier: the linker picks uniformly
/// among the nearest this many.
const NEAREST: usize = 5;

/// Token classes per identifier string.
type Classes = Memo<Box<[TokenClass]>>;

/// A distractor pool: displayed names of one kind, each with its ranking
/// (positions of its [`NEAREST`] nearest names).
type Pool = Memo<Box<[usize]>>;

/// The lazily filled index behind one [`SchemaView`].
#[derive(Default)]
pub(crate) struct LinkIndex {
    /// Shared with derived views.
    classes: Arc<OnceLock<Classes>>,
    /// Native identifier → displayed table / column position.
    natives: OnceLock<NativeLookup>,
    tables: OnceLock<Pool>,
    columns: OnceLock<Pool>,
}

/// A clone shares the token-class memo and starts with an empty lookup and
/// empty pools.
impl Clone for LinkIndex {
    fn clone(&self) -> Self {
        LinkIndex { classes: Arc::clone(&self.classes), ..LinkIndex::default() }
    }
}

impl fmt::Debug for LinkIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LinkIndex").finish_non_exhaustive()
    }
}

impl LinkIndex {
    /// The token-class memo, keyed by every identifier `tables` displays or
    /// natively names (when this call fills it).
    fn classes(&self, tables: &[ViewTable]) -> &Classes {
        self.classes.get_or_init(|| {
            Memo::new(tables.iter().flat_map(|t| {
                let names = [t.displayed.as_str(), t.native.as_str()];
                let columns =
                    t.columns.iter().flat_map(|c| [c.displayed.as_str(), c.native.as_str()]);
                names.into_iter().chain(columns)
            }))
        })
    }

    fn natives(&self, tables: &[ViewTable]) -> &NativeLookup {
        self.natives.get_or_init(|| NativeLookup::new(tables))
    }

    /// Position of the first table of `tables` whose native name equals
    /// `native` ignoring ASCII case.
    pub(crate) fn table(&self, tables: &[ViewTable], native: &str) -> Option<usize> {
        let found = &self.natives(tables).tables;
        found
            .binary_search_by(|&t| cmp_ignore_case(&tables[t].native, native))
            .ok()
            .map(|i| found[i])
    }

    /// Position (table, column) of the first column of `tables`, in table
    /// order, whose native name equals `native` ignoring ASCII case.
    pub(crate) fn column(&self, tables: &[ViewTable], native: &str) -> Option<(usize, usize)> {
        let found = &self.natives(tables).columns;
        found
            .binary_search_by(|&(t, c)| cmp_ignore_case(&tables[t].columns[c].native, native))
            .ok()
            .map(|i| found[i])
    }

    /// The index of a view restricted from the view displaying `tables`.
    /// The shared token-class memo is filled from `tables` first, so the
    /// restricted view still finds the names of the tables it dropped.
    pub(crate) fn restricted(&self, tables: &[ViewTable]) -> LinkIndex {
        self.classes(tables);
        self.clone()
    }
}

/// Sorted, deduplicated strings, each with one lazily filled value.
struct Memo<T> {
    names: Box<[Box<str>]>,
    values: Box<[OnceLock<T>]>,
}

impl<T> Memo<T> {
    fn new<'a>(names: impl Iterator<Item = &'a str>) -> Self {
        let mut names: Vec<&str> = names.collect();
        names.sort_unstable();
        names.dedup();
        Memo {
            values: names.iter().map(|_| OnceLock::new()).collect(),
            names: names.into_iter().map(Box::from).collect(),
        }
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.names.binary_search_by(|n| (**n).cmp(name)).ok()
    }
}

/// Table and column positions ordered by ASCII-uppercased native name; on
/// duplicates only the first in table order is kept.
struct NativeLookup {
    tables: Box<[usize]>,
    columns: Box<[(usize, usize)]>,
}

/// `a` vs `b` with ASCII letters uppercased (the order behind
/// `eq_ignore_ascii_case`).
fn cmp_ignore_case(a: &str, b: &str) -> Ordering {
    a.bytes().map(|b| b.to_ascii_uppercase()).cmp(b.bytes().map(|b| b.to_ascii_uppercase()))
}

fn sorted_first_wins<'a, T: Copy>(mut v: Vec<T>, key: impl Fn(T) -> &'a str) -> Box<[T]> {
    // Stable: among equal keys, table order survives, and dedup keeps the
    // first — the element a front-to-back scan would have found.
    v.sort_by(|&a, &b| cmp_ignore_case(key(a), key(b)));
    v.dedup_by(|a, b| cmp_ignore_case(key(*a), key(*b)) == Ordering::Equal);
    v.into_boxed_slice()
}

impl NativeLookup {
    fn new(tables: &[ViewTable]) -> Self {
        NativeLookup {
            tables: sorted_first_wins((0..tables.len()).collect(), |t| &tables[t].native),
            columns: sorted_first_wins(
                tables
                    .iter()
                    .enumerate()
                    .flat_map(|(t, tab)| (0..tab.columns.len()).map(move |c| (t, c)))
                    .collect(),
                |(t, c)| &tables[t].columns[c].native,
            ),
        }
    }
}

/// The ranked nearest distractors of one identifier: positions into a
/// pool's names, borrowed from the memo or computed for a string the pool
/// does not hold.
pub(crate) struct Nearest<'a> {
    names: &'a [Box<str>],
    picks: Cow<'a, [usize]>,
}

impl Nearest<'_> {
    /// Number of candidates (at most [`NEAREST`]).
    pub(crate) fn len(&self) -> usize {
        self.picks.len()
    }

    /// True when no candidate is left.
    pub(crate) fn is_empty(&self) -> bool {
        self.picks.is_empty()
    }

    /// The `i`-th nearest candidate.
    pub(crate) fn get(&self, i: usize) -> &str {
        &self.names[self.picks[i]]
    }
}

/// The first [`NEAREST`] names of `names` (sorted, unique) after dropping
/// those equal to `displayed` ignoring ASCII case and stable-sorting the
/// rest by case-insensitive edit distance to it.
fn rank(names: &[Box<str>], displayed: &str) -> Box<[usize]> {
    snails_obs::add(Metric::LlmLinkIndexDistractorBuilds, 1);
    // (distance, position), ordered: a later name ties after earlier ones,
    // as under a stable sort.
    let mut best: Vec<(usize, usize)> = Vec::with_capacity(NEAREST + 1);
    for (i, name) in names.iter().enumerate() {
        if name.eq_ignore_ascii_case(displayed) {
            continue;
        }
        let worst = (best.len() == NEAREST).then(|| best[NEAREST - 1].0);
        // The length difference bounds the distance from below.
        if worst.is_some_and(|w| name.len().abs_diff(displayed.len()) >= w) {
            continue;
        }
        let d = levenshtein_ignore_case(name, displayed);
        if worst.is_some_and(|w| d >= w) {
            continue;
        }
        let at = best.partition_point(|&(bd, _)| bd <= d);
        best.insert(at, (d, i));
        best.truncate(NEAREST);
    }
    best.into_iter().map(|(_, i)| i).collect()
}

/// Index-backed linking queries. Each answers for `self.tables` as the
/// index first saw them — see the note on [`SchemaView`].
impl SchemaView {
    /// The token classes of `ident`, memoized when the view (or the view it
    /// was derived from) displays or natively names it.
    pub(crate) fn token_classes(&self, ident: &str) -> Cow<'_, [TokenClass]> {
        let memo = self.index.classes(&self.tables);
        match memo.position(ident) {
            Some(i) => {
                Cow::Borrowed(&memo.values[i].get_or_init(|| classify_identifier(ident))[..])
            }
            None => Cow::Owned(classify_identifier(ident).into_vec()),
        }
    }

    /// The displayed identifiers of one kind nearest to `displayed`,
    /// memoized when `displayed` is itself a displayed name of that kind.
    pub(crate) fn nearest_distractors(&self, displayed: &str, is_table: bool) -> Nearest<'_> {
        let pool = if is_table {
            self.index
                .tables
                .get_or_init(|| Memo::new(self.tables.iter().map(|t| t.displayed.as_str())))
        } else {
            self.index.columns.get_or_init(|| {
                Memo::new(self.tables.iter().flat_map(|t| &t.columns).map(|c| c.displayed.as_str()))
            })
        };
        let picks = match pool.position(displayed) {
            Some(i) => {
                Cow::Borrowed(&pool.values[i].get_or_init(|| rank(&pool.names, displayed))[..])
            }
            None => Cow::Owned(rank(&pool.names, displayed).into_vec()),
        };
        Nearest { names: &pool.names, picks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linking::{classify_token, probability_from_classes, ORGANIC_EXPONENT};
    use crate::model::ModelConfig;
    use crate::schema_view::ViewColumn;
    use crate::workflows::Workflow;
    use snails_data::{build_database, DATABASE_NAMES};
    use snails_lexicon::edit::levenshtein;
    use snails_lexicon::split_identifier;
    use snails_naturalness::category::SchemaVariant;

    /// The per-call `link_probability` the token-class memo replaced, for
    /// each of `models`. Its tokens are split and classified once for all
    /// models; each model's log-sum accumulates in token order, as before.
    fn reference_probabilities(
        models: &[ModelConfig],
        displayed: &str,
        schema_columns: usize,
        organic: bool,
    ) -> Vec<f64> {
        let tokens = split_identifier(displayed);
        let classes: Vec<TokenClass> = tokens.iter().map(|t| classify_token(&t.text)).collect();
        models
            .iter()
            .map(|model| {
                if tokens.is_empty() {
                    return 0.0;
                }
                let mut log_sum = 0.0;
                for &class in &classes {
                    let p = model.decode_prob(class);
                    log_sum += p.max(1e-6).ln();
                }
                let mut geo_mean = (log_sum / tokens.len() as f64).exp();
                if organic {
                    geo_mean = geo_mean.powf(ORGANIC_EXPONENT);
                }
                let size = (schema_columns.max(1) as f64 / 40.0).ln().max(0.0) / (40.0f64).ln();
                let factor = 1.0 - model.distraction * size.min(1.0);
                (geo_mean * factor).clamp(0.0, 1.0)
            })
            .collect()
    }

    /// The per-call candidate list `pick_distractor` drew from before the
    /// distractor memo, with the allocating case-insensitive distance.
    fn reference_nearest(view: &SchemaView, displayed: &str, is_table: bool) -> Vec<String> {
        let mut candidates: Vec<&str> = if is_table {
            view.tables
                .iter()
                .map(|t| t.displayed.as_str())
                .filter(|d| !d.eq_ignore_ascii_case(displayed))
                .collect()
        } else {
            view.tables
                .iter()
                .flat_map(|t| &t.columns)
                .map(|c| c.displayed.as_str())
                .filter(|d| !d.eq_ignore_ascii_case(displayed))
                .collect()
        };
        candidates.sort_unstable();
        candidates.dedup();
        // `sort_by_cached_key` is stable, like the `sort_by_key` it stands
        // in for, and computes each distance once.
        candidates.sort_by_cached_key(|c| {
            levenshtein(&c.to_ascii_lowercase(), &displayed.to_ascii_lowercase())
        });
        candidates.truncate(NEAREST);
        candidates.into_iter().map(str::to_owned).collect()
    }

    fn indexed_nearest(view: &SchemaView, displayed: &str, is_table: bool) -> Vec<String> {
        let n = view.nearest_distractors(displayed, is_table);
        (0..n.len()).map(|i| n.get(i).to_owned()).collect()
    }

    /// Compare the index with the reference on one view: probabilities of
    /// every displayed identifier under every workflow's model,
    /// native lookups of every table and column, rankings of every table and
    /// of about `rankings` columns spread over the view, and all three for
    /// each `extra` string (names the view does not display take the
    /// unmemoized path).
    fn assert_matches_reference(view: &SchemaView, rankings: usize, extra: &[&str]) {
        let models: Vec<ModelConfig> = Workflow::all().iter().map(|w| w.model_config()).collect();
        let columns = view.column_count();
        let organic = view.variant == SchemaVariant::Native;
        let at = |ident: &str| format!("{} {:?} {ident:?}", view.database, view.variant);
        let check_probability = |ident: &str| {
            let want = reference_probabilities(&models, ident, columns, organic);
            for (m, want) in models.iter().zip(want) {
                let got = probability_from_classes(m, &view.token_classes(ident), columns, organic);
                assert_eq!(got.to_bits(), want.to_bits(), "{} {}", at(ident), m.name);
            }
        };
        let check_nearest = |ident: &str, is_table: bool| {
            let want = reference_nearest(view, ident, is_table);
            assert_eq!(indexed_nearest(view, ident, is_table), want, "{} {is_table}", at(ident));
        };
        // The linear scans the lookup replaced: first match in table order.
        let mut first_table = std::collections::HashMap::new();
        for t in &view.tables {
            first_table.entry(t.native.to_ascii_uppercase()).or_insert(t as *const ViewTable);
        }
        let mut first_column = std::collections::HashMap::new();
        for c in view.tables.iter().flat_map(|t| &t.columns) {
            first_column.entry(c.native.to_ascii_uppercase()).or_insert(c as *const ViewColumn);
        }
        let check_lookup = |native: &str| {
            let key = native.to_ascii_uppercase();
            let table = view.table_by_native(native).map(|t| t as *const ViewTable);
            assert_eq!(table, first_table.get(&key).copied(), "{}", at(native));
            let column = view.column_by_native(native).map(|c| c as *const ViewColumn);
            assert_eq!(column, first_column.get(&key).copied(), "{}", at(native));
        };
        for t in &view.tables {
            check_probability(&t.displayed);
            check_nearest(&t.displayed, true);
            check_lookup(&t.native.to_ascii_lowercase());
        }
        let stride = (columns / rankings.max(1)).max(1);
        for (i, c) in view.tables.iter().flat_map(|t| &t.columns).enumerate() {
            check_probability(&c.displayed);
            check_lookup(&c.native);
            if i % stride == 0 {
                check_nearest(&c.displayed, false);
            }
        }
        for s in extra {
            check_probability(s);
            check_lookup(s);
            check_nearest(s, true);
            check_nearest(s, false);
        }
    }

    /// Every view of the grid, and a restricted view of each that drops two
    /// thirds of its tables (the DIN-SQL/CodeS shape).
    fn check_all_views(rankings: usize) {
        for name in DATABASE_NAMES {
            let db = build_database(name);
            for variant in SchemaVariant::ALL {
                let view = SchemaView::new(&db, variant);
                assert_matches_reference(&view, rankings, &["", "zz_not_shown", "id"]);
                let kept: Vec<String> =
                    view.tables.iter().step_by(3).map(|t| t.displayed.clone()).collect();
                let restricted = view.restricted_to(&kept);
                let dropped: Vec<&str> = view
                    .tables
                    .iter()
                    .skip(1)
                    .step_by(3)
                    .flat_map(|t| {
                        let columns = t.columns.iter().map(|c| c.native.as_str());
                        std::iter::once(t.native.as_str()).chain(columns)
                    })
                    .take(20)
                    .collect();
                assert_matches_reference(&restricted, rankings, &dropped);
            }
        }
    }

    #[test]
    fn index_matches_per_call_reference_on_every_view() {
        // Debug builds rank a spread of each view's columns; the
        // release-only test below ranks every one.
        check_all_views(60);
    }

    #[test]
    #[ignore = "ranks every column of every view; run with --release -- --ignored"]
    fn index_matches_per_call_reference_on_every_column() {
        check_all_views(usize::MAX);
    }

    #[test]
    fn rankings_are_built_once_per_view_and_identifier() {
        use snails_obs::{ClockMode, ObsCtx};
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Least);
        let ctx = Arc::new(ObsCtx::new(ClockMode::Sim));
        let builds = || ctx.registry.counter(Metric::LlmLinkIndexDistractorBuilds);
        let _scope = snails_obs::scope(&ctx);
        let column = view.tables[0].columns[0].displayed.clone();
        view.nearest_distractors(&column, false);
        view.nearest_distractors(&column, false);
        assert_eq!(builds(), 1, "the second ranking is served from the memo");
        view.nearest_distractors(&column, true);
        assert_eq!(builds(), 2, "tables and columns rank separately");
        view.nearest_distractors("zz_not_shown", false);
        view.nearest_distractors("zz_not_shown", false);
        assert_eq!(builds(), 4, "names outside the pool are ranked per call");
        let clone = view.clone();
        clone.nearest_distractors(&column, false);
        assert_eq!(builds(), 5, "a clone ranks over its own pool");
    }
}
