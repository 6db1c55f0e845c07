//! One grid cell or `Ask` request, rebuilt from the layers' public calls.
//!
//! This is the composition `snails_core::pipeline` performs internally,
//! spelled out call by call so the traced replay can put a span around each
//! layer. The replay's records must equal the pipeline's, which the
//! workloads check, so this file cannot drift from the program silently.

use crate::trace::Tracer;
use snails_core::measures::QueryMeasures;
use snails_core::QueryRecord;
use snails_data::{GoldPair, SnailsDatabase};
use snails_engine::{ExecOptions, PlanCache, ResultSet};
use snails_eval::{audit_semantics, match_result_sets, query_linking};
use snails_llm::faults::FailureKind;
use snails_llm::resilience::CellPlan;
use snails_llm::{run_workflow, SchemaView, Workflow};
use snails_sql::{extract_identifiers, parse, IdentifierMap, QueryIdentifiers};
use std::collections::BTreeSet;

/// Counts taken at the layer boundaries of a replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// `PlanCache::plan` calls.
    pub plan_calls: u64,
    /// Of those, cache hits.
    pub plan_hits: u64,
    /// Plan or execute calls that returned an engine error.
    pub exec_errors: u64,
    /// Of those, budget exhaustion under the guarded limits.
    pub exec_exhausted: u64,
    /// `denaturalize_query` calls.
    pub denat_calls: u64,
    /// Of those, outputs that did not parse.
    pub denat_unparsed: u64,
}

/// The gold query's identifiers and (trusted, unguarded) result.
pub struct Gold {
    /// Identifiers of the gold statement.
    pub ids: QueryIdentifiers,
    /// Its result set, when it executes.
    pub result: Option<ResultSet>,
}

/// Gold context: parse, extract identifiers, and run the gold SQL.
pub fn gold(t: &mut Tracer, id: u64, db: &SnailsDatabase, pair: &GoldPair) -> Gold {
    t.time("core.gold", id, || {
        let stmt = parse(&pair.sql).expect("gold SQL parses");
        Gold {
            ids: extract_identifiers(&stmt),
            result: snails_engine::run_sql(&db.db, &pair.sql).ok(),
        }
    })
}

/// Per-query naturalness measures at the view's variant.
pub fn measures(
    t: &mut Tracer,
    id: u64,
    db: &SnailsDatabase,
    view: &SchemaView,
    g: &Gold,
) -> QueryMeasures {
    t.time("core.measures", id, || {
        snails_core::measures::query_measures(db, view.variant, &g.ids)
    })
}

/// The per-(database, variant) context: schema view and denaturalization map.
pub fn context(
    t: &mut Tracer,
    id: u64,
    db: &SnailsDatabase,
    variant: snails_naturalness::category::SchemaVariant,
) -> (SchemaView, IdentifierMap) {
    t.time("llm.context", id, || {
        (
            SchemaView::new(db, variant),
            snails_llm::middleware::denaturalization_map(db, variant),
        )
    })
}

/// Everything one cell needs that is shared with other cells.
pub struct Cell<'a> {
    /// The database.
    pub db: &'a SnailsDatabase,
    /// The schema view at the cell's variant.
    pub view: &'a SchemaView,
    /// Display → native identifier map at that variant.
    pub denat: &'a IdentifierMap,
    /// The question.
    pub pair: &'a GoldPair,
    /// Its gold context.
    pub gold: &'a Gold,
    /// Its measures at the variant.
    pub measures: &'a QueryMeasures,
    /// The plan cache predicted queries go through.
    pub plans: &'a PlanCache,
    /// Options (budgets) predicted queries run under.
    pub opts: ExecOptions,
    /// Inference seed.
    pub seed: u64,
}

/// Evaluate one workflow on one cell. Returns the record and, when the cell
/// reached execution, the denaturalized SQL it executed.
pub fn evaluate(
    t: &mut Tracer,
    id: u64,
    workflow: Workflow,
    cell: &Cell<'_>,
    n: &mut Counters,
) -> (QueryRecord, Option<String>) {
    let Cell {
        db,
        view,
        denat,
        pair,
        gold,
        measures,
        plans,
        opts,
        seed,
    } = *cell;
    let result = t.time("llm.infer", id, || {
        run_workflow(workflow, db, view, pair, seed)
    });
    let mut record = QueryRecord {
        workflow: result.workflow,
        database: db.spec.name.to_owned(),
        variant: view.variant,
        question_id: pair.id,
        parse_ok: false,
        set_matched: false,
        exec_correct: false,
        linking: None,
        subset: result
            .subset
            .as_ref()
            .map(|s| (s.recall(), s.precision(), s.f1())),
        gold_ids: gold.ids.all(),
        pred_ids: BTreeSet::new(),
        measures: *measures,
        failure: None,
        attempts: CellPlan::clean(0).attempts,
    };

    n.denat_calls += 1;
    let denat_result = t.time("sql.denat", id, || {
        snails_sql::denaturalize_query(&result.inference.raw_sql, denat)
    });
    let Ok(native_sql) = denat_result else {
        n.denat_unparsed += 1;
        return (record, None);
    };
    record.parse_ok = true;

    t.time("eval.link", id, || {
        let stmt = parse(&native_sql).expect("denaturalization preserves parseability");
        let predicted = extract_identifiers(&stmt);
        record.pred_ids = predicted.all();
        record.linking = Some(query_linking(&gold.ids, &predicted));
    });

    let Some(gold_rs) = &gold.result else {
        return (record, None);
    };
    n.plan_calls += 1;
    let hits = plans.hits();
    let plan = t.time("engine.plan", id, || plans.plan(&db.db, &native_sql));
    n.plan_hits += plans.hits() - hits;
    let executed = match plan {
        Ok(plan) => t.time("engine.exec", id, || plan.execute(&db.db, opts)),
        Err(e) => Err(e),
    };
    let predicted_rs = match executed {
        Ok(rs) => rs,
        Err(e) => {
            n.exec_errors += 1;
            if e.is_resource_exhausted() {
                n.exec_exhausted += 1;
                record.failure = Some(FailureKind::ResourceExhausted);
            }
            return (record, Some(native_sql));
        }
    };
    t.time("eval.match", id, || {
        if match_result_sets(gold_rs, &predicted_rs).is_match() {
            record.set_matched = true;
            record.exec_correct = audit_semantics(&pair.sql, &native_sql);
        }
    });
    (record, Some(native_sql))
}
