//! End-to-end fault-tolerance contract (PR 2 acceptance criteria).
//!
//! Under an active fault profile the full benchmark grid must complete with
//! zero process aborts: every injected timeout, rate limit, corrupted
//! completion, and panic either retries to success or lands as a
//! `QueryRecord` carrying a `FailureKind` — and the whole run stays
//! bit-identical across thread counts and identical to a faultless build
//! when the profile is `none`.

use snails::prelude::*;

fn base_config(threads: usize, profile: FaultProfile) -> BenchmarkConfig {
    BenchmarkConfig {
        seed: 2024,
        databases: vec!["CWO".into(), "KIS".into()],
        variants: SchemaVariant::ALL.to_vec(),
        workflows: Workflow::all(),
        threads: Some(threads),
        fault_profile: profile,
        ..BenchmarkConfig::default()
    }
}

#[test]
fn flaky_grid_is_bit_identical_across_thread_counts() {
    let baseline = run_benchmark(&base_config(1, FaultProfile::FLAKY));
    assert_eq!(baseline.faults.cells, baseline.records.len(), "no aborted cells");
    for threads in [2, 8] {
        let run = run_benchmark(&base_config(threads, FaultProfile::FLAKY));
        assert_eq!(run.records.len(), baseline.records.len(), "threads = {threads}");
        for (i, (a, b)) in baseline.records.iter().zip(&run.records).enumerate() {
            assert_eq!(a, b, "record {i} diverged at threads = {threads}");
        }
        assert_eq!(run.faults, baseline.faults, "threads = {threads}");
    }
}

#[test]
fn none_profile_reproduces_the_faultless_records() {
    // `--fault-profile none` must be byte-identical to a run that predates
    // the fault layer: no retries, no failures, attempts pinned at 1, and
    // the evaluation outcomes untouched.
    let run = run_benchmark(&base_config(2, FaultProfile::NONE));
    assert_eq!(run.faults.retries, 0);
    assert_eq!(run.faults.breaker_trips, 0);
    assert_eq!(run.faults.total_failures(), 0);
    for r in &run.records {
        assert_eq!(r.failure, None);
        assert_eq!(r.attempts, 1);
    }
}

#[test]
fn flaky_failures_surface_as_records_not_aborts() {
    // The full two-database grid (40+25 questions × 4 variants × 6
    // workflows = 1560 cells) is large enough that the flaky preset
    // reliably produces retries and at least one terminal failure — and
    // every one of them must be a record, not a crash.
    let run = run_benchmark(&base_config(4, FaultProfile::FLAKY));
    assert_eq!(run.faults.cells, run.records.len());
    assert!(run.faults.retries > 0, "flaky grid produced no retries");
    let failed: Vec<_> = run.records.iter().filter(|r| r.failure.is_some()).collect();
    assert_eq!(failed.len() as u64, run.faults.total_failures());
    for r in &failed {
        // Terminal transport failures look like parse failures downstream
        // (excluded from linking, incorrect execution), per the paper's
        // handling of unusable generations.
        if matches!(
            r.failure,
            Some(FailureKind::Timeout)
                | Some(FailureKind::RateLimit)
                | Some(FailureKind::CircuitOpen)
                | Some(FailureKind::Panic)
        ) {
            assert!(!r.parse_ok);
            assert!(!r.exec_correct);
        }
    }
    // Clean-but-retried cells keep their normal evaluation.
    assert!(run
        .records
        .iter()
        .any(|r| r.failure.is_none() && r.attempts > 1));
}

#[test]
fn hostile_profile_trips_breakers_and_still_completes() {
    let run = run_benchmark(&base_config(4, FaultProfile::HOSTILE));
    assert_eq!(run.faults.cells, run.records.len(), "no aborted cells");
    assert!(run.faults.breaker_trips > 0, "hostile grid tripped no breakers");
    assert!(
        run.records
            .iter()
            .any(|r| r.failure == Some(FailureKind::CircuitOpen)),
        "tripped breakers produced no skipped cells"
    );
    // Degradation is graceful: a hostile transport hurts but does not
    // zero out the benchmark.
    assert!(BenchmarkRun::exec_accuracy(&run.records) > 0.05);
}

#[test]
fn injected_panics_are_isolated_into_panic_records() {
    // The hostile preset panics at 2% per attempt; over 1560 cells the
    // expected count is ≈30, so absence would indicate broken isolation
    // (or a panic escaping and killing the test — the real regression).
    let run = run_benchmark(&base_config(8, FaultProfile::HOSTILE));
    let panics = run
        .records
        .iter()
        .filter(|r| r.failure == Some(FailureKind::Panic))
        .count();
    assert!(panics > 0, "hostile grid produced no isolated panic records");
}

#[test]
fn cross_join_bomb_is_contained_as_resource_exhausted() {
    // Engine budgets, end to end: a hostile "prediction" whose cross join
    // explodes must come back as an error under guarded limits, not hang —
    // on the path predictions take (a compiled plan from a `PlanCache`).
    let db = build_database("NTSB");
    let big = db
        .db
        .tables()
        .max_by_key(|t| t.rows.len())
        .expect("NTSB has tables");
    let name = &big.schema.name;
    assert!(big.rows.len() >= 100, "need a non-trivial table for the bomb");
    let bomb = format!(
        "SELECT COUNT(*) FROM {name} AS a CROSS JOIN {name} AS b \
         CROSS JOIN {name} AS c CROSS JOIN {name} AS d"
    );
    let guarded = snails::engine::PlanCache::new().run(
        &db.db,
        &bomb,
        snails::engine::ExecOptions { limits: ExecLimits::guarded(), ..Default::default() },
    );
    match guarded {
        Err(e) => assert!(e.is_resource_exhausted(), "unexpected error: {e}"),
        Ok(_) => panic!("cross-join bomb completed under guarded limits"),
    }
}

#[test]
fn hostile_telemetry_reconciles_with_fault_summary() {
    // The resilience layer is counted twice, independently: `FaultSummary`
    // aggregates the planner's `CellPlan`s after the run, while the
    // telemetry counters are recorded live inside `plan_cell`. The two
    // accounting paths must agree exactly.
    let config = BenchmarkConfig { telemetry: true, ..base_config(4, FaultProfile::HOSTILE) };
    let run = run_benchmark(&config);
    let report = run.telemetry.as_ref().expect("telemetry was enabled");
    assert_eq!(report.counter("llm.cells.planned"), run.faults.cells as u64);
    assert_eq!(report.counter("llm.resilience.attempts"), run.faults.attempts);
    assert_eq!(report.counter("llm.resilience.retries"), run.faults.retries);
    assert_eq!(report.counter("llm.breaker.trips"), run.faults.breaker_trips);
    // Breaker-gated cells are exactly the circuit-open failure records.
    let circuit_open = run
        .records
        .iter()
        .filter(|r| r.failure == Some(FailureKind::CircuitOpen))
        .count() as u64;
    assert_eq!(report.counter("llm.cells.skipped"), circuit_open);
    // Retries waited: a hostile grid cannot have zero backoff.
    assert!(report.counter("llm.resilience.backoff_ms") > 0);
    // Fault draws are per attempt, failure records per cell, so the draw
    // counters bound the record counts from above.
    let panic_records = run
        .records
        .iter()
        .filter(|r| r.failure == Some(FailureKind::Panic))
        .count() as u64;
    assert!(report.counter("llm.faults.panic") >= panic_records);

    // The deterministic telemetry section stays byte-identical across
    // thread counts even with faults, retries, and isolated panics.
    let det = report.deterministic_json();
    for threads in [1usize, 8] {
        let config =
            BenchmarkConfig { telemetry: true, ..base_config(threads, FaultProfile::HOSTILE) };
        let report = run_benchmark(&config).telemetry.expect("telemetry was enabled");
        assert_eq!(report.deterministic_json(), det, "threads = {threads}");
    }
}
