#![warn(missing_docs)]

//! # snails-engine
//!
//! An in-memory relational engine — the MS SQL Server substitute for the
//! SNAILS benchmark. The paper executes gold and predicted queries against
//! SQL Server instances of nine real-world databases and compares result
//! sets; this crate provides the same service for the synthetic SNAILS
//! database instances generated by `snails-data`.
//!
//! Supported surface (everything the 503 gold queries and the simulated
//! models emit — the Table 3 clause inventory):
//!
//! * `SELECT [TOP n] [DISTINCT] items FROM src [JOIN ... ON ...]*`
//! * `WHERE` / `GROUP BY` / `HAVING` / `ORDER BY ... [DESC]`
//! * inner / left / right / cross joins, composite-key `ON` predicates
//! * aggregates `COUNT(*/expr/DISTINCT expr)`, `SUM`, `AVG`, `MIN`, `MAX`
//! * scalar functions `YEAR`, `UPPER`, `LOWER`, `LEN`, `ABS`, `ROUND`
//! * correlated and uncorrelated subqueries: scalar, `IN`, `EXISTS`
//! * derived tables, aliases, schema-qualified names, `CREATE VIEW`
//!   (natural views, §6 / appendix H)
//!
//! Every runtime caller — gold queries, predicted queries, the CLI, the
//! server — executes through one path: [`run_sql`] / [`PlanCache::run`]
//! lower the statement into a [`CompiledPlan`] and run it on the
//! vectorized, cost-planned executor ([`crate::vector`],
//! [`crate::optimize`]), with the row-at-a-time plan runner as its scalar
//! fallback. The AST interpreter ([`interpret_sql`] / [`execute_with`]) is
//! the differential oracle: the equivalence tests and the `snails bench`
//! baselines compare every plan result, error, and budget-exhaustion point
//! against it, and nothing else calls it.

pub mod batch;
pub mod catalog;
pub mod error;
pub mod exec;
pub mod optimize;
pub mod plan;
pub mod result;
pub mod stats;
pub mod value;
pub mod vector;

pub use catalog::{Column, Database, Table, TableSchema, ViewDef};
pub use error::EngineError;
pub use exec::{
    adaptive_batch_size, apply_ddl, execute_with, ExecLimits, ExecOptions, MAX_BATCH_SIZE,
    MIN_BATCH_SIZE,
};
pub use optimize::{ExplainStep, Explanation};
pub use plan::{compile, CompiledPlan, PlanCache};
pub use stats::{ColumnStats, TableStats};
pub use result::ResultSet;
pub use value::{ArithOp, DataType, HashKey, Value};

/// Parse, compile, and execute `sql` against `db` on the compiled-plan
/// executor with [`ExecOptions::default`] — the runtime path.
pub fn run_sql(db: &Database, sql: &str) -> Result<ResultSet, EngineError> {
    let stmt = snails_sql::parse(sql).map_err(EngineError::from_parse)?;
    compile(db, &stmt)?.execute(db, ExecOptions::default())
}

/// Parse and execute `sql` against `db` on the AST interpreter — the
/// differential oracle that every compiled-plan result is checked against.
pub fn interpret_sql(
    db: &Database,
    sql: &str,
    opts: ExecOptions,
) -> Result<ResultSet, EngineError> {
    let stmt = snails_sql::parse(sql).map_err(EngineError::from_parse)?;
    execute_with(db, &stmt, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_smoke() {
        let mut db = Database::new("demo");
        db.create_table(
            TableSchema::new("t")
                .column("id", DataType::Int)
                .column("name", DataType::Varchar),
        );
        db.insert("t", vec![Value::Int(1), Value::from("a")]).unwrap();
        db.insert("t", vec![Value::Int(2), Value::from("b")]).unwrap();
        let rs = run_sql(&db, "SELECT name FROM t WHERE id = 2").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("b")]]);
    }

    #[test]
    fn parse_errors_surface() {
        let db = Database::new("demo");
        assert!(matches!(
            run_sql(&db, "SELEC nothing"),
            Err(EngineError::Parse { .. })
        ));
    }
}
