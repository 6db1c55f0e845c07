//! Hash join ⇔ nested loop equivalence.
//!
//! The hash join claims to be *order-identical* to the nested loop — a
//! stronger property than row-multiset equality — because downstream
//! benchmark records must be bit-identical regardless of execution options.
//! The property test drives both executors over random table contents,
//! join kinds, and `ON` predicates (pure equi, composite, computed keys,
//! constant conjuncts, non-equi and mixed predicates that must fall back),
//! with NULL keys mixed in everywhere.

use proptest::prelude::*;
use snails_engine::{interpret_sql, DataType, Database, ExecOptions, TableSchema, Value};

/// (key, group, id) rows; `key` is nullable to exercise NULL-key semantics.
type Rows = Vec<(Option<i64>, i64)>;

fn build_db(left: &Rows, right: &Rows) -> Database {
    let mut db = Database::new("prop");
    for name in ["l", "r"] {
        db.create_table(
            TableSchema::new(name)
                .column("k", DataType::Int)
                .column("g", DataType::Int)
                .column("id", DataType::Int),
        );
    }
    for (name, rows) in [("l", left), ("r", right)] {
        for (id, (k, g)) in rows.iter().enumerate() {
            let key = k.map_or(Value::Null, Value::Int);
            db.insert(name, vec![key, Value::Int(*g), Value::Int(id as i64)])
                .expect("insert");
        }
    }
    db
}

/// `ON` predicates covering every path: the hash-eligible shapes (single,
/// composite, computed, and constant-conjunct equi keys) and the shapes
/// that must fall back to the nested loop (non-equi, mixed, disjunction).
const PREDICATES: &[&str] = &[
    "l.k = r.k",
    "l.k = r.k AND l.g = r.g",
    "l.k = r.k AND l.g + 1 = r.g",
    "l.g = r.g AND r.k = 2",
    "l.k < r.k",
    "l.k = r.k AND l.g < r.g",
    "l.k = r.k OR l.g = r.g",
];

const KINDS: &[&str] = &["JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"];

fn rows_strategy() -> impl Strategy<Value = Rows> {
    // Small key domains force collisions (multi-row hash buckets) and
    // misses; ~1 in 5 keys is NULL.
    proptest::collection::vec((proptest::option::of(0i64..4), 0i64..3), 0..14)
}

fn both_ways(db: &Database, sql: &str) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let hash = interpret_sql(db, sql, ExecOptions { hash_join: true, ..Default::default() })
        .unwrap_or_else(|e| panic!("hash exec failed: {e:?} for {sql}"));
    let nested = interpret_sql(db, sql, ExecOptions { hash_join: false, ..Default::default() })
        .unwrap_or_else(|e| panic!("nested exec failed: {e:?} for {sql}"));
    (hash.rows, nested.rows)
}

proptest! {
    #[test]
    fn hash_join_is_order_identical_to_nested_loop(
        left in rows_strategy(),
        right in rows_strategy(),
        pi in 0usize..PREDICATES.len(),
        ki in 0usize..KINDS.len(),
    ) {
        let db = build_db(&left, &right);
        let sql = format!(
            "SELECT l.id, r.id, l.k, r.k FROM l {} r ON {}",
            KINDS[ki], PREDICATES[pi]
        );
        let (hash, nested) = both_ways(&db, &sql);
        prop_assert_eq!(hash, nested, "{}", sql);
    }

    #[test]
    fn aggregation_over_joins_is_unaffected(
        left in rows_strategy(),
        right in rows_strategy(),
        ki in 0usize..KINDS.len(),
    ) {
        // Typed group keys + hash join feeding GROUP BY / DISTINCT.
        let db = build_db(&left, &right);
        for sql in [
            format!(
                "SELECT l.g, COUNT(*) FROM l {} r ON l.k = r.k GROUP BY l.g ORDER BY l.g",
                KINDS[ki]
            ),
            format!("SELECT DISTINCT l.g, r.g FROM l {} r ON l.k = r.k", KINDS[ki]),
        ] {
            let (hash, nested) = both_ways(&db, &sql);
            prop_assert_eq!(hash, nested, "{}", sql);
        }
    }
}

#[test]
fn null_keys_never_match_each_other() {
    let left = vec![(None, 0), (Some(1), 0)];
    let right = vec![(None, 0), (Some(1), 0), (None, 1)];
    let db = build_db(&left, &right);
    for opts in [
        ExecOptions { hash_join: true, ..Default::default() },
        ExecOptions { hash_join: false, ..Default::default() },
    ] {
        let rs = interpret_sql(&db, "SELECT l.id, r.id FROM l JOIN r ON l.k = r.k", opts)
            .unwrap();
        // Only the 1=1 pairing survives; the NULL keys pair with nothing.
        assert_eq!(rs.rows, vec![vec![Value::Int(1), Value::Int(1)]], "{opts:?}");
    }
}

#[test]
fn null_keyed_rows_still_pad_in_outer_joins() {
    let left = vec![(None, 0)];
    let right = vec![(Some(2), 0)];
    let db = build_db(&left, &right);
    let sql = "SELECT l.id, r.id FROM l FULL JOIN r ON l.k = r.k";
    let (hash, nested) = both_ways(&db, sql);
    assert_eq!(hash, nested);
    // The NULL-keyed left row and the unmatched right row both appear.
    assert_eq!(
        hash,
        vec![
            vec![Value::Int(0), Value::Null],
            vec![Value::Null, Value::Int(0)],
        ]
    );
}

#[test]
fn composite_keys_require_every_component_to_match() {
    let left = vec![(Some(1), 1), (Some(1), 2)];
    let right = vec![(Some(1), 1), (Some(1), 3)];
    let db = build_db(&left, &right);
    let sql = "SELECT l.id, r.id FROM l JOIN r ON l.k = r.k AND l.g = r.g";
    let (hash, nested) = both_ways(&db, sql);
    assert_eq!(hash, nested);
    assert_eq!(hash, vec![vec![Value::Int(0), Value::Int(0)]]);
}

#[test]
fn disabling_hash_join_still_answers_three_way_joins() {
    // Sanity: a query with two join steps gives one answer under both
    // options even when only some steps are hash-eligible.
    let left = vec![(Some(1), 0), (Some(2), 1)];
    let right = vec![(Some(1), 0), (Some(2), 0)];
    let mut db = build_db(&left, &right);
    db.create_table(TableSchema::new("s").column("k", DataType::Int));
    db.insert("s", vec![Value::Int(1)]).unwrap();
    let sql =
        "SELECT l.id, r.id FROM l JOIN r ON l.k = r.k JOIN s ON s.k = l.k AND s.k < r.k + 1";
    let (hash, nested) = both_ways(&db, sql);
    assert_eq!(hash, nested);
    assert_eq!(hash, vec![vec![Value::Int(0), Value::Int(0)]]);
}
