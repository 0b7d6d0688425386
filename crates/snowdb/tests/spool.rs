//! Shared-subplan spools: a subtree repeated in one plan executes once and
//! every reference reads its batches.
//!
//! - A spooled self-join returns exactly what the same query returns when
//!   one side is made structurally distinct (so nothing above the scans is
//!   shared), across threads × vectorized/row × encoded/decoded.
//! - Spool copies are charged to the memory budget, so a tight budget trips
//!   as a typed `ResourceExhausted` at the `Spool` operator.

use std::sync::Arc;

use snowdb::govern::QueryGovernor;
use snowdb::storage::{ColumnDef, ColumnType};
use snowdb::{Database, QueryOptions, SnowError, Variant};

fn db() -> Database {
    let db = Database::new();
    db.load_table_with_partition_rows(
        "t",
        vec![
            ColumnDef::new("ID", ColumnType::Int),
            ColumnDef::new("TAG", ColumnType::Str),
            ColumnDef::new("XS", ColumnType::Variant),
        ],
        (1..=300).map(|i: i64| {
            vec![
                Variant::Int(i),
                Variant::str(["red", "green", "blue"][(i % 3) as usize]),
                Variant::array((0..(i % 5)).map(|k| Variant::Int(k * i)).collect::<Vec<_>>()),
            ]
        }),
        64,
    )
    .unwrap();
    db
}

/// Numbers rows with `SEQ8()`, flattens their arrays and aggregates per row
/// id. `filter` lets one side differ structurally without changing meaning.
fn side(filter: &str) -> String {
    format!(
        "(SELECT RID, TAG, COUNT(*) AS N, SUM(F.VALUE) AS S, ARRAY_AGG(F.VALUE) AS VS \
         FROM (SELECT *, SEQ8() AS RID FROM t{filter}), LATERAL FLATTEN(INPUT => XS) AS F \
         GROUP BY RID, TAG)"
    )
}

fn self_join(right_filter: &str) -> String {
    format!(
        "SELECT a.RID, a.TAG, a.N, a.S, a.VS, b.N, b.S FROM {} a JOIN {} b \
         ON a.RID = b.RID AND a.TAG = b.TAG ORDER BY a.RID",
        side(""),
        side(right_filter)
    )
}

#[test]
fn spooled_self_join_matches_unshared_plan_across_the_lattice() {
    let db = db();
    let shared = self_join("");
    // Every ID is positive, so this filter keeps every row — but it makes
    // the right side's scan and projection differ from the left side's.
    let unshared = self_join(" WHERE ID > -1");
    let plan = db.explain(&shared).unwrap();
    assert_eq!(plan.matches("Spool#1 uses=2").count(), 1, "{plan}");
    assert_eq!(plan.matches("Reuse Spool#1").count(), 1, "{plan}");
    assert!(!plan.contains("Spool#2"), "only the subquery root is spooled: {plan}");
    assert!(!db.explain(&unshared).unwrap().contains("Spool"));

    let mut baseline: Option<Vec<Vec<Variant>>> = None;
    for threads in [1, 2] {
        for vectorize in [true, false] {
            for encode in [true, false] {
                let opts = QueryOptions {
                    optimize: true,
                    threads: Some(threads),
                    vectorize: Some(vectorize),
                    encode: Some(encode),
                };
                let a = db.query_with(&shared, &opts).unwrap();
                let b = db.query_with(&unshared, &opts).unwrap();
                let cfg = format!("threads={threads} vectorize={vectorize} encode={encode}");
                assert_eq!(a.rows, b.rows, "{cfg}");
                // The shared side scans the table once: as many bytes as
                // one side alone.
                let one = db.query_with(&format!("SELECT * FROM {}", side("")), &opts).unwrap();
                assert_eq!(a.profile.scan.bytes_scanned, one.profile.scan.bytes_scanned, "{cfg}");
                assert!(b.profile.scan.bytes_scanned > a.profile.scan.bytes_scanned, "{cfg}");
                match &baseline {
                    None => baseline = Some(a.rows),
                    Some(rows) => assert_eq!(&a.rows, rows, "{cfg}"),
                }
            }
        }
    }
    let rows = baseline.unwrap();
    // 300 rows, a fifth of them with empty arrays; each side counts itself.
    assert_eq!(rows.len(), 240);
    for r in &rows {
        assert_eq!(r[2], r[5]);
        assert_eq!(r[3], r[6]);
    }
}

#[test]
fn spool_copies_trip_a_tight_memory_budget_as_resource_exhausted() {
    let db = db();
    let sql = self_join("");
    let opts = QueryOptions { threads: Some(1), ..QueryOptions::default() };
    let free = Arc::new(QueryGovernor::unbounded());
    db.query_governed(&sql, &opts, free.clone()).unwrap();
    let total = free.summary().memory_charged;
    // Sweep budgets below the query's cumulative charge: every run must end
    // in a typed memory trip, and some budget must run out exactly while the
    // spool copies its batches.
    let mut tripped_at_spool = false;
    for step in 1..100 {
        let limit = total * step / 100;
        let gov = Arc::new(QueryGovernor::unbounded().with_memory_limit(limit));
        let failure = db.query_governed(&sql, &opts, gov).unwrap_err();
        match failure.error {
            SnowError::ResourceExhausted(ref t) => {
                assert_eq!(t.resource, "memory");
                tripped_at_spool |= t.op == "Spool";
            }
            ref other => panic!("limit {limit}: expected ResourceExhausted, got {other:?}"),
        }
    }
    assert!(tripped_at_spool, "no budget below {total} bytes tripped at the spool");
    // The engine stays healthy: an unbounded rerun succeeds.
    assert_eq!(db.query(&sql).unwrap().rows.len(), 240);
}
