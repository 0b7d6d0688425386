//! Three-way differential test for the ADL benchmark: for every query, the
//! JSONiq interpreter, the automatically translated SQL, and the handwritten
//! SQL baseline must produce identical histograms.

use std::sync::Arc;

use snowq::adl::{self, generator::AdlConfig};
use snowq::jsoniq_core::interp::{DatabaseCollections, Interpreter};
use snowq::jsoniq_core::snowflake::{translate_query, NestedStrategy};
use snowq::snowdb::variant::cmp_variants;
use snowq::snowdb::{Database, Variant};

fn test_db(events: usize) -> Arc<Database> {
    let db = Database::new();
    adl::generator::load_into(
        &db,
        "hep",
        &AdlConfig { events, seed: 1234, partition_rows: 256 },
    );
    Arc::new(db)
}

fn sorted(mut rows: Vec<Variant>) -> Vec<Variant> {
    rows.sort_by(cmp_variants);
    rows
}

fn run_all_three(events: usize, ids: &[&str]) {
    let db = test_db(events);
    for q in adl::queries::queries("hep") {
        if !ids.contains(&q.id) {
            continue;
        }
        // 1. Interpreter (ground truth).
        let provider = DatabaseCollections { db: &db };
        let interp = Interpreter::new(&provider)
            .eval_query(&q.jsoniq)
            .unwrap_or_else(|e| panic!("[{}] interpreter failed: {e}", q.id));

        // 2. Translated SQL (paper-selected strategy).
        let strategy = if q.join_based {
            NestedStrategy::JoinBased
        } else {
            NestedStrategy::FlagColumn
        };
        let df = translate_query(db.clone(), &q.jsoniq, strategy)
            .unwrap_or_else(|e| panic!("[{}] translation failed: {e}", q.id));
        let translated: Vec<Variant> = df
            .collect()
            .unwrap_or_else(|e| panic!("[{}] translated SQL failed: {e}\n{}", q.id, df.sql()))
            .rows
            .into_iter()
            .map(|mut r| r.remove(0))
            .collect();

        // 3. Handwritten SQL.
        let hand: Vec<Variant> = db
            .query(&q.handwritten_sql)
            .unwrap_or_else(|e| panic!("[{}] handwritten SQL failed: {e}", q.id))
            .rows
            .into_iter()
            .map(|mut r| r.remove(0))
            .collect();

        let interp = sorted(interp);
        let translated = sorted(translated);
        let hand = sorted(hand);
        assert_eq!(interp, translated, "[{}] interpreter vs translated", q.id);
        assert_eq!(interp, hand, "[{}] interpreter vs handwritten", q.id);
        assert!(!interp.is_empty(), "[{}] produced an empty histogram", q.id);
    }
}

#[test]
fn q1_three_way() {
    run_all_three(400, &["q1"]);
}

#[test]
fn q2_three_way() {
    run_all_three(400, &["q2"]);
}

#[test]
fn q3_three_way() {
    run_all_three(400, &["q3"]);
}

#[test]
fn q4_three_way() {
    run_all_three(400, &["q4"]);
}

#[test]
fn q5_three_way() {
    run_all_three(400, &["q5"]);
}

#[test]
fn q6_three_way() {
    run_all_three(300, &["q6"]);
}

#[test]
fn q7_three_way() {
    run_all_three(300, &["q7"]);
}

#[test]
fn q8_three_way() {
    run_all_three(300, &["q8"]);
}

#[test]
fn q6_flag_strategy_matches_join_strategy() {
    // Ablation sanity: both nested-query strategies agree on Q6.
    let db = test_db(200);
    let q = adl::queries::q6("hep");
    let run = |s: NestedStrategy| -> Vec<Variant> {
        let df = translate_query(db.clone(), &q.jsoniq, s).unwrap();
        sorted(df.collect().unwrap().rows.into_iter().map(|mut r| r.remove(0)).collect())
    };
    assert_eq!(run(NestedStrategy::FlagColumn), run(NestedStrategy::JoinBased));
}

#[test]
fn q6_stable_across_repeated_runs_and_thread_counts() {
    // Q6 under the JoinBased strategy duplicates a SEQ8()-numbered subquery on
    // both sides of a self-join; the morsel-parallel executor must assign the
    // same row numbers on every run regardless of worker interleaving, or the
    // join keys (and thus the histogram) drift between runs.
    let db = test_db(300);
    let q = adl::queries::q6("hep");
    let run = || -> Vec<Variant> {
        let df = translate_query(db.clone(), &q.jsoniq, NestedStrategy::JoinBased).unwrap();
        sorted(df.collect().unwrap().rows.into_iter().map(|mut r| r.remove(0)).collect())
    };
    db.set_threads(Some(1));
    let serial = run();
    assert!(!serial.is_empty());
    for threads in [1usize, 4, 8] {
        db.set_threads(Some(threads));
        for rep in 0..3 {
            assert_eq!(serial, run(), "drift at threads={threads} rep={rep}");
        }
    }
}

#[test]
fn histogram_counts_match_event_totals() {
    // Q1 counts every event exactly once.
    let db = test_db(500);
    let q = adl::queries::q1("hep");
    let res = db.query(&q.handwritten_sql).unwrap();
    let total: i64 = res
        .rows
        .iter()
        .map(|r| r[0].get_field("count").as_i64().unwrap())
        .sum();
    assert_eq!(total, 500);
}

#[test]
fn generated_q6_builds_its_triplets_once() {
    // The JOIN-based translation repeats the triplet subquery on both sides
    // of its row-id joins; execution spools the shared subtrees, so the
    // triplet aggregate runs once and the table is scanned once.
    let db = test_db(300);
    let q = adl::queries::q6("hep");
    let gen = translate_query(db.clone(), &q.jsoniq, NestedStrategy::JoinBased).unwrap();
    let text = db.explain_analyze(gen.sql()).unwrap();
    let triplets: Vec<&str> =
        text.lines().filter(|l| l.contains("ARRAY_AGG(ObjectConstruct(\"D\"")).collect();
    assert_eq!(triplets.len(), 1, "{text}");
    assert!(!triplets[0].contains("rows=0 "), "{text}");
    assert!(text.contains("Reuse Spool#"), "{text}");

    // ROADMAP item 4's bound: generated bytes scanned ≤ 2× handwritten.
    let g = db.query(gen.sql()).unwrap().profile.scan.bytes_scanned;
    let h = db.query(&q.handwritten_sql).unwrap().profile.scan.bytes_scanned;
    assert!(g > 0 && g <= 2 * h, "generated {g} vs handwritten {h} bytes");
}
