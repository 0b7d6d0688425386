//! Seal-time column encodings shared by storage and execution.
//!
//! Micro-partitions encode columns when they are sealed: low-cardinality
//! string columns become dictionaries ([`ColumnVec::DictStr`]), repetitive
//! int/bool columns become run-length runs ([`ColumnVec::Runs`]). Storage and
//! execution share the one [`ColumnVec`] type, so the encoded column is at
//! once what the partition file writes (per-block encoding ids in the
//! footer), what the buffer cache holds, and what a scan slices into batches
//! — kernels evaluate filters and group keys directly on dictionary codes.
//!
//! ## Policy
//!
//! Encoding is *encode-if-smaller*: a column is encoded only when the encoded
//! estimate undercuts the plain estimate, so pathological inputs (unique
//! strings, non-repetitive ints) never pay for an encoding that cannot win.
//! The decision is per column per partition, mirroring how Snowflake picks a
//! compression scheme per micro-partition block.
//!
//! ## Control
//!
//! `SNOWDB_ENCODE=0` disables seal-time encoding process-wide (and flips the
//! default execution-side behaviour, see
//! [`QueryOptions::encode`](crate::engine::QueryOptions)); benches and tests
//! can force either mode with [`set_ingest_encoding`] regardless of the
//! environment.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use crate::exec::column::ColumnVec;

/// Sentinel dictionary code marking a NULL row. Dictionaries are bounded by
/// the partition row count, so the sentinel can never collide with a real
/// code.
pub const NULL_CODE: u32 = u32::MAX;

/// Process-wide ingest-encoding override: 0 = follow the environment,
/// 1 = forced off, 2 = forced on.
static INGEST_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Forces seal-time encoding on or off (`None` returns to the
/// `SNOWDB_ENCODE` environment default). Intended for benches and tests that
/// must build both representations inside one process.
pub fn set_ingest_encoding(on: Option<bool>) {
    let v = match on {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    INGEST_OVERRIDE.store(v, Ordering::SeqCst);
}

/// The `SNOWDB_ENCODE` environment default: encoding is on unless the
/// variable spells it off (same convention as `SNOWDB_VECTORIZE`).
pub fn encode_from_env() -> bool {
    !matches!(
        std::env::var("SNOWDB_ENCODE").as_deref(),
        Ok("0") | Ok("false") | Ok("FALSE") | Ok("off") | Ok("OFF")
    )
}

/// Serializes unit tests that flip the process-wide ingest override, so one
/// test's `set_ingest_encoding` cannot change how another test's partition
/// is sealed.
#[cfg(test)]
pub(crate) static INGEST_OVERRIDE_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Whether partitions sealed right now should attempt encoding.
pub fn ingest_encoding_enabled() -> bool {
    match INGEST_OVERRIDE.load(Ordering::SeqCst) {
        1 => false,
        2 => true,
        _ => encode_from_env(),
    }
}

/// Applies the encode-if-smaller policy to one sealed column.
pub(crate) fn encode_column(col: ColumnVec) -> ColumnVec {
    let encoded = match &col {
        ColumnVec::Str(vals) => dict_encode(vals),
        // Runs cost 4 bytes of offset plus the value: 8 bytes for an int,
        // 1 for a bool — against 8 or 1 byte per plain row.
        ColumnVec::Int { .. } => rle_encode(&col, 12, 8),
        ColumnVec::Bool { .. } => rle_encode(&col, 5, 1),
        _ => None,
    };
    encoded.unwrap_or(col)
}

/// Dictionary-encodes a string column in first-appearance order, or `None`
/// when the dictionary would not be smaller than the plain column.
fn dict_encode(vals: &[Option<Arc<str>>]) -> Option<ColumnVec> {
    if vals.len() >= NULL_CODE as usize {
        return None;
    }
    let mut index: HashMap<Arc<str>, u32> = HashMap::new();
    let mut dict: Vec<Arc<str>> = Vec::new();
    let mut codes: Vec<u32> = Vec::with_capacity(vals.len());
    let mut plain_bytes = 0u64;
    for v in vals {
        match v {
            None => {
                plain_bytes += 1;
                codes.push(NULL_CODE);
            }
            Some(s) => {
                plain_bytes += s.len() as u64 + 2;
                let code = match index.get(s) {
                    Some(&c) => c,
                    None => {
                        let c = dict.len() as u32;
                        index.insert(s.clone(), c);
                        dict.push(s.clone());
                        c
                    }
                };
                codes.push(code);
            }
        }
    }
    let dict_bytes: u64 = dict.iter().map(|s| s.len() as u64 + 2).sum();
    let encoded_bytes = codes.len() as u64 * 4 + dict_bytes;
    (encoded_bytes < plain_bytes)
        .then(|| ColumnVec::DictStr { codes, dict: Arc::new(dict) })
}

/// Run-length-encodes a typed int or bool column (NULL is its own run
/// value), or `None` when the runs would not be smaller — `run_bytes` per
/// run against `row_bytes` per plain row — or the column is too long for
/// `u32` offsets.
fn rle_encode(col: &ColumnVec, run_bytes: u64, row_bytes: u64) -> Option<ColumnVec> {
    let rows = col.len();
    if rows >= u32::MAX as usize {
        return None;
    }
    let mut ends: Vec<u32> = Vec::new();
    let mut starts: Vec<usize> = Vec::new();
    for i in 0..rows {
        if i == 0 || col.key_at(i - 1) != col.key_at(i) {
            starts.push(i);
            ends.push(0);
        }
        *ends.last_mut().expect("run exists for every row") = i as u32 + 1;
    }
    if ends.len() as u64 * run_bytes >= rows as u64 * row_bytes {
        return None;
    }
    let mut values = ColumnVec::empty(col.column_type());
    for s in starts {
        values.push_from(col, s);
    }
    Some(ColumnVec::Runs { ends, values: Box::new(values) })
}

/// Index of the run covering row `i` (rows `ends[r-1]..ends[r]` belong to
/// run `r`).
pub(crate) fn run_index(ends: &[u32], i: usize) -> usize {
    ends.partition_point(|&e| e as usize <= i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::estimated_size;
    use crate::variant::Variant;

    fn s(x: &str) -> Option<Arc<str>> {
        Some(Arc::from(x))
    }

    fn int_column(vals: &[Option<i64>]) -> ColumnVec {
        ColumnVec::from_variants(
            vals.iter().map(|v| v.map_or(Variant::Null, Variant::Int)).collect(),
        )
    }

    #[test]
    fn dict_encode_low_cardinality_roundtrips() {
        let vals: Vec<Option<Arc<str>>> = (0..100)
            .map(|i| if i % 7 == 0 { None } else { s(["red", "green", "blue"][i % 3]) })
            .collect();
        let enc = dict_encode(&vals).expect("low cardinality must encode");
        let ColumnVec::DictStr { codes, dict } = &enc else {
            panic!("expected DictStr")
        };
        assert_eq!(codes.len(), 100);
        assert!(dict.len() <= 3);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(enc.get(i), v.clone().map_or(Variant::Null, Variant::Str));
        }
        // Encoded estimate must undercut the plain estimate (satellite: the
        // governor charges what is actually held).
        assert!(estimated_size(&enc) < estimated_size(&ColumnVec::Str(vals)));
    }

    #[test]
    fn dict_encode_declines_high_cardinality() {
        let vals: Vec<Option<Arc<str>>> =
            (0..100).map(|i| s(&format!("unique-value-{i}"))).collect();
        assert!(dict_encode(&vals).is_none());
    }

    #[test]
    fn rle_encode_roundtrips_and_declines() {
        let vals: Vec<Option<i64>> =
            (0..100).map(|i| if i < 50 { Some(1) } else { None }).collect();
        let plain = int_column(&vals);
        let enc = encode_column(plain.clone());
        assert!(matches!(enc, ColumnVec::Runs { .. }), "two runs must encode");
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(enc.get(i), v.map_or(Variant::Null, Variant::Int));
        }
        assert!(estimated_size(&enc) < estimated_size(&plain));

        let unique: Vec<Option<i64>> = (0..100).map(Some).collect();
        assert!(matches!(encode_column(int_column(&unique)), ColumnVec::Int { .. }));

        let bools = ColumnVec::from_variants((0..100).map(|i| Variant::Bool(i < 30)).collect());
        let enc = encode_column(bools);
        assert!(matches!(enc, ColumnVec::Runs { .. }), "two runs must encode");
        assert_eq!(enc.get(29), Variant::Bool(true));
        assert_eq!(enc.get(30), Variant::Bool(false));
    }

    #[test]
    fn run_index_finds_covering_run() {
        let ends = vec![3u32, 5, 9];
        assert_eq!(run_index(&ends, 0), 0);
        assert_eq!(run_index(&ends, 2), 0);
        assert_eq!(run_index(&ends, 3), 1);
        assert_eq!(run_index(&ends, 4), 1);
        assert_eq!(run_index(&ends, 8), 2);
    }

    #[test]
    fn ingest_override_beats_environment() {
        let _guard = INGEST_OVERRIDE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_ingest_encoding(Some(false));
        assert!(!ingest_encoding_enabled());
        set_ingest_encoding(Some(true));
        assert!(ingest_encoding_enabled());
        set_ingest_encoding(None);
        assert_eq!(ingest_encoding_enabled(), encode_from_env());
    }
}
