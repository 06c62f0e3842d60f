//! Property tests for the store's two foundations:
//!
//! 1. **Key stability** — equal resolved specs hash to equal keys, and
//!    flipping any single field yields a different key (with the pair
//!    key changing iff a model field changed).
//! 2. **AOF round-trip** — appending N records and replaying the bytes
//!    rebuilds an archive identical to the in-memory one, fronts
//!    bit-identical.
//! 3. **Frame bytes** — holding a record's mapping as text changes no
//!    byte of its log frame, and a log written from plain
//!    [`StoreRecord`]s replays to the very same records.
//! 4. **Replay decode** — [`ArchivedRecord::from_body`], which slices
//!    the mapping's text out of the body, accepts and rejects exactly the
//!    bodies the tree decode (`Value` → [`StoreRecord`] →
//!    [`ArchivedRecord`]) does, and agrees with it on every accepted one:
//!    writer bodies, and the same bodies flipped, truncated, spliced or
//!    with whitespace inserted into the mapping.

use proptest::prelude::*;
use rdse_store::log::{
    encode_archived, encode_record, fnv1a64, scan, KIND_RESULT, LOG_VERSION, MAGIC,
};
use rdse_store::{Archive, ArchivedRecord, CostBits, KeySpec, StoreRecord};
use serde::{Deserialize, Value};
use std::collections::HashMap;

/// The owned form of a [`KeySpec`], easy to generate and perturb.
#[derive(Debug, Clone, PartialEq)]
struct OwnedSpec {
    app_json: String,
    arch_json: String,
    objective: String,
    seed: u64,
    iters: u64,
    warmup: u64,
    chains: u64,
    exchange_every: u64,
}

impl OwnedSpec {
    fn as_key_spec(&self) -> KeySpec<'_> {
        KeySpec {
            app_json: &self.app_json,
            arch_json: &self.arch_json,
            objective: &self.objective,
            seed: self.seed,
            iters: self.iters,
            warmup: self.warmup,
            chains: self.chains,
            exchange_every: self.exchange_every,
        }
    }
}

const OBJECTIVES: [&str; 3] = ["makespan", "weighted(1, 5, 0.5)", "lexi(makespan, area)"];

fn spec_strategy() -> impl Strategy<Value = OwnedSpec> {
    (
        (0u64..1000, 0u64..1000, 0usize..OBJECTIVES.len()),
        (0u64..u64::MAX / 2, 1u64..1_000_000, 0u64..100_000),
        (1u64..64, 0u64..10_000),
    )
        .prop_map(
            |((app_tag, arch_tag, obj_pick), (seed, iters, warmup), (chains, exchange_every))| {
                OwnedSpec {
                    app_json: format!(r#"{{"tasks":[{app_tag}]}}"#),
                    arch_json: format!(r#"{{"clbs":{arch_tag}}}"#),
                    objective: OBJECTIVES[obj_pick].to_string(),
                    seed,
                    iters,
                    warmup,
                    chains,
                    exchange_every,
                }
            },
        )
}

fn record_for(spec: &OwnedSpec, makespan_bits: u64, front_len: usize) -> StoreRecord {
    let ks = spec.as_key_spec();
    let front = (0..front_len.max(1))
        .map(|i| CostBits {
            makespan: makespan_bits.wrapping_add(i as u64),
            clb_area: (500.0 + i as f64).to_bits(),
            reconfig: (7.25 * (i + 1) as f64).to_bits(),
            contexts: (i as f64 + 1.0).to_bits(),
        })
        .collect::<Vec<_>>();
    StoreRecord {
        key: ks.key(),
        pair: ks.pair(),
        objective: spec.objective.clone(),
        seed: spec.seed,
        chains: spec.chains,
        iters: spec.iters,
        warmup: spec.warmup,
        exchange_every: spec.exchange_every,
        winner: spec.seed % spec.chains,
        iterations: spec.iters,
        contexts: 2,
        hw_tasks: 5,
        clb_area: 800,
        makespan_bits,
        best: front[0],
        front,
        mapping: Value::Map(vec![(
            "placement".into(),
            Value::Seq(vec![Value::I64(spec.seed as i64 % 97)]),
        )]),
    }
}

/// Mapping-shaped values: per-task placements as externally tagged
/// enums over indices, per-processor orders, and now and then a string
/// that needs escaping.
fn mapping_strategy() -> impl Strategy<Value = Value> {
    collection::vec((0u32..4, 0i64..64, 0i64..8), 0..40).prop_map(|tasks| {
        let placement = tasks
            .iter()
            .map(|&(kind, a, b)| match kind {
                0 => Value::Map(vec![(
                    "Software".into(),
                    Value::Map(vec![("processor".into(), Value::I64(b))]),
                )]),
                1 => Value::Map(vec![(
                    "Hardware".into(),
                    Value::Map(vec![
                        ("drlc".into(), Value::I64(b)),
                        ("context".into(), Value::I64(a)),
                        ("impl_idx".into(), Value::I64(b % 3)),
                    ]),
                )]),
                2 => Value::Map(vec![("Asic".into(), Value::I64(a))]),
                _ => Value::Str(format!("t{a}\"\n\u{1}é😀")),
            })
            .collect();
        let orders = tasks.iter().map(|&(_, a, _)| Value::I64(a)).collect();
        Value::Map(vec![
            ("placement".into(), Value::Seq(placement)),
            ("proc_orders".into(), Value::Seq(vec![Value::Seq(orders)])),
        ])
    })
}

/// The decode `scan` used before bodies were decoded with a raw
/// mapping field: the whole body as a `Value` tree, then a
/// [`StoreRecord`], then the archive's form.
fn tree_decode(body: &[u8]) -> Option<ArchivedRecord> {
    let text = std::str::from_utf8(body).ok()?;
    let value = serde_json::from_str::<Value>(text).ok()?;
    StoreRecord::from_value(&value)
        .ok()
        .map(ArchivedRecord::from)
}

/// The decode `scan` uses now.
fn raw_decode(body: &[u8]) -> Option<ArchivedRecord> {
    ArchivedRecord::from_body(std::str::from_utf8(body).ok()?).ok()
}

/// One log frame around arbitrary body bytes, checksummed correctly.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&LOG_VERSION.to_be_bytes());
    out.extend_from_slice(&KIND_RESULT.to_be_bytes());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(&fnv1a64(body).to_be_bytes());
    out.extend_from_slice(body);
    out
}

/// How a writer body is damaged before both decodes see it.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    None,
    /// XOR the byte at `at` with `mask`.
    Flip {
        at: usize,
        mask: u8,
    },
    /// Keep only the first `at` bytes.
    Truncate {
        at: usize,
    },
    /// Copy `len` bytes from `from` in at `at`.
    Splice {
        from: usize,
        len: usize,
        at: usize,
    },
    /// This body up to `at`, then the other body from `from`.
    Graft {
        at: usize,
        from: usize,
    },
    /// Insert `ws` (a JSON whitespace byte) at `at` inside the mapping.
    Whitespace {
        at: usize,
        ws: u8,
    },
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    (
        0u32..6,
        (0usize..1 << 20, 0usize..1 << 20, 0usize..1 << 20),
        1u8..=255,
    )
        .prop_map(|(kind, (a, b, c), mask)| match kind {
            0 => Mutation::None,
            1 => Mutation::Flip { at: a, mask },
            2 => Mutation::Truncate { at: a },
            3 => Mutation::Splice {
                from: a,
                len: b % 64,
                at: c,
            },
            4 => Mutation::Graft { at: a, from: b },
            _ => Mutation::Whitespace {
                at: a,
                ws: b" \t\n\r"[mask as usize % 4],
            },
        })
}

fn mutate(body: &[u8], other: &[u8], m: Mutation) -> Vec<u8> {
    let n = body.len();
    match m {
        Mutation::None => body.to_vec(),
        Mutation::Flip { at, mask } => {
            let mut out = body.to_vec();
            out[at % n] ^= mask;
            out
        }
        Mutation::Truncate { at } => body[..at % n].to_vec(),
        Mutation::Splice { from, len, at } => {
            let from = from % n;
            let chunk = &body[from..(from + len).min(n)];
            let at = at % (n + 1);
            [&body[..at], chunk, &body[at..]].concat()
        }
        Mutation::Graft { at, from } => {
            [&body[..at % (n + 1)], &other[from % (other.len() + 1)..]].concat()
        }
        Mutation::Whitespace { at, ws } => {
            // The mapping is the body's last field: from after its key
            // to before the body's closing brace.
            let key = b"\"mapping\":";
            let start = body
                .windows(key.len())
                .rposition(|w| w == key)
                .expect("writer bodies carry a mapping")
                + key.len();
            let at = start + at % (n - start);
            [&body[..at], &[ws], &body[at..]].concat()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn equal_specs_give_equal_keys_and_any_field_flip_changes_the_key(
        spec in spec_strategy(),
        bump in 1u64..1_000,
    ) {
        let base = spec.as_key_spec();
        prop_assert_eq!(spec.clone().as_key_spec().key(), base.key());
        prop_assert_eq!(spec.clone().as_key_spec().pair(), base.pair());

        // Flip each field in turn; every flip must change the full
        // key, and exactly the model flips must change the pair key.
        let mut flips: Vec<(OwnedSpec, bool)> = Vec::new();
        let mut flip = |f: &dyn Fn(&mut OwnedSpec), model: bool| {
            let mut s = spec.clone();
            f(&mut s);
            flips.push((s, model));
        };
        flip(&|s| s.app_json.push(' '), true);
        flip(&|s| s.arch_json.push(' '), true);
        flip(&|s| s.objective.push('!'), false);
        flip(&|s| s.seed = s.seed.wrapping_add(bump), false);
        flip(&|s| s.iters = s.iters.wrapping_add(bump), false);
        flip(&|s| s.warmup = s.warmup.wrapping_add(bump), false);
        flip(&|s| s.chains = s.chains.wrapping_add(bump), false);
        flip(&|s| s.exchange_every = s.exchange_every.wrapping_add(bump), false);
        for (flipped, is_model_field) in &flips {
            prop_assert_ne!(flipped.as_key_spec().key(), base.key());
            prop_assert_eq!(flipped.as_key_spec().pair() != base.pair(), *is_model_field);
        }
    }

    #[test]
    fn append_n_then_replay_rebuilds_the_identical_archive(
        specs in collection::vec((spec_strategy(), 1u64..u64::MAX / 2, 0usize..4), 1..12),
    ) {
        // Build the log bytes and the reference archive in one pass.
        let mut log = Vec::new();
        let mut reference = Archive::new();
        for (spec, raw_bits, front_len) in &specs {
            let record = record_for(spec, *raw_bits, *front_len);
            log.extend_from_slice(&encode_record(&record));
            reference.insert(record);
        }

        // Replay the bytes into a fresh archive.
        let mut replayed = Archive::new();
        let report = scan(&log, |r| replayed.insert(r));
        prop_assert_eq!(report.records, specs.len());
        prop_assert!(report.tail.is_none(), "{:?}", report.tail);
        prop_assert_eq!(report.bytes, log.len() as u64);

        // Replay ≡ in-memory: same size, and every record — fronts
        // included — bit-identical.
        prop_assert_eq!(replayed.len(), reference.len());
        prop_assert_eq!(replayed.pairs(), reference.pairs());
        for original in reference.records() {
            let got = replayed.exact(&original.key);
            prop_assert_eq!(got, Some(original));
        }
    }

    #[test]
    fn text_held_mappings_keep_frames_byte_identical(
        specs in collection::vec(
            (spec_strategy(), 1u64..u64::MAX / 2, 0usize..4, mapping_strategy()),
            1..12,
        ),
    ) {
        // `encode_record` over plain records is the writer every log
        // version so far has used.
        let mut log = Vec::new();
        let mut originals: HashMap<_, StoreRecord> = HashMap::new();
        for (spec, raw_bits, front_len, mapping) in &specs {
            let record = StoreRecord {
                mapping: mapping.clone(),
                ..record_for(spec, *raw_bits, *front_len)
            };
            let frame = encode_record(&record);
            let archived = ArchivedRecord::from(record.clone());
            prop_assert_eq!(archived.to_record(), record.clone());
            prop_assert_eq!(encode_record(&archived.to_record()), frame.clone());
            prop_assert_eq!(encode_archived(&archived), frame.clone());
            log.extend_from_slice(&frame);
            originals.insert(record.key, record);
        }

        let mut replayed = Archive::new();
        let report = scan(&log, |r| replayed.insert(r));
        prop_assert_eq!(report.records, specs.len());
        prop_assert_eq!(replayed.len(), originals.len());
        for (key, original) in &originals {
            let got = replayed.exact(key).map(ArchivedRecord::to_record);
            prop_assert_eq!(got.as_ref(), Some(original));
        }
    }

    #[test]
    fn raw_field_decode_agrees_with_the_tree_decode(
        parts in collection::vec(
            (spec_strategy(), 1u64..u64::MAX / 2, 0usize..4, mapping_strategy()),
            2..=2,
        ),
        mutations in collection::vec(mutation_strategy(), 1..8),
    ) {
        let bodies: Vec<Vec<u8>> = parts
            .iter()
            .map(|(spec, raw_bits, front_len, mapping)| {
                let record = StoreRecord {
                    mapping: mapping.clone(),
                    ..record_for(spec, *raw_bits, *front_len)
                };
                encode_record(&record)[rdse_store::log::RECORD_HEADER_LEN..].to_vec()
            })
            .collect();

        // Writer bodies: both decodes accept, and the archived record
        // re-encodes to the very frame it was read from.
        for body in &bodies {
            let decoded = raw_decode(body);
            prop_assert!(decoded.is_some(), "writer body rejected");
            let decoded = decoded.unwrap();
            prop_assert_eq!(Some(decoded.clone()), tree_decode(body));
            prop_assert_eq!(encode_archived(&decoded), frame(body));
        }

        for m in &mutations {
            let body = mutate(&bodies[0], &bodies[1], *m);
            let old = tree_decode(&body);
            let new = raw_decode(&body);
            prop_assert_eq!(
                old.is_some(),
                new.is_some(),
                "{:?} on {:?}",
                m,
                String::from_utf8_lossy(&body)
            );
            prop_assert_eq!(
                old.as_ref().map(ArchivedRecord::to_record),
                new.as_ref().map(ArchivedRecord::to_record)
            );
            // `scan` decodes the checksummed frame the same way.
            let mut replayed = Vec::new();
            let report = scan(&frame(&body), |r| replayed.push(r));
            prop_assert_eq!(replayed.first(), new.as_ref());
            prop_assert_eq!(report.tail.is_some(), new.is_none());
        }
    }
}
