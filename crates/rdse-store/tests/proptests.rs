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
//! 4. **Replay decode** — [`ArchivedRecord::from_body`], which decodes
//!    a body in one pass without building any `Value` tree, accepts and
//!    rejects exactly the bodies the tree decode (`Value` →
//!    [`StoreRecord`] → [`ArchivedRecord`]) does, and agrees with it on
//!    every accepted one: writer bodies; the same bodies with their
//!    fields permuted, repeated, dropped, respelled or joined by unknown
//!    ones; and all of these flipped, truncated, spliced or with
//!    whitespace inserted.

use proptest::prelude::*;
use rdse_store::log::{
    encode_archived, encode_record, scan, xxh64, KIND_RESULT, LOG_VERSION, MAGIC,
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

/// The reference decode, `scan`'s before bodies were decoded in one
/// pass: the whole body as a `Value` tree, then a [`StoreRecord`], then
/// the archive's form.
fn tree_decode(body: &[u8]) -> Option<ArchivedRecord> {
    let text = std::str::from_utf8(body).ok()?;
    let value = serde_json::from_str::<Value>(text).ok()?;
    StoreRecord::from_value(&value)
        .ok()
        .map(ArchivedRecord::from)
}

/// The decode `scan` uses.
fn body_decode(body: &[u8]) -> Option<ArchivedRecord> {
    ArchivedRecord::from_body(std::str::from_utf8(body).ok()?).ok()
}

/// One current (version 2) log frame around arbitrary body bytes,
/// checksummed correctly.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&LOG_VERSION.to_be_bytes());
    out.extend_from_slice(&KIND_RESULT.to_be_bytes());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(&xxh64(body).to_be_bytes());
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
            let at = at % (n + 1);
            [&body[..at], &[ws], &body[at..]].concat()
        }
    }
}

/// A body as its top-level `(key, value text)` entries.
type Entries = Vec<(String, String)>;

fn entries_of(body: &[u8]) -> Entries {
    let value: Value = serde_json::from_str(std::str::from_utf8(body).unwrap()).unwrap();
    let Value::Map(entries) = value else {
        panic!("a writer body is an object");
    };
    entries
        .into_iter()
        .map(|(k, v)| (k, serde_json::to_string(&v).unwrap()))
        .collect()
}

fn render(entries: &Entries) -> Vec<u8> {
    let fields: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("{}:{v}", serde_json::to_string(k).unwrap()))
        .collect();
    format!("{{{}}}", fields.join(",")).into_bytes()
}

/// Spellings of a `u64` field: every form the tree decode accepts
/// (`1e3`, `1000.0`, `-0`, leading zeros, `u64::MAX`) and near misses it
/// rejects (2^64, negatives, fractions, other types).
const SPELLINGS: [&str; 22] = [
    "1e3",
    "1E+3",
    "1000.0",
    "1000",
    "-0",
    "-0.0",
    "0",
    "00042",
    "4.2e1",
    "9223372036854775807",
    "9223372036854775808",
    "18446744073709551615",
    "0018446744073709551615",
    "1.8446744073709550e19",
    "18446744073709551616",
    "1e20",
    "-1",
    "-9223372036854775808",
    "0.5",
    "null",
    "\"7\"",
    "[7]",
];

/// Values for unknown fields and repeated keys: valid JSON of every
/// kind, and text the JSON rules reject.
const EXTRAS: [&str; 8] = [
    "{\"a\":[1,2.5e3,null,true]}",
    "\"\\u00e9\"",
    "[]",
    "-12",
    "1e400",
    "[1,]",
    "\"\\uD800\"",
    "{\"k\" 1}",
];

/// The `CostBits` axes.
const AXES: [&str; 4] = ["makespan", "clb_area", "reconfig", "contexts"];

/// An edit of a body's fields, made before any byte mutation.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// Shuffle the fields, and the axes of `best` and of every front
    /// member.
    Permute { seed: u64 },
    /// Repeat field `field` before or after itself, with another value:
    /// the other body's, a spelling or an extra.
    Repeat {
        field: usize,
        pick: usize,
        before: bool,
    },
    /// Add an unknown field at `at`.
    Unknown { at: usize, pick: usize },
    /// Spell field `field` another way; for `best` and `front`, one
    /// axis of theirs.
    Respell {
        field: usize,
        axis: usize,
        pick: usize,
    },
    /// Write the first character of field `field`'s key as a `\u`
    /// escape.
    EscapeKey { field: usize },
    /// Drop field `field`.
    Drop { field: usize },
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    (0u32..6, (0usize..64, 0usize..64, any::<u64>())).prop_map(|(kind, (a, b, seed))| match kind {
        0 => Edit::Permute { seed },
        1 => Edit::Repeat {
            field: a,
            pick: b,
            before: seed % 2 == 0,
        },
        2 => Edit::Unknown { at: a, pick: b },
        3 => Edit::Respell {
            field: a,
            axis: seed as usize,
            pick: b,
        },
        4 => Edit::EscapeKey { field: a },
        _ => Edit::Drop { field: a },
    })
}

/// Fisher–Yates over `items`, driven by a SplitMix64 stream from `seed`.
fn shuffle<T>(items: &mut [T], seed: &mut u64) {
    for i in (1..items.len()).rev() {
        *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        items.swap(i, (z ^ (z >> 31)) as usize % (i + 1));
    }
}

/// `text` (a `CostBits` object or an array of them) with its axes in
/// shuffled order.
fn shuffle_axes(text: &str, seed: &mut u64) -> String {
    let mut shuffle_member = |v: Value| match v {
        Value::Map(mut axes) => {
            shuffle(&mut axes, seed);
            Value::Map(axes)
        }
        other => other,
    };
    let value = match serde_json::from_str::<Value>(text) {
        Ok(Value::Seq(members)) => {
            Value::Seq(members.into_iter().map(&mut shuffle_member).collect())
        }
        Ok(member) => shuffle_member(member),
        Err(_) => return text.to_string(),
    };
    serde_json::to_string(&value).unwrap()
}

/// `text` with the number after the first `"axis":` replaced by
/// `spelling`.
fn respell_axis(text: &str, axis: &str, spelling: &str) -> String {
    let key = format!("\"{axis}\":");
    let Some(at) = text.find(&key).map(|i| i + key.len()) else {
        return text.to_string();
    };
    let end = at
        + text[at..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(text.len() - at);
    [&text[..at], spelling, &text[end..]].concat()
}

fn edit(entries: &mut Entries, other: &Entries, e: Edit) {
    let n = entries.len();
    if n == 0 {
        return;
    }
    match e {
        Edit::Permute { mut seed } => {
            shuffle(entries, &mut seed);
            for (k, v) in entries.iter_mut() {
                if k == "best" || k == "front" {
                    *v = shuffle_axes(v, &mut seed);
                }
            }
        }
        Edit::Repeat {
            field,
            pick,
            before,
        } => {
            let i = field % n;
            let key = entries[i].0.clone();
            let value = match pick % 3 {
                0 => other
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map_or_else(|| EXTRAS[0].to_string(), |(_, v)| v.clone()),
                1 => SPELLINGS[pick % SPELLINGS.len()].to_string(),
                _ => EXTRAS[pick % EXTRAS.len()].to_string(),
            };
            entries.insert(if before { i } else { i + 1 }, (key, value));
        }
        Edit::Unknown { at, pick } => {
            let extra = EXTRAS[pick % EXTRAS.len()].to_string();
            entries.insert(at % (n + 1), ("zz_unknown".into(), extra));
        }
        Edit::Respell { field, axis, pick } => {
            let spelling = SPELLINGS[pick % SPELLINGS.len()];
            let (key, value) = &mut entries[field % n];
            *value = match key.as_str() {
                "best" | "front" => respell_axis(value, AXES[axis % AXES.len()], spelling),
                _ => spelling.to_string(),
            };
        }
        Edit::EscapeKey { field } => {
            let key = &mut entries[field % n].0;
            // Keys stay plain in `render`; mark this one for escaping.
            key.insert(0, '\u{0}');
        }
        Edit::Drop { field } => {
            entries.remove(field % n);
        }
    }
}

/// [`render`], but keys marked by [`Edit::EscapeKey`] have their first
/// character written as a `\u` escape.
fn render_escaped(entries: &Entries) -> Vec<u8> {
    let fields: Vec<String> = entries
        .iter()
        .map(|(k, v)| match k.strip_prefix('\u{0}') {
            Some(plain) => {
                let mut chars = plain.chars();
                let first = chars.next().map_or(0, u32::from);
                format!("\"\\u{first:04x}{}\":{v}", chars.as_str())
            }
            None => format!("{}:{v}", serde_json::to_string(k).unwrap()),
        })
        .collect();
    format!("{{{}}}", fields.join(",")).into_bytes()
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
    fn body_decode_agrees_with_the_tree_decode(
        parts in collection::vec(
            (spec_strategy(), 1u64..u64::MAX / 2, 0usize..4, mapping_strategy()),
            2..=2,
        ),
        edits in collection::vec(collection::vec(edit_strategy(), 0..5), 1..6),
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
            let decoded = body_decode(body);
            prop_assert!(decoded.is_some(), "writer body rejected");
            let decoded = decoded.unwrap();
            prop_assert_eq!(Some(decoded.clone()), tree_decode(body));
            prop_assert_eq!(encode_archived(&decoded), frame(body));
            prop_assert_eq!(render(&entries_of(body)), body.clone());
        }

        // Field edits, each list applied to a fresh copy of the first
        // body, then byte mutations on top of the edited bodies.
        let other = entries_of(&bodies[1]);
        let mut cases = Vec::new();
        for list in &edits {
            let mut entries = entries_of(&bodies[0]);
            for e in list {
                edit(&mut entries, &other, *e);
            }
            cases.push((format!("{list:?}"), render_escaped(&entries)));
        }
        for (i, m) in mutations.iter().enumerate() {
            let (label, base) = &cases[i % cases.len()];
            let body = mutate(base, &bodies[1], *m);
            cases.push((format!("{label} then {m:?}"), body));
        }
        for (label, body) in &cases {
            let old = tree_decode(body);
            let new = body_decode(body);
            prop_assert_eq!(
                old.is_some(),
                new.is_some(),
                "{} on {:?}",
                label,
                String::from_utf8_lossy(body)
            );
            prop_assert_eq!(
                old.as_ref().map(ArchivedRecord::to_record),
                new.as_ref().map(ArchivedRecord::to_record),
                "{} on {:?}",
                label,
                String::from_utf8_lossy(body)
            );
            // `scan` decodes the checksummed frame the same way.
            let mut replayed = Vec::new();
            let report = scan(&frame(body), |r| replayed.push(r));
            prop_assert_eq!(replayed.first(), new.as_ref());
            prop_assert_eq!(report.tail.is_some(), new.is_none());
        }
    }
}
