//! Content-addressed keys for archived explorations.
//!
//! A [`StoreKey`] is a stable 128-bit FNV-1a hash over the **resolved**
//! job content — the application DAG's canonical JSON, the
//! architecture's canonical JSON, the canonical objective description
//! and the numeric search knobs (seed, chains, budget). Two jobs share
//! a key iff they would run the identical exploration, however their
//! specs were phrased (a builtin name and the inline JSON it resolves
//! to hash the same resolved models, so they collide on purpose).
//!
//! A [`PairKey`] hashes only the `(app, arch)` prefix of the same
//! stream: it groups archive entries that explored the same models
//! under different knobs, which is what the dominated-hit and
//! warm-start read paths query by.
//!
//! Every field is fed to the hash with a distinct tag and an explicit
//! length prefix, so no concatenation of neighboring fields can alias
//! another spec ("ab" + "c" never hashes like "a" + "bc", and a seed
//! can never masquerade as a chain count).

use serde::{DeError, Deserialize, Serialize, Value};

/// 128-bit FNV-1a offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Incremental 128-bit FNV-1a hasher over tagged, length-prefixed
/// fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Hasher128 {
    state: u128,
}

impl Hasher128 {
    fn new() -> Self {
        Hasher128 {
            state: FNV128_OFFSET,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.state ^= u128::from(*b);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// One string field: tag, big-endian length, bytes.
    fn field_str(&mut self, tag: u8, value: &str) {
        self.write(&[tag]);
        self.write(&(value.len() as u64).to_be_bytes());
        self.write(value.as_bytes());
    }

    /// One numeric field: tag, fixed 8 bytes big-endian.
    fn field_u64(&mut self, tag: u8, value: u64) {
        self.write(&[tag]);
        self.write(&value.to_be_bytes());
    }

    fn digest(&self) -> [u8; 16] {
        self.state.to_be_bytes()
    }
}

/// Plain 128-bit FNV-1a over `bytes` (no tags, no length prefix) — the
/// store's hash, for callers that need a compact, collision-resistant
/// stand-in for a long string.
pub fn fnv1a128(bytes: &[u8]) -> u128 {
    let mut h = Hasher128::new();
    h.write(bytes);
    h.state
}

fn hex(bytes: &[u8; 16]) -> String {
    let mut s = String::with_capacity(32);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn from_hex(s: &str) -> Option<[u8; 16]> {
    if s.len() != 32 || !s.is_ascii() {
        return None;
    }
    let mut out = [0u8; 16];
    for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
        let pair = std::str::from_utf8(chunk).ok()?;
        out[i] = u8::from_str_radix(pair, 16).ok()?;
    }
    Some(out)
}

macro_rules! digest_key {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub [u8; 16]);

        impl $name {
            /// Lowercase 32-character hex rendering (the wire and log
            /// form).
            pub fn hex(&self) -> String {
                hex(&self.0)
            }

            /// Parses the [`hex`](Self::hex) form back.
            pub fn from_hex(s: &str) -> Option<Self> {
                from_hex(s).map($name)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(&self.hex())
            }
        }

        impl Serialize for $name {
            fn to_value(&self) -> Value {
                Value::Str(self.hex())
            }
        }

        impl Deserialize for $name {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match value {
                    Value::Str(s) => Self::from_hex(s).ok_or_else(|| {
                        DeError::msg(format!("'{s}' is not a 32-hex-digit key"))
                    }),
                    other => Err(DeError::msg(format!("expected key string, got {other:?}"))),
                }
            }
        }
    };
}

digest_key! {
    /// Content hash of one resolved exploration: equal keys mean the
    /// identical (app DAG, arch, objective, seed, chains, budget) and
    /// therefore the identical result. Ordered by raw digest bytes —
    /// the deterministic tie-break of every archive query.
    StoreKey
}

digest_key! {
    /// Content hash of a resolved `(app, arch)` pair only — the grouping
    /// key of the dominated-hit and warm-start read paths.
    PairKey
}

/// The resolved content of one exploration, ready to hash.
///
/// `app_json` and `arch_json` must be the canonical JSON of the
/// **resolved** models (after builtin/workload names were expanded),
/// and `objective` the canonical description of the parsed objective —
/// not the raw user spec — so spellings that run the same search get
/// the same key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeySpec<'a> {
    /// Canonical JSON of the resolved application task graph.
    pub app_json: &'a str,
    /// Canonical JSON of the resolved architecture.
    pub arch_json: &'a str,
    /// Canonical objective description.
    pub objective: &'a str,
    /// Master RNG seed.
    pub seed: u64,
    /// Total iteration budget.
    pub iters: u64,
    /// Warm-up iterations.
    pub warmup: u64,
    /// Portfolio chain count.
    pub chains: u64,
    /// Per-chain iterations between exchanges.
    pub exchange_every: u64,
}

/// The search knobs of one exploration: every [`KeySpec`] field after
/// the models, in hash order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchKnobs<'a> {
    /// Canonical objective description.
    pub objective: &'a str,
    /// Master RNG seed.
    pub seed: u64,
    /// Total iteration budget.
    pub iters: u64,
    /// Warm-up iterations.
    pub warmup: u64,
    /// Portfolio chain count.
    pub chains: u64,
    /// Per-chain iterations between exchanges.
    pub exchange_every: u64,
}

/// The key hash state after a [`KeySpec`]'s `(app, arch)` fields: the
/// [`PairKey`] is its digest, and every [`StoreKey`] over the same
/// models continues from it. One pass over the model JSON therefore
/// yields both keys, and a `PairPrefix` kept by value (it is 16 bytes
/// and `Copy`) re-derives them without the models at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairPrefix(Hasher128);

impl PairPrefix {
    /// Hashes the canonical JSON of the resolved models.
    pub fn new(app_json: &str, arch_json: &str) -> Self {
        let mut h = Hasher128::new();
        h.field_str(1, app_json);
        h.field_str(2, arch_json);
        PairPrefix(h)
    }

    /// The `(app, arch)` grouping key.
    pub fn pair(&self) -> PairKey {
        PairKey(self.0.digest())
    }

    /// The full content key of the exploration running `knobs` over
    /// these models.
    pub fn key(&self, knobs: &SearchKnobs<'_>) -> StoreKey {
        let mut h = self.0;
        h.field_str(3, knobs.objective);
        h.field_u64(4, knobs.seed);
        h.field_u64(5, knobs.iters);
        h.field_u64(6, knobs.warmup);
        h.field_u64(7, knobs.chains);
        h.field_u64(8, knobs.exchange_every);
        StoreKey(h.digest())
    }
}

impl<'a> KeySpec<'a> {
    fn prefix(&self) -> PairPrefix {
        PairPrefix::new(self.app_json, self.arch_json)
    }

    fn knobs(&self) -> SearchKnobs<'a> {
        SearchKnobs {
            objective: self.objective,
            seed: self.seed,
            iters: self.iters,
            warmup: self.warmup,
            chains: self.chains,
            exchange_every: self.exchange_every,
        }
    }

    /// The full content key of this exploration.
    pub fn key(&self) -> StoreKey {
        self.prefix().key(&self.knobs())
    }

    /// The `(app, arch)` grouping key — the prefix of [`key`](Self::key)
    /// covering only the models.
    pub fn pair(&self) -> PairKey {
        self.prefix().pair()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> KeySpec<'static> {
        KeySpec {
            app_json: r#"{"tasks":[1,2,3]}"#,
            arch_json: r#"{"clbs":2000}"#,
            objective: "makespan",
            seed: 1,
            iters: 3000,
            warmup: 600,
            chains: 4,
            exchange_every: 250,
        }
    }

    #[test]
    fn equal_specs_hash_equal_and_hex_round_trips() {
        assert_eq!(spec().key(), spec().key());
        assert_eq!(spec().pair(), spec().pair());
        let key = spec().key();
        assert_eq!(StoreKey::from_hex(&key.hex()), Some(key));
        assert_eq!(key.hex().len(), 32);
        assert_eq!(StoreKey::from_hex("zz"), None);
    }

    #[test]
    fn each_field_is_key_relevant_but_only_models_are_pair_relevant() {
        let base = spec();
        let variants = [
            KeySpec {
                objective: "weighted(1, 5, 0.5)",
                ..base
            },
            KeySpec { seed: 2, ..base },
            KeySpec {
                iters: 3001,
                ..base
            },
            KeySpec {
                warmup: 601,
                ..base
            },
            KeySpec { chains: 5, ..base },
            KeySpec {
                exchange_every: 251,
                ..base
            },
        ];
        for variant in variants {
            assert_ne!(variant.key(), base.key(), "{variant:?}");
            assert_eq!(variant.pair(), base.pair(), "{variant:?}");
        }
        let other_app = KeySpec {
            app_json: r#"{"tasks":[1,2,4]}"#,
            ..base
        };
        let other_arch = KeySpec {
            arch_json: r#"{"clbs":2001}"#,
            ..base
        };
        for variant in [other_app, other_arch] {
            assert_ne!(variant.key(), base.key());
            assert_ne!(variant.pair(), base.pair());
        }
    }

    /// Digests captured before keys were derived from a [`PairPrefix`]:
    /// archived logs are addressed by them, so they must never move.
    #[test]
    fn digests_are_pinned() {
        assert_eq!(spec().key().hex(), "2101572e68527782fa5acb82dde494bf");
        assert_eq!(spec().pair().hex(), "3af192932b9240900c5f8f7988d32cf0");
        let prefix = spec().prefix();
        assert_eq!(prefix.key(&spec().knobs()), spec().key());
        assert_eq!(prefix.pair(), spec().pair());
    }

    #[test]
    fn fnv1a128_matches_the_reference_vectors() {
        // The published 128-bit FNV-1a test vectors.
        assert_eq!(fnv1a128(b""), FNV128_OFFSET);
        assert_eq!(fnv1a128(b"a"), 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
    }

    #[test]
    fn length_prefixes_prevent_field_aliasing() {
        let a = KeySpec {
            app_json: "ab",
            arch_json: "c",
            ..spec()
        };
        let b = KeySpec {
            app_json: "a",
            arch_json: "bc",
            ..spec()
        };
        assert_ne!(a.pair(), b.pair());
        assert_ne!(a.key(), b.key());
    }
}
