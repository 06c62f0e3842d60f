//! The in-memory archive rebuilt from a replayed log.
//!
//! Three queries, one per read path of the serving layer:
//!
//! 1. [`exact`](Archive::exact) — identical content key → the archived
//!    record, O(1).
//! 2. [`dominating`](Archive::dominating) — same `(app, arch)` pair and
//!    objective with an archived budget ≥ the request's → that record's
//!    front already answers the query, O(pair entries).
//! 3. [`warm_candidate`](Archive::warm_candidate) — the pair's archived
//!    winner scoring best under the request's objective, to seed a new
//!    exploration's chain 0.
//!
//! Every query is deterministic: candidates are examined in ascending
//! [`StoreKey`] byte order and ties keep the smaller key, so the same
//! archive state always answers the same way.
//!
//! Records are held as [`ArchivedRecord`]s, mappings as JSON text: the
//! exact and dominated paths never read the mapping, and a warm start
//! parses just the one it seeds from.

use crate::key::{PairKey, StoreKey};
use crate::record::{ArchivedRecord, CostBits};
use std::collections::HashMap;

/// Keys → latest record, plus a per-pair index for the budget and
/// warm-start queries.
#[derive(Debug, Default)]
pub struct Archive {
    by_key: HashMap<StoreKey, ArchivedRecord>,
    by_pair: HashMap<PairKey, Vec<StoreKey>>,
}

impl Archive {
    /// An empty archive.
    pub fn new() -> Self {
        Archive::default()
    }

    /// Inserts (or, for a repeated key, replaces) one record. Replay
    /// calls this in append order, so the latest append wins — the
    /// same rule compaction applies on disk.
    pub fn insert(&mut self, record: impl Into<ArchivedRecord>) {
        let record = record.into();
        let keys = self.by_pair.entry(record.pair).or_default();
        if let Err(slot) = keys.binary_search(&record.key) {
            keys.insert(slot, record.key);
        }
        self.by_key.insert(record.key, record);
    }

    /// Number of archived explorations (unique keys).
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// `true` when nothing is archived.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Number of distinct `(app, arch)` pairs archived.
    pub fn pairs(&self) -> usize {
        self.by_pair.len()
    }

    /// Read path 1: the archived record with this exact content key.
    pub fn exact(&self, key: &StoreKey) -> Option<&ArchivedRecord> {
        self.by_key.get(key)
    }

    /// Read path 2: an archived record over the same `(app, arch)` pair
    /// and objective whose budget is at least `iters` — its front
    /// answers the request without searching. Among eligible records
    /// the largest budget wins; budget ties keep the smaller key.
    pub fn dominating(
        &self,
        pair: &PairKey,
        objective: &str,
        iters: u64,
    ) -> Option<&ArchivedRecord> {
        // `>= iters + 1` is `> iters`: a request at exactly the archived
        // budget misses.
        #[cfg(rdse_fault = "store_dominating_strict_budget")]
        let iters = iters + 1;
        self.pair_records(pair)
            .filter(|r| r.objective == objective && r.iters >= iters)
            // Ascending key order + strict > keeps the smaller key on
            // budget ties.
            .fold(None, |best: Option<&ArchivedRecord>, r| match best {
                Some(b)
                    if r.iters > b.iters
                        || (cfg!(rdse_fault = "store_dominating_tie_larger_key")
                            && r.iters == b.iters) =>
                {
                    Some(r)
                }
                Some(b) => Some(b),
                None => Some(r),
            })
    }

    /// Read path 3: the pair's archived winner whose cost scores lowest
    /// under `scalar` — the warm-start seed for a fresh exploration.
    /// Score ties keep the smaller key (ascending key order + strict
    /// `<`), so the choice is a pure function of the archive state.
    pub fn warm_candidate(
        &self,
        pair: &PairKey,
        mut scalar: impl FnMut(&CostBits) -> f64,
    ) -> Option<&ArchivedRecord> {
        let mut best: Option<(f64, &ArchivedRecord)> = None;
        for record in self.pair_records(pair) {
            let score = scalar(&record.best);
            let better = best
                .as_ref()
                .is_none_or(|(b, _)| score.total_cmp(b).is_lt());
            if better {
                best = Some((score, record));
            }
        }
        best.map(|(_, r)| r)
    }

    /// All records of one pair, in ascending key order.
    pub fn pair_records(&self, pair: &PairKey) -> impl Iterator<Item = &ArchivedRecord> {
        self.by_pair
            .get(pair)
            .map(Vec::as_slice)
            .unwrap_or_default()
            .iter()
            .map(|k| &self.by_key[k])
    }

    /// Every archived record, in ascending key order (the canonical
    /// compaction order).
    pub fn records(&self) -> impl Iterator<Item = &ArchivedRecord> {
        let mut keys: Vec<&StoreKey> = self.by_key.keys().collect();
        keys.sort_unstable();
        keys.into_iter().map(|k| &self.by_key[k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeySpec;
    use crate::record::StoreRecord;
    use serde::Value;

    fn record(seed: u64, iters: u64, makespan: f64) -> StoreRecord {
        let spec = KeySpec {
            app_json: "app",
            arch_json: "arch",
            objective: "makespan",
            seed,
            iters,
            warmup: iters / 5,
            chains: 2,
            exchange_every: 100,
        };
        StoreRecord {
            key: spec.key(),
            pair: spec.pair(),
            objective: spec.objective.into(),
            seed,
            chains: 2,
            iters,
            warmup: iters / 5,
            exchange_every: 100,
            winner: 0,
            iterations: iters,
            contexts: 2,
            hw_tasks: 3,
            clb_area: 500,
            makespan_bits: makespan.to_bits(),
            best: CostBits::from_values(makespan, 500.0, 10.0, 2.0),
            front: vec![CostBits::from_values(makespan, 500.0, 10.0, 2.0)],
            mapping: Value::Map(vec![]),
        }
    }

    #[test]
    fn exact_and_reinsert_latest_wins() {
        let mut archive = Archive::new();
        let a = record(1, 1000, 90.0);
        archive.insert(a.clone());
        assert_eq!(
            archive.exact(&a.key),
            Some(&ArchivedRecord::from(a.clone()))
        );
        assert_eq!(archive.len(), 1);
        // Same key appended again (e.g. after a re-run): latest wins,
        // no duplicate pair index entry.
        let mut a2 = a.clone();
        a2.makespan_bits = 80.0f64.to_bits();
        archive.insert(a2.clone());
        assert_eq!(archive.exact(&a.key), Some(&ArchivedRecord::from(a2)));
        assert_eq!(archive.len(), 1);
        assert_eq!(archive.pairs(), 1);
    }

    #[test]
    fn dominating_requires_budget_and_objective() {
        let mut archive = Archive::new();
        let small = record(1, 1000, 90.0);
        let big = record(2, 4000, 85.0);
        let pair = small.pair;
        archive.insert(small);
        archive.insert(big.clone());

        // A request within the archived budget is answered by the
        // largest archived budget.
        let hit = archive.dominating(&pair, "makespan", 2000).expect("hit");
        assert_eq!(hit.key, big.key);
        // Over-budget requests and other objectives miss.
        assert!(archive.dominating(&pair, "makespan", 5000).is_none());
        assert!(archive.dominating(&pair, "weighted(1, 2, 3)", 10).is_none());
        // Unknown pairs miss.
        assert!(archive
            .dominating(&PairKey([9; 16]), "makespan", 10)
            .is_none());
    }

    #[test]
    fn dominating_answers_a_request_at_exactly_the_archived_budget() {
        let mut archive = Archive::new();
        let record = record(1, 1000, 90.0);
        let pair = record.pair;
        archive.insert(record.clone());
        let hit = archive.dominating(&pair, "makespan", 1000).expect("hit");
        assert_eq!(hit.key, record.key);
        assert!(archive.dominating(&pair, "makespan", 1001).is_none());
    }

    #[test]
    fn dominating_budget_ties_keep_the_smaller_key() {
        // Equal budgets, keys from different seeds; inserted in both
        // orders so neither arrival order nor key order hides the rule.
        let (a, b) = (record(1, 1000, 90.0), record(2, 1000, 80.0));
        let smaller = a.key.min(b.key);
        for records in [[a.clone(), b.clone()], [b, a]] {
            let mut archive = Archive::new();
            let pair = records[0].pair;
            for r in records {
                archive.insert(r);
            }
            let hit = archive.dominating(&pair, "makespan", 500).expect("hit");
            assert_eq!(hit.key, smaller);
        }
    }

    #[test]
    fn warm_candidate_minimizes_the_scalar_with_key_tie_break() {
        let mut archive = Archive::new();
        let a = record(1, 1000, 90.0);
        let b = record(2, 1000, 80.0);
        let c = record(3, 1000, 80.0);
        let pair = a.pair;
        archive.insert(a);
        archive.insert(b.clone());
        archive.insert(c.clone());

        let winner = archive
            .warm_candidate(&pair, CostBits::makespan_f64)
            .expect("candidate");
        // 80.0 twice: the smaller key of b and c must win, and the
        // answer must be stable across calls.
        let expected = b.key.min(c.key);
        assert_eq!(winner.key, expected);
        let again = archive
            .warm_candidate(&pair, CostBits::makespan_f64)
            .expect("candidate");
        assert_eq!(again.key, expected);
    }
}
