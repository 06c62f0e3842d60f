//! Span recorder of the traced runs.
//!
//! Spans are opened and closed around calls into the program's public
//! functions, from the benchmark's own code. They nest on a stack; when
//! a span closes, its duration is added to its kind's total and to its
//! parent's child time, so a kind's self time is its total minus the
//! time its children covered. Only these per-kind sums are kept in
//! memory — a run records millions of spans — and they are read out
//! when the run ends.

use std::time::Instant;

/// The span kinds the traced runs record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// One chain segment (`Annealer::run_segment`).
    Segment,
    /// A move proposal (`propose_pair_move` / `propose_impl_move`).
    Propose,
    /// `Evaluator::evaluate_delta` on a proposed move.
    Delta,
    /// `Evaluator::revert_delta` on a rejected move.
    Revert,
    /// `MoveDelta::undo` on a rejected or infeasible move.
    Undo,
    /// A best-solution snapshot.
    Snapshot,
    /// A snapshot restore (exchange adoption, chain finish).
    Restore,
}

const KINDS: usize = 7;

/// Accumulated time of one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    /// Closed spans.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration of direct children.
    pub child_ns: u64,
}

impl SpanStats {
    /// Mean duration per span, in ns (0 when none closed).
    pub fn mean_ns(&self) -> f64 {
        crate::report::ratio(self.total_ns as f64, self.count as f64)
    }

    /// Summed self time (total minus children), in ns.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

#[derive(Debug, Clone, Copy)]
struct Open {
    kind: Span,
    start: Instant,
}

/// Per-kind span sums plus the stack of open spans.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    stats: [SpanStats; KINDS],
    stack: Vec<Open>,
}

impl Tracer {
    /// Opens a span of `kind`.
    pub fn enter(&mut self, kind: Span) {
        self.stack.push(Open {
            kind,
            start: Instant::now(),
        });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (a benchmark bug).
    pub fn exit(&mut self) {
        let open = self.stack.pop().expect("span closed without being opened");
        let ns = open.start.elapsed().as_nanos() as u64;
        let s = &mut self.stats[open.kind as usize];
        s.count += 1;
        s.total_ns += ns;
        if let Some(parent) = self.stack.last() {
            self.stats[parent.kind as usize].child_ns += ns;
        }
    }

    /// The sums of one kind.
    pub fn stats(&self, kind: Span) -> SpanStats {
        self.stats[kind as usize]
    }

    /// Adds another tracer's sums into this one.
    pub fn merge(&mut self, other: &Tracer) {
        for (a, b) in self.stats.iter_mut().zip(&other.stats) {
            a.count += b.count;
            a.total_ns += b.total_ns;
            a.child_ns += b.child_ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_time_is_charged_to_the_parent() {
        let mut t = Tracer::default();
        t.enter(Span::Segment);
        t.enter(Span::Propose);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        let seg = t.stats(Span::Segment);
        let prop = t.stats(Span::Propose);
        assert_eq!((seg.count, prop.count), (1, 1));
        assert_eq!(seg.child_ns, prop.total_ns);
        assert!(seg.total_ns >= prop.total_ns);
        assert!(prop.total_ns >= 2_000_000);
    }
}
