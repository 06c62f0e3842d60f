//! A generic, incrementally maintained Pareto archive.
//!
//! Every exploration surface of the tool reports trade-off fronts —
//! per-chain annealing archives, the `rdse sweep` grid, architecture
//! co-exploration, the scenario corpus. They all share this one
//! implementation, so "non-dominated" means the same thing everywhere
//! and the domination loop exists exactly once.

use crate::cost::Cost;

/// Strict Pareto dominance between points of the same type.
///
/// `a.dominates(b)` means `a` is at least as good on **every**
/// objective and strictly better on at least one (all objectives
/// minimized). Equal points do not dominate each other.
///
/// Every [`Cost`] gets this for free via its
/// [`objective`](Cost::objective) axes; non-cost report types (e.g. a
/// sweep grid point) can implement it directly.
pub trait Dominance {
    /// Whether `self` strictly Pareto-dominates `other`.
    fn dominates(&self, other: &Self) -> bool;
}

impl<C: Cost> Dominance for C {
    fn dominates(&self, other: &Self) -> bool {
        let n = self.n_objectives();
        debug_assert_eq!(n, other.n_objectives(), "comparable costs share axes");
        let mut strict = false;
        for i in 0..n {
            let (a, b) = (self.objective(i), other.objective(i));
            if a > b {
                return false;
            }
            if a < b {
                strict = true;
            }
        }
        strict
    }
}

/// An incrementally maintained set of mutually non-dominated points.
///
/// [`insert`](ParetoFront::insert) is the only way in: a candidate
/// dominated by (or equal to) a member is rejected, and an accepted
/// candidate evicts every member it dominates. The archive therefore
/// holds the exact Pareto front of everything ever offered to it,
/// independent of insertion order (set-wise; the internal order is
/// first-insertion order and [`sorted_members`](ParetoFront::sorted_members)
/// provides a canonical view for reports).
///
/// # Examples
///
/// ```
/// use rdse_anneal::ParetoFront;
///
/// // f64 implements Cost: a one-objective front keeps only the minimum.
/// let mut front = ParetoFront::new();
/// for c in [3.0f64, 1.0, 2.0, 1.0] {
///     front.insert(c);
/// }
/// assert_eq!(front.members(), &[1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoFront<P> {
    members: Vec<P>,
}

impl<P> Default for ParetoFront<P> {
    fn default() -> Self {
        ParetoFront {
            members: Vec::new(),
        }
    }
}

impl<P: Dominance + PartialEq> ParetoFront<P> {
    /// An empty front.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers `point` to the archive. Returns `true` if it entered
    /// (evicting any members it dominates), `false` if a member
    /// dominates or equals it.
    pub fn insert(&mut self, point: P) -> bool {
        // Newest-first scan: annealing walks offer near-neighbours of
        // recent members, so a dominating member (the common rejection)
        // is found fastest from the back.
        if self
            .members
            .iter()
            .rev()
            .any(|m| m.dominates(&point) || *m == point)
        {
            return false;
        }
        self.members.retain(|m| !point.dominates(m));
        self.members.push(point);
        true
    }

    /// Merges every member of `other` into this front.
    pub fn merge(&mut self, other: &ParetoFront<P>)
    where
        P: Clone,
    {
        for m in &other.members {
            self.insert(m.clone());
        }
    }

    /// Whether `point` is a member (exact equality).
    pub fn contains(&self, point: &P) -> bool {
        self.members.contains(point)
    }

    /// The members, in first-insertion order.
    pub fn members(&self) -> &[P] {
        &self.members
    }

    /// The members sorted by a caller-supplied total order — the
    /// canonical view for reports and golden snapshots (insertion order
    /// is an implementation detail).
    pub fn sorted_members(&self, mut cmp: impl FnMut(&P, &P) -> std::cmp::Ordering) -> Vec<P>
    where
        P: Clone,
    {
        let mut out = self.members.clone();
        out.sort_by(&mut cmp);
        out
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the front is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Iterates over the members in first-insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, P> {
        self.members.iter()
    }
}

impl<'a, P> IntoIterator for &'a ParetoFront<P> {
    type Item = &'a P;
    type IntoIter = std::slice::Iter<'a, P>;

    fn into_iter(self) -> Self::IntoIter {
        self.members.iter()
    }
}

/// Fast non-dominated sorting (NSGA-II): assigns every point its
/// Pareto rank.
///
/// Rank 0 is the set of points dominated by nothing (the Pareto front
/// of the input); rank `r + 1` is the front of what remains after
/// removing ranks `0..=r`. Duplicates share a rank (equal points never
/// dominate each other). Ranks are a property of the point *values*,
/// so the result is independent of input order: permuting the input
/// permutes the output identically.
///
/// Runs in O(n²) dominance checks — the classic Deb et al. bound,
/// fine for the population sizes a GA generation produces.
///
/// # Examples
///
/// ```
/// use rdse_anneal::non_dominated_rank;
///
/// // f64 is a one-objective Cost: rank = order of distinct values.
/// assert_eq!(non_dominated_rank(&[3.0f64, 1.0, 2.0, 1.0]), vec![2, 0, 1, 0]);
/// ```
pub fn non_dominated_rank<P: Dominance>(points: &[P]) -> Vec<usize> {
    let n = points.len();
    let mut n_dominators = vec![0usize; n];
    let mut dominated: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if points[i].dominates(&points[j]) {
                dominated[i].push(j);
                n_dominators[j] += 1;
            } else if points[j].dominates(&points[i]) {
                dominated[j].push(i);
                n_dominators[i] += 1;
            }
        }
    }
    let mut rank = vec![0usize; n];
    let mut current: Vec<usize> = (0..n).filter(|&i| n_dominators[i] == 0).collect();
    let mut r = 0usize;
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            rank[i] = r;
            for &j in &dominated[i] {
                n_dominators[j] -= 1;
                if n_dominators[j] == 0 {
                    next.push(j);
                }
            }
        }
        current = next;
        r += 1;
    }
    rank
}

/// NSGA-II crowding distance of each point within one rank class.
///
/// Per objective the points are sorted (ties broken by input index, so
/// the result is deterministic) and each interior point accumulates
/// the normalized span of its neighbours; the two boundary points of
/// every axis get `f64::INFINITY`, which keeps objective-extremal
/// solutions alive through crowded-tournament selection. Classes of
/// one or two points are all-infinite by convention.
///
/// The input should be a single rank class (see
/// [`non_dominated_rank`]); mixing ranks yields distances that are
/// meaningless for selection.
pub fn crowding_distance<C: Cost>(points: &[C]) -> Vec<f64> {
    let n = points.len();
    if n <= 2 {
        return vec![f64::INFINITY; n];
    }
    let n_obj = points[0].n_objectives();
    let mut dist = vec![0.0f64; n];
    let mut order: Vec<usize> = (0..n).collect();
    for m in 0..n_obj {
        order.sort_by(|&a, &b| {
            points[a]
                .objective(m)
                .total_cmp(&points[b].objective(m))
                .then(a.cmp(&b))
        });
        dist[order[0]] = f64::INFINITY;
        dist[order[n - 1]] = f64::INFINITY;
        #[cfg(rdse_fault = "crowding_open_upper_boundary")]
        {
            dist[order[n - 1]] = 0.0;
        }
        let span = points[order[n - 1]].objective(m) - points[order[0]].objective(m);
        if span <= 0.0 {
            continue;
        }
        for k in 1..n - 1 {
            dist[order[k]] +=
                (points[order[k + 1]].objective(m) - points[order[k - 1]].objective(m)) / span;
        }
    }
    dist
}

/// Exact hypervolume of `points` with respect to a reference point
/// (all objectives minimized; the reference bounds the dominated
/// region from above).
///
/// Uses the WFG-style inclusion–exclusion recursion: each point
/// contributes the volume of its box to the reference minus the
/// hypervolume of the *later* points clamped into that box. Exact and
/// dependency-free, with worst-case exponential time in the number of
/// points — intended for the small fronts (tens of points) the
/// explorers produce, where it is effectively instant.
///
/// Points at or beyond the reference on any axis contribute nothing.
/// Returns `0.0` for an empty set.
///
/// # Panics
///
/// Panics if `reference.len()` differs from a point's
/// [`n_objectives`](Cost::n_objectives).
pub fn hypervolume<C: Cost>(points: &[C], reference: &[f64]) -> f64 {
    let rows: Vec<Vec<f64>> = points
        .iter()
        .map(|p| {
            assert_eq!(
                p.n_objectives(),
                reference.len(),
                "reference point must match the objective count"
            );
            (0..p.n_objectives()).map(|i| p.objective(i)).collect()
        })
        .collect();
    hv_recurse(&rows, reference)
}

fn hv_recurse(rows: &[Vec<f64>], reference: &[f64]) -> f64 {
    let mut total = 0.0;
    for (k, s) in rows.iter().enumerate() {
        let vol: f64 = s
            .iter()
            .zip(reference)
            .map(|(&a, &r)| (r - a).max(0.0))
            .product();
        if vol <= 0.0 {
            continue;
        }
        // Later points, worsened to the corner of `s` (their overlap
        // with s's box), minus anything dominated after clamping.
        let mut limited: Vec<Vec<f64>> = Vec::with_capacity(rows.len() - k - 1);
        for q in &rows[k + 1..] {
            let clamped: Vec<f64> = q.iter().zip(s).map(|(&qv, &sv)| qv.max(sv)).collect();
            let redundant = limited
                .iter()
                .any(|m: &Vec<f64>| m.iter().zip(&clamped).all(|(a, b)| a <= b));
            if !redundant {
                limited.retain(|m| !clamped.iter().zip(m).all(|(a, b)| a <= b));
                limited.push(clamped);
            }
        }
        total += vol - hv_recurse(&limited, reference);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct P2(f64, f64);

    impl Cost for P2 {
        fn n_objectives(&self) -> usize {
            2
        }
        fn objective(&self, i: usize) -> f64 {
            [self.0, self.1][i]
        }
    }

    #[test]
    fn insert_keeps_only_non_dominated() {
        let mut f = ParetoFront::new();
        assert!(f.insert(P2(3.0, 1.0)));
        assert!(f.insert(P2(1.0, 3.0)));
        // Dominated by (3,1): rejected.
        assert!(!f.insert(P2(4.0, 2.0)));
        // Dominates (3,1): evicts it.
        assert!(f.insert(P2(2.0, 1.0)));
        assert_eq!(f.len(), 2);
        assert!(f.contains(&P2(1.0, 3.0)));
        assert!(f.contains(&P2(2.0, 1.0)));
        assert!(!f.contains(&P2(3.0, 1.0)));
    }

    #[test]
    fn duplicates_enter_once() {
        let mut f = ParetoFront::new();
        assert!(f.insert(P2(1.0, 2.0)));
        assert!(!f.insert(P2(1.0, 2.0)));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn incomparable_points_coexist() {
        let mut f = ParetoFront::new();
        f.insert(P2(1.0, 5.0));
        f.insert(P2(5.0, 1.0));
        f.insert(P2(3.0, 3.0));
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn merge_is_a_bulk_insert() {
        let mut a = ParetoFront::new();
        a.insert(P2(1.0, 4.0));
        a.insert(P2(4.0, 1.0));
        let mut b = ParetoFront::new();
        b.insert(P2(0.5, 4.5)); // incomparable with (1,4)
        b.insert(P2(3.0, 0.5)); // dominates (4,1)
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert!(!a.contains(&P2(4.0, 1.0)));
    }

    #[test]
    fn sorted_members_is_canonical() {
        let mut f = ParetoFront::new();
        f.insert(P2(5.0, 1.0));
        f.insert(P2(1.0, 5.0));
        let sorted = f.sorted_members(|a, b| a.0.total_cmp(&b.0));
        assert_eq!(sorted, vec![P2(1.0, 5.0), P2(5.0, 1.0)]);
    }

    #[test]
    fn rank_layers_peel_successive_fronts() {
        // Front 0: (1,4), (4,1). Front 1: (2,5), (5,2). Front 2: (6,6).
        let pts = [
            P2(2.0, 5.0),
            P2(1.0, 4.0),
            P2(6.0, 6.0),
            P2(4.0, 1.0),
            P2(5.0, 2.0),
        ];
        assert_eq!(non_dominated_rank(&pts), vec![1, 0, 2, 0, 1]);
    }

    #[test]
    fn equal_points_share_a_rank() {
        let pts = [P2(1.0, 1.0), P2(1.0, 1.0), P2(2.0, 2.0)];
        assert_eq!(non_dominated_rank(&pts), vec![0, 0, 1]);
    }

    #[test]
    fn crowding_marks_boundaries_infinite() {
        let pts = [
            P2(1.0, 5.0),
            P2(2.0, 4.0),
            P2(3.0, 3.0),
            P2(4.0, 2.0),
            P2(5.0, 1.0),
        ];
        let d = crowding_distance(&pts);
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[4], f64::INFINITY);
        // Interior points on an evenly spaced front share one finite
        // distance: (gap left + gap right) / span, per axis.
        assert!(d[1].is_finite() && d[2].is_finite() && d[3].is_finite());
        assert_eq!(d[1].to_bits(), d[2].to_bits());
        assert_eq!(d[2].to_bits(), d[3].to_bits());
    }

    #[test]
    fn tiny_classes_are_all_infinite() {
        assert!(crowding_distance::<P2>(&[]).is_empty());
        assert_eq!(crowding_distance(&[P2(1.0, 2.0)]), vec![f64::INFINITY]);
        let two = crowding_distance(&[P2(1.0, 2.0), P2(2.0, 1.0)]);
        assert_eq!(two, vec![f64::INFINITY, f64::INFINITY]);
    }

    #[test]
    fn hypervolume_of_rectangles() {
        // One point: a plain box.
        assert_eq!(hypervolume(&[P2(1.0, 1.0)], &[3.0, 3.0]), 4.0);
        // Two incomparable points: union of boxes minus the overlap.
        // (1,2) -> 2x1 = 2; (2,1) -> 1x2 = 2; overlap (2,2) -> 1.
        let hv = hypervolume(&[P2(1.0, 2.0), P2(2.0, 1.0)], &[3.0, 3.0]);
        assert!((hv - 3.0).abs() < 1e-12, "hv = {hv}");
        // A dominated point adds nothing; beyond-reference adds nothing.
        let hv2 = hypervolume(
            &[P2(1.0, 2.0), P2(2.0, 1.0), P2(2.5, 2.5), P2(4.0, 0.0)],
            &[3.0, 3.0],
        );
        assert!((hv2 - 3.0).abs() < 1e-12, "hv2 = {hv2}");
        // Empty set: zero.
        assert_eq!(hypervolume::<P2>(&[], &[3.0, 3.0]), 0.0);
    }

    #[test]
    fn hypervolume_is_monotone_under_improvement() {
        let base = [P2(2.0, 2.0)];
        let better = [P2(1.0, 1.0)];
        let r = [5.0, 5.0];
        assert!(hypervolume(&better, &r) > hypervolume(&base, &r));
    }
}
