//! Fixed-size bitset rows and matrices.
//!
//! The transitive-closure matrix of the paper (§4.3) is stored as one
//! [`BitRow`] per node; bulk operations (row OR) run 64 bits at a time.

use serde::{Deserialize, Serialize};
use std::fmt;

const BITS: usize = u64::BITS as usize;

/// A fixed-length row of bits.
///
/// # Examples
///
/// ```
/// use rdse_graph::BitRow;
///
/// let mut row = BitRow::new(100);
/// row.set(3, true);
/// row.set(99, true);
/// assert!(row.get(3));
/// assert_eq!(row.count_ones(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitRow {
    len: usize,
    words: Vec<u64>,
}

impl BitRow {
    /// Creates a row of `len` zero bits.
    pub fn new(len: usize) -> Self {
        BitRow {
            len,
            words: vec![0; len.div_ceil(BITS)],
        }
    }

    /// Number of bits in the row.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the row has zero bits of capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        self.words[i / BITS] >> (i % BITS) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        let word = &mut self.words[i / BITS];
        let mask = 1u64 << (i % BITS);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// `self |= other`; both rows must have equal length.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[inline]
    pub fn union_with(&mut self, other: &BitRow) {
        assert_eq!(self.len, other.len, "bit row length mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Returns `true` if `self & other` has any bit set.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn intersects(&self, other: &BitRow) -> bool {
        assert_eq!(self.len, other.len, "bit row length mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * BITS + b)
                }
            })
        })
    }
}

impl fmt::Debug for BitRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitRow[")?;
        let ones: Vec<usize> = self.iter_ones().collect();
        for (i, b) in ones.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{b}")?;
        }
        write!(f, "]")
    }
}

/// A square bit matrix, stored row-major as [`BitRow`]s.
///
/// # Examples
///
/// ```
/// use rdse_graph::BitMatrix;
///
/// let mut m = BitMatrix::new(4);
/// m.set(1, 2, true);
/// assert!(m.get(1, 2));
/// assert!(!m.get(2, 1));
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitMatrix {
    n: usize,
    rows: Vec<BitRow>,
}

impl BitMatrix {
    /// Creates an `n × n` matrix of zero bits.
    pub fn new(n: usize) -> Self {
        BitMatrix {
            n,
            rows: vec![BitRow::new(n); n],
        }
    }

    /// Side length of the matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reads entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.rows[i].get(j)
    }

    /// Writes entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: bool) {
        self.rows[i].set(j, value);
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &BitRow {
        &self.rows[i]
    }

    /// ORs row `src` into row `dst` (`rows[dst] |= rows[src]`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn union_row_into(&mut self, src: usize, dst: usize) {
        assert!(src < self.n && dst < self.n, "row index out of bounds");
        if src == dst {
            return;
        }
        // Split borrows: take the source row out temporarily.
        let src_row = std::mem::replace(&mut self.rows[src], BitRow::new(0));
        self.rows[dst].union_with(&src_row);
        self.rows[src] = src_row;
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        for row in &mut self.rows {
            row.clear();
        }
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix({}x{})", self.n, self.n)?;
        for (i, row) in self.rows.iter().enumerate() {
            writeln!(f, "  {i}: {row:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_row_is_zero() {
        let row = BitRow::new(130);
        assert_eq!(row.len(), 130);
        assert_eq!(row.count_ones(), 0);
        assert!((0..130).all(|i| !row.get(i)));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut row = BitRow::new(70);
        row.set(0, true);
        row.set(63, true);
        row.set(64, true);
        row.set(69, true);
        assert!(row.get(0) && row.get(63) && row.get(64) && row.get(69));
        assert_eq!(row.count_ones(), 4);
        row.set(63, false);
        assert!(!row.get(63));
        assert_eq!(row.count_ones(), 3);
    }

    #[test]
    fn iter_ones_in_order() {
        let mut row = BitRow::new(200);
        for i in [3usize, 64, 65, 199] {
            row.set(i, true);
        }
        let ones: Vec<usize> = row.iter_ones().collect();
        assert_eq!(ones, vec![3, 64, 65, 199]);
    }

    #[test]
    fn union_and_intersect() {
        let mut a = BitRow::new(80);
        let mut b = BitRow::new(80);
        a.set(5, true);
        b.set(70, true);
        assert!(!a.intersects(&b));
        a.union_with(&b);
        assert!(a.get(70));
        assert!(a.intersects(&b));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let row = BitRow::new(10);
        row.get(10);
    }

    #[test]
    fn matrix_union_row_into() {
        let mut m = BitMatrix::new(5);
        m.set(0, 1, true);
        m.set(2, 3, true);
        m.union_row_into(2, 0);
        assert!(m.get(0, 1));
        assert!(m.get(0, 3));
        assert!(m.get(2, 3));
        // Self-union is a no-op.
        m.union_row_into(0, 0);
        assert!(m.get(0, 1) && m.get(0, 3));
    }

    #[test]
    fn matrix_clear() {
        let mut m = BitMatrix::new(3);
        m.set(1, 1, true);
        m.clear();
        assert!(!m.get(1, 1));
    }

    #[test]
    fn empty_row() {
        let row = BitRow::new(0);
        assert!(row.is_empty());
        assert_eq!(row.iter_ones().count(), 0);
    }
}
