//! A compact fixed-capacity bit set, used for O(1) adjacency queries in the
//! engine's collision-resolution inner loop.

/// Fixed-capacity bit set over indices `0..len`.
///
/// # Examples
/// ```
/// use crn_sim::bitset::BitSet;
/// let mut s = BitSet::new(100);
/// s.insert(3);
/// s.insert(99);
/// assert!(s.contains(3));
/// assert!(!s.contains(4));
/// assert_eq!(s.count_ones(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

/// Outcome of [`BitSet::intersect_unique`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intersection {
    /// The sets share no index.
    Empty,
    /// The sets share exactly this index.
    Unique(usize),
    /// The sets share two or more indices.
    Many,
}

impl BitSet {
    /// Creates an empty set with capacity for indices `0..len`.
    pub fn new(len: usize) -> BitSet {
        BitSet { words: vec![0; len.div_ceil(64)], len }
    }

    /// The capacity (one past the largest storable index).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Sets bit `i`. Returns `true` if the bit was newly set.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Clears bit `i`. Returns `true` if the bit was previously set.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Tests bit `i`. Out-of-range indices are reported as unset.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Read access to the backing words (64 indices per word, little-endian
    /// bit order). Exposed for word-level set algebra in hot loops.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Flips the bits `flip` of word `w` (indices `64·w ..`) and returns
    /// the word's new value. `flip` must not reach past `len`.
    #[inline]
    pub(crate) fn toggle_word(&mut self, w: usize, flip: u64) -> u64 {
        self.words[w] ^= flip;
        debug_assert!(self.len > 64 * w + 63 || self.words[w] >> (self.len - 64 * w) == 0);
        self.words[w]
    }

    /// Classifies the intersection of two sets as empty, a single index, or
    /// two-or-more — without materializing it. One pass over the words with
    /// early exit at the second hit; this is the engine's listener-side
    /// collision test (`0`, exactly `1`, or `≥ 2` broadcasting neighbors).
    pub fn intersect_unique(&self, other: &BitSet) -> Intersection {
        debug_assert_eq!(
            self.words.len(),
            other.words.len(),
            "intersect_unique requires equal-capacity sets"
        );
        let mut found: Option<usize> = None;
        for (w, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            let and = a & b;
            if and == 0 {
                continue;
            }
            if found.is_some() || and.count_ones() > 1 {
                return Intersection::Many;
            }
            found = Some(w * 64 + and.trailing_zeros() as usize);
        }
        match found {
            Some(i) => Intersection::Unique(i),
            None => Intersection::Empty,
        }
    }

    /// Iterates over the indices of set bits in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(129), "second insert reports already present");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(!s.contains(4096), "out of range reads as unset");
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.contains(64));
        assert_eq!(s.count_ones(), 2);
    }

    #[test]
    fn iteration_in_order() {
        let mut s = BitSet::new(200);
        for i in [5usize, 63, 64, 65, 199, 0] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 5, 63, 64, 65, 199]);
    }

    #[test]
    fn clear_resets() {
        let mut s = BitSet::new(70);
        s.insert(69);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn intersect_unique_classifies() {
        let mut a = BitSet::new(300);
        let mut b = BitSet::new(300);
        for i in [3usize, 70, 140, 299] {
            a.insert(i);
        }
        assert_eq!(a.intersect_unique(&b), Intersection::Empty);
        b.insert(140);
        assert_eq!(a.intersect_unique(&b), Intersection::Unique(140));
        b.insert(299);
        assert_eq!(a.intersect_unique(&b), Intersection::Many);
        // Two hits inside the same word are also Many.
        let mut c = BitSet::new(300);
        c.insert(3);
        c.insert(5);
        let mut d = BitSet::new(300);
        d.insert(3);
        d.insert(5);
        assert_eq!(c.intersect_unique(&d), Intersection::Many);
    }

    #[test]
    fn words_expose_backing_storage() {
        let mut s = BitSet::new(70);
        s.insert(0);
        s.insert(65);
        assert_eq!(s.words().len(), 2);
        assert_eq!(s.words()[0], 1);
        assert_eq!(s.words()[1], 2);
    }
}
