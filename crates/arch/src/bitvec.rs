//! A compact bit vector used as the backing store for configuration memory.
//!
//! Configuration memories run to millions of bits (≈5.9 Mbit for the
//! XQVR1000-class geometry), and fault-injection campaigns clone them per
//! worker, so the representation is a plain `Vec<u64>` with no per-bit
//! bookkeeping.

/// A fixed-length vector of bits packed into 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// An all-zero bit vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Write bit `i`. Panics if out of range.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if v {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Flip bit `i`, returning its new value.
    #[inline]
    pub fn flip(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] ^= 1u64 << (i % 64);
        self.get(i)
    }

    /// Extract up to 64 bits starting at `i` (little-endian within the run).
    /// Bits past the end read as zero.
    #[inline]
    pub fn get_bits(&self, i: usize, n: usize) -> u64 {
        debug_assert!(n <= 64);
        if i >= self.len {
            return 0;
        }
        let n = n.min(self.len - i);
        let (w, s) = (i / 64, i % 64);
        let mut v = self.words[w] >> s;
        if s + n > 64 {
            v |= self.words[w + 1] << (64 - s);
        }
        v & low_mask(n)
    }

    /// Store the low `n` bits of `v` starting at bit `i`. Panics if the
    /// range runs past the end.
    #[inline]
    pub fn set_bits(&mut self, i: usize, n: usize, v: u64) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        self.check_range(i, n);
        let mask = low_mask(n);
        let v = v & mask;
        let (w, s) = (i / 64, i % 64);
        self.words[w] = (self.words[w] & !(mask << s)) | (v << s);
        if s + n > 64 {
            let done = 64 - s;
            self.words[w + 1] = (self.words[w + 1] & !(mask >> done)) | (v >> done);
        }
    }

    /// Panic unless `[start, start + n)` lies inside the vector (an empty
    /// range always does).
    #[inline]
    fn check_range(&self, start: usize, n: usize) {
        assert!(
            n == 0 || start.checked_add(n).is_some_and(|end| end <= self.len),
            "bit range {start}+{n} out of range {}",
            self.len
        );
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of the set bits, in ascending order, found a word at a
    /// time.
    pub(crate) fn ones(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (w, &word) in self.words.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                out.push(w * 64 + rest.trailing_zeros() as usize);
                rest &= rest - 1;
            }
        }
        out
    }

    /// Serialize a bit range into bytes, LSB-first within each byte.
    /// Panics if the range runs past the end.
    pub fn range_to_bytes(&self, start: usize, n: usize) -> Vec<u8> {
        self.check_range(start, n);
        let mut out = Vec::with_capacity(n.div_ceil(8));
        let mut k = 0;
        while k < n {
            let m = (n - k).min(64);
            let v = self.get_bits(start + k, m);
            out.extend_from_slice(&v.to_le_bytes()[..m.div_ceil(8)]);
            k += m;
        }
        out
    }

    /// Overwrite a bit range from bytes, LSB-first within each byte.
    /// Panics if the range runs past the end.
    pub fn range_from_bytes(&mut self, start: usize, n: usize, bytes: &[u8]) {
        assert!(bytes.len() * 8 >= n, "byte slice too short for {n} bits");
        self.check_range(start, n);
        let mut k = 0;
        while k < n {
            let m = (n - k).min(64);
            let chunk = &bytes[k / 8..k / 8 + m.div_ceil(8)];
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.set_bits(start + k, m, u64::from_le_bytes(word));
            k += m;
        }
    }

    /// Indices of the bits that differ between `self` and `other`, in
    /// ascending order. Both must have the same length.
    pub fn diff(&self, other: &BitVec) -> Vec<usize> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(i) = self.next_diff(other, from) {
            out.push(i);
            from = i + 1;
        }
        out
    }

    /// The first bit at or past `from` where `self` and `other` differ,
    /// found a word at a time. Both must have the same length; bits past
    /// the end are zero in every vector, so they never differ.
    pub(crate) fn next_diff(&self, other: &BitVec, from: usize) -> Option<usize> {
        assert_eq!(self.len, other.len, "bit vectors differ in length");
        let w = from / 64;
        let first = (self.words.get(w)? ^ other.words[w]) & (u64::MAX << (from % 64));
        if first != 0 {
            return Some(w * 64 + first.trailing_zeros() as usize);
        }
        let w = w
            + 1
            + self.words[w + 1..]
                .iter()
                .zip(&other.words[w + 1..])
                .position(|(a, b)| a != b)?;
        Some(w * 64 + (self.words[w] ^ other.words[w]).trailing_zeros() as usize)
    }

    /// Overwrite every bit with `other`'s. Both must have the same length.
    pub(crate) fn copy_from(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bit vectors differ in length");
        self.words.copy_from_slice(&other.words);
    }
}

/// The low `n` bits set (`n` ≤ 64).
#[inline]
fn low_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_flip() {
        let mut bv = BitVec::zeros(130);
        assert!(!bv.get(0));
        bv.set(0, true);
        bv.set(129, true);
        assert!(bv.get(0) && bv.get(129));
        assert_eq!(bv.count_ones(), 2);
        assert!(!bv.flip(0));
        assert_eq!(bv.count_ones(), 1);
    }

    #[test]
    fn get_set_bits_field() {
        let mut bv = BitVec::zeros(100);
        bv.set_bits(10, 16, 0xBEEF);
        assert_eq!(bv.get_bits(10, 16), 0xBEEF);
        assert_eq!(bv.get_bits(10, 8), 0xEF);
        // neighbours untouched
        assert!(!bv.get(9));
        assert!(!bv.get(26));
    }

    #[test]
    fn byte_roundtrip() {
        let mut bv = BitVec::zeros(77);
        for i in (0..77).step_by(3) {
            bv.set(i, true);
        }
        let bytes = bv.range_to_bytes(0, 77);
        let mut bv2 = BitVec::zeros(77);
        bv2.range_from_bytes(0, 77, &bytes);
        assert_eq!(bv, bv2);
    }

    #[test]
    fn diff_finds_flips() {
        let mut a = BitVec::zeros(64);
        let b = a.clone();
        assert_eq!(a.diff(&b), Vec::<usize>::new());
        a.flip(5);
        a.flip(63);
        assert_eq!(a.diff(&b), vec![5, 63]);
        assert_eq!(b.diff(&a), vec![5, 63]);
    }

    #[test]
    fn bits_past_end_read_zero() {
        let bv = BitVec::zeros(10);
        assert_eq!(bv.get_bits(8, 8), 0);
    }

    // ---- word paths against bit-at-a-time references ----

    /// Length of the vectors below: long enough for every start in 0..130
    /// with every length up to 200, and not a multiple of 64.
    const LEN: usize = 333;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_bits(len: usize, seed: u64) -> BitVec {
        let mut s = seed;
        let mut bv = BitVec::zeros(len);
        for i in 0..len {
            bv.set(i, xorshift(&mut s) & 1 == 1);
        }
        bv
    }

    fn get_bits_ref(bv: &BitVec, i: usize, n: usize) -> u64 {
        (0..n)
            .filter(|&k| i + k < bv.len() && bv.get(i + k))
            .fold(0, |v, k| v | 1 << k)
    }

    fn set_bits_ref(bv: &mut BitVec, i: usize, n: usize, v: u64) {
        for k in 0..n {
            bv.set(i + k, (v >> k) & 1 == 1);
        }
    }

    fn to_bytes_ref(bv: &BitVec, start: usize, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n.div_ceil(8)];
        for k in 0..n {
            if bv.get(start + k) {
                out[k / 8] |= 1 << (k % 8);
            }
        }
        out
    }

    fn from_bytes_ref(bv: &mut BitVec, start: usize, n: usize, bytes: &[u8]) {
        for k in 0..n {
            bv.set(start + k, (bytes[k / 8] >> (k % 8)) & 1 == 1);
        }
    }

    #[test]
    fn byte_ranges_match_bitwise_reference() {
        let bv = random_bits(LEN, 0x9E37_79B9_7F4A_7C15);
        let mut s = 0xC1B0_1A5E_u64;
        for start in 0..130 {
            for n in 0..=200 {
                assert_eq!(
                    bv.range_to_bytes(start, n),
                    to_bytes_ref(&bv, start, n),
                    "range_to_bytes({start}, {n})"
                );
                let bytes: Vec<u8> = (0..n.div_ceil(8)).map(|_| xorshift(&mut s) as u8).collect();
                let mut fast = bv.clone();
                fast.range_from_bytes(start, n, &bytes);
                let mut slow = bv.clone();
                from_bytes_ref(&mut slow, start, n, &bytes);
                // Whole-vector equality: the bits beside the range and
                // the unused high bits of the last byte are untouched.
                assert_eq!(fast, slow, "range_from_bytes({start}, {n})");
            }
        }
    }

    #[test]
    fn bit_fields_match_bitwise_reference() {
        let bv = random_bits(LEN, 0x5EED);
        let mut s = 0xB17_F1E1D_u64;
        for n in 0..=64 {
            // Every start in 0..130 straddles a word boundary for some n;
            // the starts near the end read past it.
            for i in (0..130).chain(LEN - 70..LEN + 3) {
                assert_eq!(
                    bv.get_bits(i, n),
                    get_bits_ref(&bv, i, n),
                    "get_bits({i}, {n})"
                );
                if i + n > LEN {
                    continue;
                }
                let v = xorshift(&mut s);
                let mut fast = bv.clone();
                fast.set_bits(i, n, v);
                let mut slow = bv.clone();
                set_bits_ref(&mut slow, i, n, v);
                assert_eq!(fast, slow, "set_bits({i}, {n})");
            }
        }
    }

    #[test]
    fn diff_matches_bitwise_reference() {
        let mut s = 0xD1FF_5EED_u64;
        for len in [1, 63, 65, 127, 130, LEN, 1000] {
            let a = random_bits(len, xorshift(&mut s));
            // Sparse, dense and total disagreement, and none at all.
            for flips in [0, 1, 3, len / 5, len] {
                let mut b = a.clone();
                for _ in 0..flips {
                    b.flip(xorshift(&mut s) as usize % len);
                }
                let want: Vec<usize> = (0..len).filter(|&i| a.get(i) != b.get(i)).collect();
                assert_eq!(a.diff(&b), want, "len {len}, {flips} flips");
                assert_eq!(b.diff(&a), want, "len {len}, {flips} flips");
                let mut copy = a.clone();
                copy.copy_from(&b);
                assert_eq!(copy, b, "len {len}, {flips} flips");
            }
            let b = random_bits(len, xorshift(&mut s));
            let want: Vec<usize> = (0..len).filter(|&i| a.get(i) != b.get(i)).collect();
            assert_eq!(a.diff(&b), want, "len {len}, unrelated");
        }
    }

    #[test]
    fn ones_match_bitwise_reference() {
        let mut s = 0x05E7_B175_u64;
        for len in [0, 1, 63, 64, 65, 130, LEN] {
            let bv = random_bits(len, xorshift(&mut s));
            let want: Vec<usize> = (0..len).filter(|&i| bv.get(i)).collect();
            assert_eq!(bv.ones(), want, "len {len}");
        }
        let mut full = BitVec::zeros(LEN);
        full.range_from_bytes(0, LEN, &[0xFF; LEN.div_ceil(8)]);
        assert_eq!(full.ones(), (0..LEN).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_bits_past_end_panics() {
        BitVec::zeros(LEN).set_bits(LEN - 3, 4, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn range_from_bytes_past_end_panics() {
        BitVec::zeros(LEN).range_from_bytes(LEN - 8, 16, &[0xFF, 0xFF]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn range_to_bytes_past_end_panics() {
        BitVec::zeros(LEN).range_to_bytes(LEN - 1, 2);
    }
}
