//! Hamming SECDED (72,64) — the error-control coding the paper's FLASH
//! module uses "to mitigate SEUs that might occur while the memory is
//! being accessed" (§II).
//!
//! 64 data bits are spread over a 72-bit codeword: 7 Hamming check bits at
//! power-of-two positions plus one overall-parity bit. Single-bit errors
//! (data *or* check) are corrected; double-bit errors are detected.

/// Decode outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccOutcome {
    /// Codeword was clean.
    Clean,
    /// A single-bit error was corrected.
    Corrected,
    /// An uncorrectable (double-bit) error was detected.
    Uncorrectable,
}

/// A 72-bit SECDED codeword: 64 data bits + 8 check bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeWord {
    pub data: u64,
    pub check: u8,
}

/// 1-based codeword position of each data bit: positions 1..=71 in
/// order, skipping the power-of-two positions that hold check bits.
const DATA_POS: [u8; 64] = {
    let mut pos = [0u8; 64];
    let mut p = 0usize;
    let mut i = 0;
    while i < 64 {
        p += 1;
        if !p.is_power_of_two() {
            pos[i] = p as u8;
            i += 1;
        }
    }
    pos
};

/// Inverse of [`DATA_POS`] over every 7-bit syndrome: the data bit at
/// each codeword position, or `NO_DATA` at a check-bit position or past
/// the last position (a syndrome only triple errors produce).
const DATA_AT: [u8; 128] = {
    let mut at = [NO_DATA; 128];
    let mut i = 0;
    while i < 64 {
        at[DATA_POS[i] as usize] = i as u8;
        i += 1;
    }
    at
};
const NO_DATA: u8 = u8::MAX;

/// The data bits each Hamming check bit covers: bit `i` of
/// `CHECK_MASKS[c]` is set when data bit `i`'s position has bit `c` set,
/// so check bit `c` is the parity of `data & CHECK_MASKS[c]`.
const CHECK_MASKS: [u64; 7] = {
    let mut masks = [0u64; 7];
    let mut c = 0;
    while c < 7 {
        let mut i = 0;
        while i < 64 {
            if DATA_POS[i] & (1 << c) != 0 {
                masks[c] |= 1 << i;
            }
            i += 1;
        }
        c += 1;
    }
    masks
};

/// Encode 64 data bits into a SECDED codeword.
pub fn encode(data: u64) -> CodeWord {
    // Hamming check bits p1..p64 (7 of them).
    let mut check = 0u8;
    for (c, mask) in CHECK_MASKS.iter().enumerate() {
        check |= (((data & mask).count_ones() & 1) as u8) << c;
    }
    // Overall parity over data + the 7 check bits.
    let overall = (data.count_ones() + u32::from(check).count_ones()) & 1 == 1;
    if overall {
        check |= 0x80;
    }
    CodeWord { data, check }
}

/// Decode a codeword, correcting a single-bit error if present. Returns
/// the (possibly corrected) data and the outcome.
pub fn decode(word: CodeWord) -> (u64, EccOutcome) {
    let recomputed = encode(word.data);
    let syndrome = (recomputed.check ^ word.check) & 0x7f;
    // Overall parity of *all received bits* (data + 7 check bits + parity
    // bit). Odd ⇒ an odd number of bit errors (i.e. a single error for the
    // SECDED guarantee); even with a non-zero syndrome ⇒ double error.
    let received_parity = (word.data.count_ones() + u32::from(word.check).count_ones()) & 1 == 1;
    let parity_err = received_parity;

    if syndrome == 0 && !parity_err {
        return (word.data, EccOutcome::Clean);
    }
    if syndrome == 0 && parity_err {
        // The overall parity bit itself flipped.
        return (word.data, EccOutcome::Corrected);
    }
    if !parity_err {
        // Non-zero syndrome with even overall parity ⇒ double error.
        return (word.data, EccOutcome::Uncorrectable);
    }
    // Single error at codeword position `syndrome`.
    let p = syndrome as usize;
    if p.is_power_of_two() && p <= 64 {
        // A check bit flipped; data is intact.
        return (word.data, EccOutcome::Corrected);
    }
    match DATA_AT[p] {
        NO_DATA => (word.data, EccOutcome::Uncorrectable),
        i => (word.data ^ (1u64 << i), EccOutcome::Corrected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_words() -> Vec<u64> {
        vec![
            0,
            u64::MAX,
            0xDEAD_BEEF_CAFE_F00D,
            0x0123_4567_89AB_CDEF,
            1,
            1 << 63,
            0x5555_5555_5555_5555,
        ]
    }

    #[test]
    fn clean_roundtrip() {
        for w in sample_words() {
            let cw = encode(w);
            assert_eq!(decode(cw), (w, EccOutcome::Clean));
        }
    }

    #[test]
    fn corrects_any_single_data_bit() {
        for w in sample_words() {
            let cw = encode(w);
            for b in 0..64 {
                let bad = CodeWord {
                    data: cw.data ^ (1 << b),
                    check: cw.check,
                };
                let (fixed, outcome) = decode(bad);
                assert_eq!(outcome, EccOutcome::Corrected, "word {w:#x} bit {b}");
                assert_eq!(fixed, w);
            }
        }
    }

    #[test]
    fn corrects_any_single_check_bit() {
        for w in sample_words() {
            let cw = encode(w);
            for b in 0..8 {
                let bad = CodeWord {
                    data: cw.data,
                    check: cw.check ^ (1 << b),
                };
                let (fixed, outcome) = decode(bad);
                assert_eq!(outcome, EccOutcome::Corrected, "word {w:#x} check {b}");
                assert_eq!(fixed, w);
            }
        }
    }

    #[test]
    fn detects_double_bit_errors() {
        let w = 0xA5A5_5A5A_1234_8765u64;
        let cw = encode(w);
        // Flip pairs of data bits.
        for (a, b) in [(0usize, 1usize), (5, 40), (62, 63), (13, 27)] {
            let bad = CodeWord {
                data: cw.data ^ (1 << a) ^ (1 << b),
                check: cw.check,
            };
            let (_, outcome) = decode(bad);
            assert_eq!(outcome, EccOutcome::Uncorrectable, "pair {a},{b}");
        }
        // Data + check bit.
        let bad = CodeWord {
            data: cw.data ^ 1,
            check: cw.check ^ 2,
        };
        assert_eq!(decode(bad).1, EccOutcome::Uncorrectable);
    }

    #[test]
    fn data_positions_are_distinct_non_powers() {
        let mut seen = std::collections::HashSet::new();
        for (i, &p) in DATA_POS.iter().enumerate() {
            assert!(!p.is_power_of_two(), "data at check position {p}");
            assert!((3..=71).contains(&p));
            assert!(seen.insert(p));
            assert_eq!(DATA_AT[p as usize] as usize, i);
        }
        assert!(DATA_POS.windows(2).all(|w| w[0] < w[1]), "in order");
        assert!(DATA_AT[72..].iter().all(|&i| i == NO_DATA));
    }

    /// The per-bit Hamming loop the mask table replaces: check bit `c` is
    /// the parity of every data bit whose position has bit `c` set.
    fn encode_reference(data: u64) -> CodeWord {
        let mut check = 0u8;
        for c in 0..7 {
            let mut parity = false;
            for (i, &p) in DATA_POS.iter().enumerate() {
                if p & (1 << c) != 0 && (data >> i) & 1 == 1 {
                    parity = !parity;
                }
            }
            if parity {
                check |= 1 << c;
            }
        }
        if (data.count_ones() + u32::from(check).count_ones()) & 1 == 1 {
            check |= 0x80;
        }
        CodeWord { data, check }
    }

    /// Flip codeword bit `b` (0..64 data, 64..72 check).
    fn flip(cw: CodeWord, b: usize) -> CodeWord {
        if b < 64 {
            CodeWord {
                data: cw.data ^ (1 << b),
                check: cw.check,
            }
        } else {
            CodeWord {
                data: cw.data,
                check: cw.check ^ (1 << (b - 64)),
            }
        }
    }

    #[test]
    fn mask_encode_matches_per_bit_reference() {
        let mut s = 0x243F_6A88_85A3_08D3u64;
        let mut words = sample_words();
        for _ in 0..2000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            words.push(s);
        }
        for (n, &w) in words.iter().enumerate() {
            let cw = encode(w);
            assert_eq!(cw, encode_reference(w), "word {w:#x}");
            // All 72 single-bit errors correct back to the data.
            for b in 0..72 {
                let bad = flip(cw, b);
                assert_eq!(encode(bad.data), encode_reference(bad.data));
                assert_eq!(decode(bad), (w, EccOutcome::Corrected), "{w:#x} bit {b}");
            }
            // A sample of double-bit errors is detected, never miscorrected.
            let a = n % 72;
            for b in (0..72).filter(|&b| b != a).step_by(5) {
                let bad = flip(flip(cw, a), b);
                assert_eq!(encode(bad.data), encode_reference(bad.data));
                assert_eq!(
                    decode(bad).1,
                    EccOutcome::Uncorrectable,
                    "{w:#x} bits {a},{b}"
                );
            }
        }
    }

    #[test]
    fn syndromes_past_the_last_position_are_uncorrectable() {
        // Three data errors whose positions XOR past 71 leave odd parity
        // and a syndrome no single error produces: detected, never an
        // out-of-range correction.
        let cw = encode(0);
        let mut found = 0;
        for (a, &pa) in DATA_POS.iter().enumerate() {
            for (b, &pb) in DATA_POS.iter().enumerate().skip(a + 1) {
                for (c, &pc) in DATA_POS.iter().enumerate().skip(b + 1) {
                    if pa ^ pb ^ pc > 71 {
                        let bad = flip(flip(flip(cw, a), b), c);
                        assert_eq!(decode(bad).1, EccOutcome::Uncorrectable);
                        found += 1;
                    }
                }
            }
        }
        assert!(found > 0);
    }
}
