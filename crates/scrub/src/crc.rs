//! CRC-32 (IEEE 802.3, reflected) — the per-frame check the Actel fault
//! manager computes while streaming readback data (paper §II-A:
//! "continuously reading the FPGAs' configuration bitstreams and
//! calculating a cyclic redundancy check for each frame").

/// Reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic bytewise table; `TABLES[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, so eight table lookups fold in eight input bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Streaming CRC-32.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xff) as usize]
                ^ t[2][((hi >> 8) & 0xff) as usize]
                ^ t[1][((hi >> 16) & 0xff) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
        }
        self.state = crc;
    }

    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255).collect();
        let mut c = Crc32::new();
        c.update(&data[..100]);
        c.update(&data[100..]);
        assert_eq!(c.finish(), crc32(&data));
    }

    /// The classic one-table, one-byte-per-step CRC-32.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn slicing_by_8_matches_bytewise() {
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as u8
        };
        for len in 0..=64 {
            let data: Vec<u8> = (0..len).map(|_| next()).collect();
            assert_eq!(crc32(&data), crc32_bytewise(&data), "length {len}");
        }
        // Random frames of the CLB/IOB/BRAM sizes, streamed in ragged
        // pieces so chunk boundaries land mid-word.
        for len in [240usize, 30, 13, 32, 128, 757, 1024] {
            let data: Vec<u8> = (0..len).map(|_| next()).collect();
            let mut c = Crc32::new();
            for piece in data.chunks(7) {
                c.update(piece);
            }
            assert_eq!(c.finish(), crc32_bytewise(&data), "frame of {len} bytes");
            assert_eq!(crc32(&data), crc32_bytewise(&data), "frame of {len} bytes");
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0u8; 240]; // one XQVR-class CLB frame
        let clean = crc32(&data);
        for byte in [0usize, 17, 239] {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}.{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
