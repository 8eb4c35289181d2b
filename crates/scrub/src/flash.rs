//! The payload's configuration store (paper §II): a 16 MB FLASH module
//! holding "more than twenty configuration bit streams… Error control
//! coding is used to mitigate SEUs that might occur while the memory is
//! being accessed".

use cibola_arch::{Bitstream, SimDuration};

use crate::ecc::{decode, encode, CodeWord, EccOutcome};

/// Statistics from ECC-protected reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EccStats {
    pub words_read: usize,
    pub corrected: usize,
    pub uncorrectable: usize,
}

/// One stored configuration image, ECC-encoded word by word.
#[derive(Debug, Clone)]
struct Slot {
    /// The geometry fingerprint (frame layout) of the stored image.
    frame_offsets: Vec<usize>,
    frame_lens: Vec<usize>,
    words: Vec<CodeWord>,
    bytes_len: usize,
    /// The image as the last whole-image read decoded it (as stored, at
    /// first), and the buffer the next decoding read fills.
    image: Bitstream,
    /// Whether decoding `words` would now return `image` with nothing to
    /// correct. Set when the slot is stored and by every whole-image read
    /// that completes (it writes every correction back, so the store is
    /// clean after it); cleared by an upset to a stored word. No other
    /// code changes the stored words.
    clean: bool,
}

/// The FLASH configuration store.
#[derive(Debug, Clone)]
pub struct Flash {
    slots: Vec<Slot>,
    /// Capacity in bytes (default 16 MB, as flown).
    pub capacity_bytes: usize,
    /// Read throughput for timing (bytes/µs).
    pub bytes_per_us: u64,
}

/// Errors from flash operations.
///
/// Non-exhaustive: flight storage grows new failure modes (wear-out,
/// bus SEFIs), and adding one must not break downstream match arms.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashError {
    /// Store would exceed capacity.
    Full { need: usize, free: usize },
    /// Unknown slot.
    NoSuchSlot(usize),
    /// The slot exists but its image has no frame with this index.
    NoSuchFrame { slot: usize, frame: usize },
    /// An uncorrectable ECC error was encountered.
    Uncorrectable { slot: usize, word: usize },
}

impl std::fmt::Display for FlashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlashError::Full { need, free } => write!(f, "flash full: need {need}, free {free}"),
            FlashError::NoSuchSlot(s) => write!(f, "no such flash slot {s}"),
            FlashError::NoSuchFrame { slot, frame } => {
                write!(f, "no frame {frame} in flash slot {slot}")
            }
            FlashError::Uncorrectable { slot, word } => {
                write!(f, "uncorrectable ECC error in slot {slot}, word {word}")
            }
        }
    }
}

impl std::error::Error for FlashError {}

impl Default for Flash {
    fn default() -> Self {
        Flash::new(16 * 1024 * 1024)
    }
}

impl Flash {
    pub fn new(capacity_bytes: usize) -> Self {
        Flash {
            slots: Vec::new(),
            capacity_bytes,
            bytes_per_us: 10,
        }
    }

    /// Bytes used by stored images (data payload, pre-ECC).
    pub fn used_bytes(&self) -> usize {
        self.slots.iter().map(|s| s.bytes_len).sum()
    }

    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Store a configuration image; returns the slot index.
    pub fn store(&mut self, bs: &Bitstream) -> Result<usize, FlashError> {
        let mut bytes = Vec::new();
        let mut frame_offsets = Vec::new();
        let mut frame_lens = Vec::new();
        for addr in bs.frame_addrs() {
            let data = bs.read_frame(addr);
            frame_offsets.push(bytes.len());
            frame_lens.push(data.len());
            bytes.extend_from_slice(&data);
        }
        let need = bytes.len();
        let free = self.capacity_bytes.saturating_sub(self.used_bytes());
        if need > free {
            return Err(FlashError::Full { need, free });
        }
        let words = bytes
            .chunks(8)
            .map(|ch| {
                let mut w = [0u8; 8];
                w[..ch.len()].copy_from_slice(ch);
                encode(u64::from_le_bytes(w))
            })
            .collect();
        self.slots.push(Slot {
            frame_offsets,
            frame_lens,
            words,
            bytes_len: need,
            image: bs.clone(),
            clean: true,
        });
        Ok(self.slots.len() - 1)
    }

    /// Read one frame's golden bytes from a slot, correcting single-bit
    /// upsets via ECC. `frame_index` is the dense frame index of the
    /// stored image's geometry.
    pub fn read_frame(
        &mut self,
        slot: usize,
        frame_index: usize,
        stats: &mut EccStats,
    ) -> Result<(Vec<u8>, SimDuration), FlashError> {
        let bytes_per_us = self.bytes_per_us;
        let s = self
            .slots
            .get_mut(slot)
            .ok_or(FlashError::NoSuchSlot(slot))?;
        if frame_index >= s.frame_offsets.len() {
            return Err(FlashError::NoSuchFrame {
                slot,
                frame: frame_index,
            });
        }
        let mut out = Vec::new();
        s.decode_frame(slot, frame_index, stats, &mut out)?;
        let dur = frame_read_time(out.len(), bytes_per_us);
        Ok((out, dur))
    }

    /// The whole image stored in a slot (for full reconfiguration), with
    /// ECC correction throughout. Reports the words read, the
    /// corrections and the duration of decoding every frame in turn. A
    /// slot with nothing to correct (freshly stored, or read whole since
    /// its last upset) hands back the image it holds without decoding
    /// again: the same image, words read and duration, at the current
    /// `bytes_per_us`.
    pub fn read_bitstream(
        &mut self,
        slot: usize,
        stats: &mut EccStats,
    ) -> Result<(&Bitstream, SimDuration), FlashError> {
        let bytes_per_us = self.bytes_per_us;
        let s = self
            .slots
            .get_mut(slot)
            .ok_or(FlashError::NoSuchSlot(slot))?;
        let mut total = SimDuration::ZERO;
        if s.clean {
            // What decoding every frame in turn would count and charge.
            for (&off, &len) in s.frame_offsets.iter().zip(&s.frame_lens) {
                stats.words_read += (off + len).div_ceil(8) - off / 8;
                total += frame_read_time(len, bytes_per_us);
            }
            return Ok((&s.image, total));
        }
        let mut bytes = Vec::new();
        for fi in 0..s.frame_offsets.len() {
            bytes.clear();
            s.decode_frame(slot, fi, stats, &mut bytes)?;
            let addr = s.image.frame_addr(fi);
            s.image.write_frame(addr, &bytes);
            total += frame_read_time(bytes.len(), bytes_per_us);
        }
        s.clean = true;
        Ok((&s.image, total))
    }

    /// Flip a raw stored bit (an SEU in the FLASH array) — data bits only.
    pub fn upset_data_bit(&mut self, slot: usize, word: usize, bit: usize) {
        let s = &mut self.slots[slot];
        s.words[word].data ^= 1 << (bit % 64);
        s.clean = false;
    }

    /// Flip a stored ECC check bit.
    pub fn upset_check_bit(&mut self, slot: usize, word: usize, bit: usize) {
        let s = &mut self.slots[slot];
        s.words[word].check ^= 1 << (bit % 8);
        s.clean = false;
    }

    /// Number of ECC words in a slot.
    pub fn slot_words(&self, slot: usize) -> usize {
        self.slots[slot].words.len()
    }
}

impl Slot {
    /// Decode frame `frame_index` onto the end of `out`, writing every
    /// corrected word back to the store. `slot` names this slot in an
    /// error.
    fn decode_frame(
        &mut self,
        slot: usize,
        frame_index: usize,
        stats: &mut EccStats,
        out: &mut Vec<u8>,
    ) -> Result<(), FlashError> {
        let (off, len) = (
            self.frame_offsets[frame_index],
            self.frame_lens[frame_index],
        );
        let end = off + len;
        out.reserve(len);
        for wi in off / 8..end.div_ceil(8) {
            let (data, outcome) = decode(self.words[wi]);
            stats.words_read += 1;
            match outcome {
                EccOutcome::Clean => {}
                EccOutcome::Corrected => {
                    stats.corrected += 1;
                    // Write back the corrected word (scrubbing the store).
                    self.words[wi] = encode(data);
                }
                EccOutcome::Uncorrectable => {
                    stats.uncorrectable += 1;
                    return Err(FlashError::Uncorrectable { slot, word: wi });
                }
            }
            // The frame's bytes of this word.
            let base = wi * 8;
            out.extend_from_slice(
                &data.to_le_bytes()[off.max(base) - base..end.min(base + 8) - base],
            );
        }
        Ok(())
    }
}

/// Time to read `len` bytes of one frame at `bytes_per_us`.
fn frame_read_time(len: usize, bytes_per_us: u64) -> SimDuration {
    SimDuration::from_micros((len as u64).div_ceil(bytes_per_us))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cibola_arch::{ConfigMemory, Geometry};

    fn image() -> Bitstream {
        let mut cm = ConfigMemory::new(Geometry::tiny());
        // Non-trivial content.
        for i in (0..cm.total_bits()).step_by(97) {
            cm.set_bit(i, true);
        }
        cm
    }

    #[test]
    fn store_and_read_frames_roundtrip() {
        let bs = image();
        let mut flash = Flash::default();
        let slot = flash.store(&bs).unwrap();
        let mut stats = EccStats::default();
        for (fi, addr) in bs.frame_addrs().enumerate().collect::<Vec<_>>() {
            let (bytes, dur) = flash.read_frame(slot, fi, &mut stats).unwrap();
            assert_eq!(bytes, bs.read_frame(addr), "frame {fi}");
            assert!(dur.as_nanos() > 0);
        }
        assert_eq!(stats.corrected, 0);
        assert_eq!(stats.uncorrectable, 0);
    }

    #[test]
    fn single_bit_flash_upsets_are_corrected() {
        let bs = image();
        let mut flash = Flash::default();
        let slot = flash.store(&bs).unwrap();
        for w in (0..flash.slot_words(slot)).step_by(211) {
            flash.upset_data_bit(slot, w, (w * 13) % 64);
        }
        let mut stats = EccStats::default();
        let (restored, _) = flash.read_bitstream(slot, &mut stats).unwrap();
        assert!(restored.diff(&bs).is_empty(), "image fully restored");
        assert!(stats.corrected > 0, "corrections happened");
        // Read-back also scrubbed the store: a second read is clean.
        let mut stats2 = EccStats::default();
        flash.read_bitstream(slot, &mut stats2).unwrap();
        assert_eq!(stats2.corrected, 0);
    }

    /// A whole-image read: the image, what it counted and what it took.
    fn read_whole(flash: &mut Flash, slot: usize) -> (Bitstream, EccStats, SimDuration) {
        let mut stats = EccStats::default();
        let (image, dur) = flash.read_bitstream(slot, &mut stats).unwrap();
        (image.clone(), stats, dur)
    }

    #[test]
    fn a_clean_slot_reads_like_a_decoding_one() {
        let bs = image();
        let mut flash = Flash::default();
        let slot = flash.store(&bs).unwrap();
        for bytes_per_us in [10, 3, 7, 1000] {
            flash.bytes_per_us = bytes_per_us;
            // The same upset twice leaves the words as stored but the
            // slot unvouched for, so this read decodes every word.
            flash.upset_data_bit(slot, 5, 17);
            flash.upset_data_bit(slot, 5, 17);
            let decoded = read_whole(&mut flash, slot);
            assert_eq!(decoded.0, bs);
            assert_eq!(decoded.1.corrected, 0);
            // Frame by frame through the decoding path: the same bytes,
            // words and time, words shared by two frames counted twice.
            let mut stats = EccStats::default();
            let mut dur = SimDuration::ZERO;
            for (fi, addr) in bs.frame_addrs().enumerate() {
                let (bytes, d) = flash.read_frame(slot, fi, &mut stats).unwrap();
                assert_eq!(bytes, bs.read_frame(addr), "frame {fi}");
                dur += d;
            }
            assert_eq!((stats, dur), (decoded.1, decoded.2));
            assert!(stats.words_read > flash.slot_words(slot));
            // The read after it hands back the image it kept.
            assert_eq!(read_whole(&mut flash, slot), decoded);
            // So does the first read of a freshly stored image.
            let mut fresh = Flash {
                bytes_per_us,
                ..Flash::default()
            };
            let fresh_slot = fresh.store(&bs).unwrap();
            assert_eq!(read_whole(&mut fresh, fresh_slot), decoded);
        }
        // An upset is corrected by the next read, and the read after it
        // is clean again.
        flash.bytes_per_us = 10;
        let clean = read_whole(&mut flash, slot);
        for upset in [Flash::upset_data_bit, Flash::upset_check_bit] {
            upset(&mut flash, slot, 9, 3);
            let (restored, stats, dur) = read_whole(&mut flash, slot);
            assert_eq!(restored, bs);
            assert_eq!(stats.corrected, 1);
            assert_eq!((stats.words_read, dur), (clean.1.words_read, clean.2));
            assert_eq!(read_whole(&mut flash, slot), clean);
        }
    }

    #[test]
    fn double_bit_upset_is_detected_not_miscorrected() {
        let bs = image();
        let mut flash = Flash::default();
        let slot = flash.store(&bs).unwrap();
        flash.upset_data_bit(slot, 3, 5);
        flash.upset_data_bit(slot, 3, 9);
        let mut stats = EccStats::default();
        let err = flash.read_bitstream(slot, &mut stats);
        assert!(matches!(err, Err(FlashError::Uncorrectable { .. })));
    }

    #[test]
    fn capacity_accounting_holds_twenty_images() {
        // The paper: 16 MB flash stores "more than twenty configuration
        // bit streams" for the XQVR1000 (≈750 KB each, uncompressed).
        let bs = image(); // tiny image here, but exercise the accounting
        let mut flash = Flash::new(25 * bs_bytes(&bs));
        for _ in 0..20 {
            flash.store(&bs).unwrap();
        }
        assert_eq!(flash.slot_count(), 20);
        assert!(flash.used_bytes() <= flash.capacity_bytes);
        let mut tiny_flash = Flash::new(bs_bytes(&bs) / 2);
        assert!(matches!(
            tiny_flash.store(&bs),
            Err(FlashError::Full { .. })
        ));
    }

    fn bs_bytes(bs: &Bitstream) -> usize {
        bs.frame_addrs().map(|a| bs.frame_bytes(a.block)).sum()
    }

    #[test]
    fn check_bit_upsets_also_corrected() {
        let bs = image();
        let mut flash = Flash::default();
        let slot = flash.store(&bs).unwrap();
        flash.upset_check_bit(slot, 7, 3);
        let mut stats = EccStats::default();
        let (restored, _) = flash.read_bitstream(slot, &mut stats).unwrap();
        assert!(restored.diff(&bs).is_empty());
        assert_eq!(stats.corrected, 1);
    }

    #[test]
    fn bad_indices_name_what_is_missing() {
        let bs = image();
        let mut flash = Flash::default();
        let slot = flash.store(&bs).unwrap();
        let mut stats = EccStats::default();
        let frames = bs.frame_count();
        assert_eq!(
            flash.read_frame(slot, frames, &mut stats),
            Err(FlashError::NoSuchFrame {
                slot,
                frame: frames
            })
        );
        assert_eq!(
            flash.read_frame(slot + 1, 0, &mut stats),
            Err(FlashError::NoSuchSlot(slot + 1))
        );
        assert_eq!(stats, EccStats::default(), "nothing was read");
    }
}
