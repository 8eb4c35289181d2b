//! The Actel-class configuration fault manager (paper §II-A, Figs. 3–4).
//!
//! A radiation-hardened anti-fuse controller "scans each Xilinx FPGA for
//! SEU faults by continuously reading the FPGAs' configuration bitstreams
//! and calculating a CRC for each frame… compared with a codebook of
//! stored CRCs". On mismatch the microprocessor is interrupted with the
//! device and frame, fetches the golden frame from FLASH, partially
//! reconfigures, and resets the system. Frames holding run-time-written
//! state (LUT-RAM contents, BRAM data) are masked out, per §II-C.

use std::collections::HashSet;

use cibola_arch::bits::{lut_mode_offset, lut_table_offset, LutMode};
use cibola_arch::{
    Bitstream, Device, FrameAddr, FrameStamp, PortError, ReadbackOptions, SimDuration, Tile,
};

use crate::crc::{crc32, Crc32};

/// Per-frame golden CRCs, with a mask for frames the scrubber must skip.
///
/// The codebook lives in the Actel's SRAM, which is itself in the beam —
/// so it is self-checked by a CRC over its own contents (CRC-of-CRCs).
/// A failed [`CrcCodebook::self_check`] means the book must be rebuilt
/// from the ECC-protected FLASH golden image before it can be trusted.
#[derive(Debug, Clone)]
pub struct CrcCodebook {
    crcs: Vec<u32>,
    masked: Vec<bool>,
    /// CRC over `crcs` + `masked` — the book's own integrity check.
    meta_crc: u32,
    /// Whether `crcs` + `masked` still hash to `meta_crc`. `masked` never
    /// changes after construction and [`CrcCodebook::upset`] is the only
    /// writer of `crcs`, so recomputing it there keeps it exact.
    intact: bool,
    /// Unmasked frames and their total bytes: what one scan moves over
    /// the port, fixed by the golden image and the mask.
    pub(crate) scanned_frames: u64,
    pub(crate) scanned_bytes: u64,
    /// Per frame, the stamp at which it last read back exactly with its
    /// stored CRC, in a scan or a verify-after-write (see
    /// [`FaultManager::scan`]). Dropped by [`CrcCodebook::upset`] and by a
    /// mismatch; a new book has none.
    matched: Vec<Option<FrameStamp>>,
}

impl CrcCodebook {
    /// Build a codebook from a golden image, masking `masked_frames`
    /// (dense frame indices).
    pub fn new(golden: &Bitstream, masked_frames: &HashSet<usize>) -> Self {
        let mut crcs = Vec::with_capacity(golden.frame_count());
        let mut masked = Vec::with_capacity(golden.frame_count());
        let (mut scanned_frames, mut scanned_bytes) = (0u64, 0u64);
        for (i, addr) in golden.frame_addrs().enumerate() {
            crcs.push(crc32(&golden.read_frame(addr)));
            let m = masked_frames.contains(&i);
            masked.push(m);
            if !m {
                scanned_frames += 1;
                scanned_bytes += golden.frame_bytes(addr.block) as u64;
            }
        }
        let meta_crc = Self::compute_meta(&crcs, &masked);
        CrcCodebook {
            crcs,
            masked,
            meta_crc,
            intact: true,
            scanned_frames,
            scanned_bytes,
            matched: vec![None; golden.frame_count()],
        }
    }

    fn compute_meta(crcs: &[u32], masked: &[bool]) -> u32 {
        // Streamed: byte-for-byte identical to hashing the concatenation
        // without building it.
        let mut h = Crc32::new();
        for c in crcs {
            h.update(&c.to_le_bytes());
        }
        for &m in masked {
            h.update(&[m as u8]);
        }
        h.finish()
    }

    /// Verify the book against its own CRC. Any SRAM upset to a stored
    /// frame CRC since construction makes this fail (until a second upset
    /// of the same bit restores the entry). O(1): the answer is kept up
    /// to date by [`CrcCodebook::upset`].
    pub fn self_check(&self) -> bool {
        self.intact
    }

    /// Flip one bit of a stored frame CRC (an SEU in the Actel's SRAM).
    /// The meta CRC is deliberately left stale — that is what
    /// [`CrcCodebook::self_check`] detects.
    pub fn upset(&mut self, entry: usize, bit: usize) {
        let n = self.crcs.len();
        self.crcs[entry % n] ^= 1 << (bit % 32);
        self.matched[entry % n] = None;
        self.intact = Self::compute_meta(&self.crcs, &self.masked) == self.meta_crc;
    }

    pub fn frame_count(&self) -> usize {
        self.crcs.len()
    }

    pub fn is_masked(&self, frame_index: usize) -> bool {
        self.masked[frame_index]
    }

    pub fn crc(&self, frame_index: usize) -> u32 {
        self.crcs[frame_index]
    }

    /// Per frame in dense order, the stamp at which it last read back
    /// exactly with its stored CRC, if it has since kept it.
    pub fn matched(&self) -> &[Option<FrameStamp>] {
        &self.matched
    }
}

/// Frames that must be masked for a design: the frames that hold a live
/// bit of [`dynamic_bits_for`], that is the truth tables of LUTs used as
/// RAM/SRL16 and the contents of every enabled BRAM block (paper §II-C:
/// these cannot be reliably read back while the design runs, and their
/// contents legitimately change).
pub fn masked_frames_for(golden: &Bitstream) -> HashSet<usize> {
    dynamic_bits_for(golden).by_frame.into_keys().collect()
}

/// One scan finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptFrame {
    pub frame_index: usize,
    pub addr: FrameAddr,
}

/// Result of one device scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanReport {
    pub corrupt: Vec<CorruptFrame>,
    /// Fraction of scanned frames that mismatched. Near-total corruption
    /// means the device is unprogrammed (configuration-FSM upset) and
    /// needs full reconfiguration.
    pub mismatch_fraction: f64,
    pub frames_scanned: usize,
    pub duration: SimDuration,
    /// Frames whose readback aborted (SEFI); they were skipped this pass.
    pub aborted_frames: usize,
    /// The scan hit a wedged port and stopped early; the remaining frames
    /// were not scanned. The port needs a reset before the next attempt.
    pub wedged: bool,
}

impl ScanReport {
    /// Heuristic the flight software uses to escalate to a full
    /// reconfiguration.
    pub fn looks_unprogrammed(&self) -> bool {
        self.mismatch_fraction > 0.25
    }
}

/// The fault manager: codebook + scan timing model.
#[derive(Debug, Clone)]
pub struct FaultManager {
    pub codebook: CrcCodebook,
    /// Per-frame processing overhead in the Actel (CRC pipeline, address
    /// generation). The default reproduces the paper's 180 ms cycle for
    /// three XQVR1000-class devices.
    pub frame_overhead: SimDuration,
}

impl FaultManager {
    pub fn new(codebook: CrcCodebook) -> Self {
        FaultManager {
            codebook,
            frame_overhead: SimDuration::from_micros(5),
        }
    }

    /// Scan every unmasked frame of `dev`, comparing CRCs against the
    /// codebook. Readback happens while the design runs — no interruption
    /// of service.
    ///
    /// A frame whose readback would be exact and which nothing has
    /// written since it last read back exactly with its stored CRC (its
    /// [`FrameStamp`] is unchanged) would match again.
    /// [`Device::skip_clean_frames`] passes over runs of such frames, and
    /// of masked ones, applying the BRAM disturbance a content frame's
    /// read would, and each skipped frame is charged the time its read
    /// would take without the copy and the CRC, so the report and the
    /// device equal a cold scan's field for field.
    pub fn scan(&mut self, dev: &mut Device) -> ScanReport {
        let mut corrupt = Vec::new();
        let mut duration = SimDuration::ZERO;
        let mut scanned = 0usize;
        let mut aborted = 0usize;
        let mut wedged = false;
        let mut from = 0;
        loop {
            let book = &self.codebook;
            let (fi, frames, bytes, exact) =
                dev.skip_clean_frames(from, &book.masked, &book.matched);
            duration += read_time(dev, self.frame_overhead, frames, bytes);
            scanned += frames as usize;
            if fi == book.frame_count() {
                break;
            }
            from = fi + 1;
            let addr = dev.config().frame_addr(fi);
            let (res, d) = self.check_frame(dev, fi, addr, exact);
            match res {
                Ok(matches) => {
                    duration += d + self.frame_overhead;
                    scanned += 1;
                    if !matches {
                        corrupt.push(CorruptFrame {
                            frame_index: fi,
                            addr,
                        });
                    }
                }
                Err(PortError::Aborted) => {
                    // This frame is skipped this pass; the next scan
                    // covers it.
                    duration += d + self.frame_overhead;
                    aborted += 1;
                }
                Err(PortError::Wedged) => {
                    // The port is dead; stop scanning. The caller must
                    // power-cycle the port and rescan.
                    duration += d;
                    wedged = true;
                    break;
                }
            }
        }
        ScanReport {
            mismatch_fraction: corrupt.len() as f64 / scanned.max(1) as f64,
            frames_scanned: scanned,
            corrupt,
            duration,
            aborted_frames: aborted,
            wedged,
        }
    }

    /// Read frame `fi` (at `addr`) back from `dev` and check it against
    /// its stored CRC: `Ok(true)` when it matches. The match is recorded,
    /// at the frame's stamp, only when `exact` says the read returns
    /// configuration memory as it stands (see
    /// [`Device::skip_clean_frames`]); a mismatch drops the record.
    pub(crate) fn check_frame(
        &mut self,
        dev: &mut Device,
        fi: usize,
        addr: FrameAddr,
        exact: bool,
    ) -> (Result<bool, PortError>, SimDuration) {
        let stamp = dev.config().frame_stamp(fi);
        let (res, d) = dev.try_readback_frame(addr, ReadbackOptions::default());
        let res = res.map(|data| {
            let matches = crc32(&data) == self.codebook.crc(fi);
            if !matches {
                self.codebook.matched[fi] = None;
            } else if exact {
                self.codebook.matched[fi] = Some(stamp);
            }
            matches
        });
        (res, d)
    }

    /// Verify-after-write: [`check_frame`](Self::check_frame) on frame
    /// `fi`, just written. The write moved the frame's stamp, so a skip
    /// walk from `fi` stops there at once and says whether the read is
    /// exact; any other stop counts as not exact.
    pub(crate) fn verify_frame(
        &mut self,
        dev: &mut Device,
        fi: usize,
        addr: FrameAddr,
    ) -> (Result<bool, PortError>, SimDuration) {
        let book = &self.codebook;
        let (at, _, _, exact) = dev.skip_clean_frames(fi, &book.masked, &book.matched);
        self.check_frame(dev, fi, addr, at == fi && exact)
    }

    /// Scan cost without performing readback (used by mission simulation
    /// for known-clean devices — readback of a clean device is a no-op by
    /// construction, but the time still passes). O(1): the per-frame sum
    /// of port time and Actel overhead over the unmasked frames, taken in
    /// integer nanoseconds, so it equals what a clean [`FaultManager::scan`]
    /// charges.
    pub fn scan_cost(&self, dev: &Device) -> SimDuration {
        debug_assert_eq!(dev.config().frame_count(), self.codebook.frame_count());
        let book = &self.codebook;
        read_time(
            dev,
            self.frame_overhead,
            book.scanned_frames,
            book.scanned_bytes,
        )
    }

    /// Repair a frame with golden bytes (fetched from FLASH by the
    /// microprocessor) and reset the design, per Fig. 4.
    pub fn repair(&self, dev: &mut Device, addr: FrameAddr, golden: &[u8]) -> SimDuration {
        let d = dev.partial_configure_frame(addr, golden);
        dev.reset();
        d
    }
}

/// Time to read `frames` frames of `bytes` bytes in all from `dev` and
/// check them: port time plus the Actel's per-frame overhead. In integer
/// nanoseconds this equals the sum of the frames' own read times.
fn read_time(dev: &Device, frame_overhead: SimDuration, frames: u64, bytes: u64) -> SimDuration {
    let t = dev.port_timing;
    SimDuration::from_nanos(
        frames * (t.op_overhead_ns + frame_overhead.as_nanos()) + bytes * t.ns_per_byte,
    )
}

/// Bit-level mask of *live* (run-time-written) positions per frame:
/// truth-table bits of dynamic LUTs and BRAM content bits. Used by
/// read-modify-write scrubbing (paper §IV-B) so repairs do not clobber
/// live data.
#[derive(Debug, Clone, Default)]
pub struct DynamicBitMask {
    /// frame index → offsets (within the frame) that are live.
    by_frame: std::collections::HashMap<usize, Vec<usize>>,
}

impl DynamicBitMask {
    /// Live positions within `frame_index` (empty if none).
    pub fn live_offsets(&self, frame_index: usize) -> &[usize] {
        self.by_frame
            .get(&frame_index)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    pub fn frames_with_live_bits(&self) -> usize {
        self.by_frame.len()
    }
}

/// Compute the dynamic-bit mask for a design image.
pub fn dynamic_bits_for(golden: &Bitstream) -> DynamicBitMask {
    let geom = golden.geometry().clone();
    let mut mask = DynamicBitMask::default();
    for col in 0..geom.cols {
        for row in 0..geom.rows {
            let tile = Tile::new(row, col);
            for slice in 0..2 {
                for lut in 0..2 {
                    let mode = LutMode::from_bits(golden.read_tile_field(
                        tile,
                        lut_mode_offset(slice, lut),
                        2,
                    ));
                    if !mode.is_dynamic() {
                        continue;
                    }
                    for bit in 0..16 {
                        let global =
                            golden.tile_bit_index(tile, lut_table_offset(slice, lut, 0) + bit);
                        let (addr, off) = golden.locate(global);
                        mask.by_frame
                            .entry(golden.frame_index(addr))
                            .or_default()
                            .push(off);
                    }
                }
            }
        }
    }
    // Every BRAM content bit of enabled blocks is live.
    for bc in 0..geom.bram_cols {
        for block in 0..geom.bram_blocks_per_col() {
            let en = golden.read_bram_if_field(bc, block, cibola_arch::frames::BRAM_IF_EN_OFF, 8);
            if en == 0 {
                continue;
            }
            for bit in 0..cibola_arch::geometry::BRAM_BITS {
                let global = golden.bram_content_index(bc, block, bit);
                let (addr, off) = golden.locate(global);
                mask.by_frame
                    .entry(golden.frame_index(addr))
                    .or_default()
                    .push(off);
            }
        }
    }
    mask
}

impl FaultManager {
    /// Read-modify-write repair (paper §IV-B): read the frame back, keep
    /// the *live* bit positions as they are (dynamic LUT contents, BRAM
    /// data), restore every static position from golden, and write the
    /// merged frame. This is what lets scrubbing coexist with LUT-RAM and
    /// BRAM designs instead of masking their frames out entirely.
    ///
    /// The caller must stop the clock around the operation (the paper's
    /// "big assumption… that the RMW operation can be done before the
    /// contents of the RAM or shift register change").
    pub fn repair_rmw(
        &self,
        dev: &mut Device,
        frame_index: usize,
        addr: FrameAddr,
        golden: &[u8],
        mask: &DynamicBitMask,
    ) -> SimDuration {
        let (current, read_cost) = dev.readback_frame(addr, ReadbackOptions::default());
        let mut merged = golden.to_vec();
        for &off in mask.live_offsets(frame_index) {
            let (byte, bit) = (off / 8, off % 8);
            let live = (current[byte] >> bit) & 1;
            merged[byte] = (merged[byte] & !(1 << bit)) | (live << bit);
        }
        read_cost + dev.partial_configure_frame(addr, &merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cibola_arch::{ConfigMemory, Geometry};

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// A non-trivial image with a seeded random subset of frames masked.
    fn image_and_mask(geom: Geometry, seed: u64) -> (Bitstream, HashSet<usize>) {
        let mut cm = ConfigMemory::new(geom);
        let mut s = seed;
        for _ in 0..cm.total_bits() / 50 {
            let i = xorshift(&mut s) as usize % cm.total_bits();
            cm.set_bit(i, true);
        }
        let masked = (0..cm.frame_count())
            .filter(|_| xorshift(&mut s) % 7 == 0)
            .collect();
        (cm, masked)
    }

    #[test]
    fn memoised_self_check_tracks_random_upsets() {
        let (golden, masked) = image_and_mask(Geometry::tiny(), 0xC0DE_B00C);
        let mut book = CrcCodebook::new(&golden, &masked);
        let n = book.frame_count();
        let fresh = |b: &CrcCodebook| CrcCodebook::compute_meta(&b.crcs, &b.masked) == b.meta_crc;
        assert!(book.self_check() && fresh(&book));
        let mut s = 0x5EED_0001u64;
        for round in 0..200 {
            let entry = xorshift(&mut s) as usize % (2 * n);
            let bit = xorshift(&mut s) as usize % 64;
            book.upset(entry, bit);
            assert_eq!(book.self_check(), fresh(&book), "round {round}");
            // Every few rounds, flip the same bit again: that restores
            // the entry, and with it whatever the check said before.
            if round % 3 == 0 {
                let before = book.self_check();
                book.upset(entry, bit);
                assert_eq!(book.self_check(), fresh(&book), "round {round} undo");
                book.upset(entry, bit);
                assert_eq!(book.self_check(), before, "round {round} redo");
            }
        }
        // One upset, then the same bit again: the book is whole again.
        let mut book = CrcCodebook::new(&golden, &masked);
        book.upset(5, 17);
        assert!(!book.self_check());
        book.upset(5, 17);
        assert!(book.self_check() && fresh(&book));
    }

    #[test]
    fn scan_cost_equals_the_per_frame_sum() {
        for (geom, seed) in [(Geometry::tiny(), 1u64), (Geometry::small(), 2)] {
            let (golden, masked) = image_and_mask(geom.clone(), seed);
            let mut dev = Device::new(geom);
            dev.configure_full(&golden);
            // Random mode bits make dynamic LUTs; stop the clock so the
            // readback hazard leaves them alone.
            dev.set_clock_running(false);
            let mut mgr = FaultManager::new(CrcCodebook::new(&golden, &masked));
            for (ns_per_byte, overhead_ns, frame_overhead_ns) in
                [(20, 2_000, 5_000), (7, 0, 0), (1, 13, 999)]
            {
                dev.port_timing.ns_per_byte = ns_per_byte;
                dev.port_timing.op_overhead_ns = overhead_ns;
                mgr.frame_overhead = SimDuration::from_nanos(frame_overhead_ns);
                let mut sum = SimDuration::ZERO;
                for (fi, addr) in dev.config().frame_addrs().enumerate() {
                    if mgr.codebook.is_masked(fi) {
                        continue;
                    }
                    let bytes = dev.config().frame_bytes(addr.block) as u64;
                    sum += SimDuration::from_nanos(overhead_ns + bytes * ns_per_byte)
                        + mgr.frame_overhead;
                }
                assert_eq!(mgr.scan_cost(&dev), sum);
                // A clean scan charges the same time, and so does a warm
                // one that skips every frame it has already matched.
                for _ in 0..2 {
                    let report = mgr.scan(&mut dev);
                    assert!(report.corrupt.is_empty());
                    assert_eq!(report.duration, sum);
                }
            }
        }
    }
}
