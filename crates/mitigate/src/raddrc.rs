//! RadDRC — automatic half-latch removal (paper §III-C).
//!
//! "Design mitigation to remove half-latches is best performed
//! automatically rather than by the designer. To this end, we have
//! developed a half-latch removal tool RadDRC that automatically removes
//! half-latches from an application design. The half latches are replaced
//! either by constants from an external source or by LUT ROM constants.
//! Mitigated designs were found to be 100X \[more\] resistant to failure
//! than unmitigated designs."

use cibola_netlist::ir::{Cell, Ctrl, NetId, Netlist};

/// Where the replacement constants come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstSource {
    /// A LUT configured as ROM supplies the constant (costs one LUT per
    /// polarity; no half-latch involved).
    LutRom,
    /// An extra input port tied off-chip supplies constant 1; constant 0
    /// is derived with an inverter.
    ExternalPin,
}

/// What RadDRC changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RadDrcReport {
    /// CE pins rewired from half-latch constants to routed nets.
    pub ce_rewired: usize,
    /// SR pins rewired.
    pub sr_rewired: usize,
    /// Dynamic-LUT write enables rewired.
    pub wen_rewired: usize,
    /// BRAM WE/EN pins rewired.
    pub bram_rewired: usize,
    /// Unused LUT data pins tied to the constant net.
    pub lut_pins_tied: usize,
    /// Constant-generator cells added.
    pub const_cells_added: usize,
    /// Input ports added (ExternalPin mode).
    pub ports_added: usize,
}

impl RadDrcReport {
    pub fn total_rewired(&self) -> usize {
        self.ce_rewired + self.sr_rewired + self.wen_rewired + self.bram_rewired
    }
}

/// Remove half-latches from `nl`. With `tie_lut_pins`, unused LUT data
/// pins (whose half-latches are non-critical thanks to the redundant
/// truth-table encoding) are also tied to real nets, eliminating *every*
/// half-latch the design would otherwise infer.
pub fn remove_half_latches(
    nl: &Netlist,
    source: ConstSource,
    tie_lut_pins: bool,
) -> (Netlist, RadDrcReport) {
    let mut out = nl.clone();
    let mut report = RadDrcReport::default();

    // Lazily created constant nets.
    let mut const_one: Option<NetId> = None;
    let mut const_zero: Option<NetId> = None;
    let mut new_cells: Vec<Cell> = Vec::new();

    // Closure-free helpers (borrowck: we mutate `out` and the options).
    fn get_one(
        out: &mut Netlist,
        new_cells: &mut Vec<Cell>,
        report: &mut RadDrcReport,
        source: ConstSource,
        one: &mut Option<NetId>,
    ) -> NetId {
        if let Some(n) = *one {
            return n;
        }
        let n = match source {
            ConstSource::LutRom => {
                let net = out.fresh_net();
                new_cells.push(Cell::Lut(cibola_netlist::ir::LutCell {
                    out: net,
                    table: 0xffff,
                    ins: [None; 4],
                    mode: cibola_arch::bits::LutMode::Rom,
                    wdata: None,
                    wen: Ctrl::Zero,
                }));
                report.const_cells_added += 1;
                net
            }
            ConstSource::ExternalPin => {
                let net = out.fresh_net();
                out.inputs.push(net);
                report.ports_added += 1;
                net
            }
        };
        *one = Some(n);
        n
    }

    fn get_zero(
        out: &mut Netlist,
        new_cells: &mut Vec<Cell>,
        report: &mut RadDrcReport,
        source: ConstSource,
        one: &mut Option<NetId>,
        zero: &mut Option<NetId>,
    ) -> NetId {
        if let Some(n) = *zero {
            return n;
        }
        let n = match source {
            ConstSource::LutRom => {
                let net = out.fresh_net();
                new_cells.push(Cell::Lut(cibola_netlist::ir::LutCell {
                    out: net,
                    table: 0x0000,
                    ins: [None; 4],
                    mode: cibola_arch::bits::LutMode::Rom,
                    wdata: None,
                    wen: Ctrl::Zero,
                }));
                report.const_cells_added += 1;
                net
            }
            ConstSource::ExternalPin => {
                // Derive 0 from the external 1 with an inverter.
                let src = get_one(out, new_cells, report, source, one);
                let net = out.fresh_net();
                let mut table = 0u16;
                for a in 0..16 {
                    if a & 1 == 0 {
                        table |= 1 << a;
                    }
                }
                new_cells.push(Cell::Lut(cibola_netlist::ir::LutCell {
                    out: net,
                    table,
                    ins: [Some(src), None, None, None],
                    mode: cibola_arch::bits::LutMode::Logic,
                    wdata: None,
                    wen: Ctrl::Zero,
                }));
                report.const_cells_added += 1;
                net
            }
        };
        *zero = Some(n);
        n
    }

    let ncells = out.cells.len();
    for ci in 0..ncells {
        // Decide replacements without holding a borrow of the cell.
        enum Fix {
            FfCe(Ctrl),
            FfSr(Ctrl),
            Wen(Ctrl),
            BramWe(Ctrl),
            BramEn(Ctrl),
            LutPin(usize),
        }
        let mut fixes: Vec<Fix> = Vec::new();
        match &out.cells[ci] {
            Cell::Ff(f) => {
                if f.ce.is_const() {
                    fixes.push(Fix::FfCe(f.ce));
                }
                if f.sr.is_const() {
                    fixes.push(Fix::FfSr(f.sr));
                }
            }
            Cell::Lut(l) => {
                if l.mode.is_dynamic() && l.wen.is_const() {
                    fixes.push(Fix::Wen(l.wen));
                }
                if tie_lut_pins && !l.mode.is_dynamic() {
                    for (p, pin) in l.ins.iter().enumerate() {
                        if pin.is_none() {
                            fixes.push(Fix::LutPin(p));
                        }
                    }
                }
            }
            Cell::Bram(b) => {
                if b.we.is_const() {
                    fixes.push(Fix::BramWe(b.we));
                }
                if b.en.is_const() {
                    fixes.push(Fix::BramEn(b.en));
                }
            }
        }
        for fix in fixes {
            let net_for = |c: Ctrl,
                           out: &mut Netlist,
                           new_cells: &mut Vec<Cell>,
                           report: &mut RadDrcReport,
                           one: &mut Option<NetId>,
                           zero: &mut Option<NetId>| {
                match c {
                    Ctrl::One => get_one(out, new_cells, report, source, one),
                    Ctrl::Zero => get_zero(out, new_cells, report, source, one, zero),
                    Ctrl::Net(n) => n,
                }
            };
            match fix {
                Fix::FfCe(c) => {
                    let n = net_for(
                        c,
                        &mut out,
                        &mut new_cells,
                        &mut report,
                        &mut const_one,
                        &mut const_zero,
                    );
                    if let Cell::Ff(f) = &mut out.cells[ci] {
                        f.ce = Ctrl::Net(n);
                    }
                    report.ce_rewired += 1;
                }
                Fix::FfSr(c) => {
                    let n = net_for(
                        c,
                        &mut out,
                        &mut new_cells,
                        &mut report,
                        &mut const_one,
                        &mut const_zero,
                    );
                    if let Cell::Ff(f) = &mut out.cells[ci] {
                        f.sr = Ctrl::Net(n);
                    }
                    report.sr_rewired += 1;
                }
                Fix::Wen(c) => {
                    let n = net_for(
                        c,
                        &mut out,
                        &mut new_cells,
                        &mut report,
                        &mut const_one,
                        &mut const_zero,
                    );
                    if let Cell::Lut(l) = &mut out.cells[ci] {
                        l.wen = Ctrl::Net(n);
                    }
                    report.wen_rewired += 1;
                }
                Fix::BramWe(c) => {
                    let n = net_for(
                        c,
                        &mut out,
                        &mut new_cells,
                        &mut report,
                        &mut const_one,
                        &mut const_zero,
                    );
                    if let Cell::Bram(b) = &mut out.cells[ci] {
                        b.we = Ctrl::Net(n);
                    }
                    report.bram_rewired += 1;
                }
                Fix::BramEn(c) => {
                    let n = net_for(
                        c,
                        &mut out,
                        &mut new_cells,
                        &mut report,
                        &mut const_one,
                        &mut const_zero,
                    );
                    if let Cell::Bram(b) = &mut out.cells[ci] {
                        b.en = Ctrl::Net(n);
                    }
                    report.bram_rewired += 1;
                }
                Fix::LutPin(p) => {
                    // Tie to constant 1 and keep the (replicated) table —
                    // the pin reading 1 selects the same half of an
                    // already-replicated table, so function is preserved.
                    let n = get_one(
                        &mut out,
                        &mut new_cells,
                        &mut report,
                        source,
                        &mut const_one,
                    );
                    if let Cell::Lut(l) = &mut out.cells[ci] {
                        l.ins[p] = Some(n);
                    }
                    report.lut_pins_tied += 1;
                }
            }
        }
    }

    out.cells.extend(new_cells);
    out.name = format!("{} [RadDRC]", nl.name);
    out.validate().expect("RadDRC output must validate");
    (out, report)
}
