//! Triple modular redundancy (paper §III-A: "Selective Triple Module
//! Redundancy (TMR) or other mitigation techniques can then be selectively
//! applied to the sensitive cross section").
//!
//! Full TMR triplicates every cell; a majority voter follows each
//! flip-flop triple (so state errors cannot accumulate) and each output
//! port. Selective TMR triplicates only a chosen subset of cells —
//! typically those whose configuration bits the SEU simulator found
//! sensitive — trading area for coverage.

use std::collections::HashSet;

use cibola_netlist::ir::{BramCell, Cell, Ctrl, FfCell, LutCell, LutMode, NetId, Netlist};

/// TMR transformation statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TmrReport {
    pub cells_triplicated: usize,
    pub cells_untouched: usize,
    pub voters_added: usize,
}

/// Majority truth table for a 3-input LUT.
fn majority_table() -> u16 {
    let mut t = 0u16;
    for a in 0..16usize {
        if (a & 7).count_ones() >= 2 {
            t |= 1 << a;
        }
    }
    t
}

/// Apply full TMR.
pub fn tmr(nl: &Netlist) -> (Netlist, TmrReport) {
    let all: HashSet<usize> = (0..nl.cells.len()).collect();
    selective_tmr(nl, &all)
}

/// Apply TMR to the cells in `protect` (indices into `nl.cells`).
///
/// Nets driven by protected cells exist in three copies; a voter reduces
/// each protected flip-flop triple (and each output port) to a single
/// voted net, which is what unprotected consumers and port logic read.
/// Unprotected nets feed all three replicas identically.
pub fn selective_tmr(nl: &Netlist, protect: &HashSet<usize>) -> (Netlist, TmrReport) {
    let mut out = Netlist::empty(&format!(
        "{} [TMR{}]",
        nl.name,
        if protect.len() == nl.cells.len() {
            ""
        } else {
            "-sel"
        }
    ));
    let mut report = TmrReport::default();

    // Map original net → up to three replica nets. Unreplicated nets have
    // one entry used for all domains.
    let nn = nl.num_nets();
    let mut map: Vec<[Option<NetId>; 3]> = vec![[None; 3]; nn];

    // Inputs are shared across domains.
    for p in &nl.inputs {
        let n = out.fresh_net();
        out.inputs.push(n);
        map[p.0 as usize] = [Some(n); 3];
    }

    // Pre-allocate output nets for every cell so feedback loops resolve.
    for (ci, cell) in nl.cells.iter().enumerate() {
        let domains = if protect.contains(&ci) { 3 } else { 1 };
        match cell {
            Cell::Lut(l) => {
                alloc(&mut out, &mut map, l.out, domains);
            }
            Cell::Ff(f) => {
                alloc(&mut out, &mut map, f.out, domains);
            }
            Cell::Bram(b) => {
                for d in b.dout.iter().flatten() {
                    alloc(&mut out, &mut map, *d, domains);
                }
            }
        }
    }

    let read = |map: &Vec<[Option<NetId>; 3]>, n: NetId, dom: usize| -> NetId {
        let entry = map[n.0 as usize];
        entry[dom]
            .or(entry[0])
            .unwrap_or_else(|| panic!("net {} unmapped", n.0))
    };
    let read_ctrl = |map: &Vec<[Option<NetId>; 3]>, c: Ctrl, dom: usize| -> Ctrl {
        match c {
            Ctrl::Net(n) => Ctrl::Net(read(map, n, dom)),
            other => other,
        }
    };

    for (ci, cell) in nl.cells.iter().enumerate() {
        let domains = if protect.contains(&ci) { 3 } else { 1 };
        if domains == 3 {
            report.cells_triplicated += 1;
        } else {
            report.cells_untouched += 1;
        }
        for dom in 0..domains {
            match cell {
                Cell::Lut(l) => {
                    let mut ins = [None; 4];
                    for (p, pin) in l.ins.iter().enumerate() {
                        ins[p] = pin.map(|n| read(&map, n, dom));
                    }
                    out.cells.push(Cell::Lut(LutCell {
                        out: map[l.out.0 as usize][dom].unwrap(),
                        table: l.table,
                        ins,
                        mode: l.mode,
                        wdata: l.wdata.map(|n| read(&map, n, dom)),
                        wen: read_ctrl(&map, l.wen, dom),
                    }));
                }
                Cell::Ff(f) => {
                    out.cells.push(Cell::Ff(FfCell {
                        out: map[f.out.0 as usize][dom].unwrap(),
                        d: read(&map, f.d, dom),
                        ce: read_ctrl(&map, f.ce, dom),
                        sr: read_ctrl(&map, f.sr, dom),
                        init: f.init,
                    }));
                }
                Cell::Bram(b) => {
                    let mut addr = [None; 8];
                    for (i, a) in b.addr.iter().enumerate() {
                        addr[i] = a.map(|n| read(&map, n, dom));
                    }
                    let mut din = [None; 16];
                    for (i, d) in b.din.iter().enumerate() {
                        din[i] = d.map(|n| read(&map, n, dom));
                    }
                    let mut dout = [None; 16];
                    for (i, d) in b.dout.iter().enumerate() {
                        dout[i] = d.map(|n| map[n.0 as usize][dom].unwrap());
                    }
                    out.cells.push(Cell::Bram(BramCell {
                        addr,
                        din,
                        dout,
                        we: read_ctrl(&map, b.we, dom),
                        en: read_ctrl(&map, b.en, dom),
                        init: b.init.clone(),
                    }));
                }
            }
        }
        // Voter after each protected flip-flop: the voted value replaces
        // the FF's net for *all* domains downstream, so a single corrupted
        // replica is masked every cycle and cannot accumulate.
        if domains == 3 {
            if let Cell::Ff(f) = cell {
                let q = map[f.out.0 as usize];
                let voted = out.fresh_net();
                out.cells.push(Cell::Lut(LutCell {
                    out: voted,
                    table: majority_table(),
                    ins: [q[0], q[1], q[2], None],
                    mode: LutMode::Logic,
                    wdata: None,
                    wen: Ctrl::Zero,
                }));
                report.voters_added += 1;
                map[f.out.0 as usize] = [Some(voted); 3];
            }
        }
    }

    // Output voters (or plain binding for unreplicated nets).
    for p in &nl.outputs {
        let entry = map[p.0 as usize];
        match (entry[0], entry[1], entry[2]) {
            (Some(a), Some(b), Some(c)) if b != a || c != a => {
                let voted = out.fresh_net();
                out.cells.push(Cell::Lut(LutCell {
                    out: voted,
                    table: majority_table(),
                    ins: [Some(a), Some(b), Some(c), None],
                    mode: LutMode::Logic,
                    wdata: None,
                    wen: Ctrl::Zero,
                }));
                report.voters_added += 1;
                out.outputs.push(voted);
            }
            (Some(a), _, _) => out.outputs.push(a),
            _ => panic!("output net {} unmapped", p.0),
        }
    }

    out.validate().expect("TMR output must validate");
    (out, report)
}

fn alloc(out: &mut Netlist, map: &mut [[Option<NetId>; 3]], n: NetId, domains: usize) {
    let mut entry = [None; 3];
    for slot in entry.iter_mut().take(domains) {
        *slot = Some(out.fresh_net());
    }
    if domains == 1 {
        entry[1] = entry[0];
        entry[2] = entry[0];
    }
    map[n.0 as usize] = entry;
}
