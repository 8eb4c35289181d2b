//! Structural netlist IR.
//!
//! The unit the paper's CAD flow consumes: LUTs, flip-flops and BRAMs wired
//! by single-driver nets. Control pins (CE/SR) may be tied to a constant —
//! exactly the construct the Xilinx tools implement with a *half-latch*
//! (paper §III-C), and the construct `cibola-mitigate`'s RadDRC rewrites.

pub use cibola_arch::bits::LutMode;

/// A net (single driver, any number of sinks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// A control-pin connection: constant (→ half-latch in the unmitigated
/// flow) or a routed net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ctrl {
    /// Tied to constant 0.
    Zero,
    /// Tied to constant 1.
    One,
    /// Driven by a net.
    Net(NetId),
}

impl Ctrl {
    pub fn net(self) -> Option<NetId> {
        match self {
            Ctrl::Net(n) => Some(n),
            _ => None,
        }
    }

    /// True when this pin will be realised with a half-latch constant.
    pub fn is_const(self) -> bool {
        !matches!(self, Ctrl::Net(_))
    }
}

/// A 4-input LUT. Unused pins are `None` (kept by non-critical,
/// redundantly-encoded half-latches; the truth table must be replicated
/// across them — [`crate::build::NetlistBuilder::lut`] guarantees this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LutCell {
    pub out: NetId,
    pub table: u16,
    pub ins: [Option<NetId>; 4],
    pub mode: LutMode,
    /// RAM/SRL16 write data (BX/BY pin).
    pub wdata: Option<NetId>,
    /// RAM/SRL16 write enable (SRX/SRY pin).
    pub wen: Ctrl,
}

/// A D flip-flop with clock-enable and synchronous reset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FfCell {
    pub out: NetId,
    pub d: NetId,
    pub ce: Ctrl,
    pub sr: Ctrl,
    pub init: bool,
}

/// A 256×16 Block SelectRAM port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BramCell {
    pub addr: [Option<NetId>; 8],
    pub din: [Option<NetId>; 16],
    /// Output nets for data-out bits actually consumed.
    pub dout: [Option<NetId>; 16],
    pub we: Ctrl,
    pub en: Ctrl,
    /// Initial contents (256 words).
    pub init: Vec<u16>,
}

/// A netlist cell.
#[allow(clippy::large_enum_variant)] // BRAM init tables dominate; boxing would indirect every sim access
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cell {
    Lut(LutCell),
    Ff(FfCell),
    Bram(BramCell),
}

/// A complete design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    pub name: String,
    pub(crate) num_nets: u32,
    /// Input ports in order.
    pub inputs: Vec<NetId>,
    /// Output ports in order.
    pub outputs: Vec<NetId>,
    pub cells: Vec<Cell>,
}

impl Netlist {
    /// An empty netlist (used by transformation tools that rebuild designs
    /// cell by cell).
    pub fn empty(name: &str) -> Self {
        Netlist {
            name: name.to_string(),
            num_nets: 0,
            inputs: Vec::new(),
            outputs: Vec::new(),
            cells: Vec::new(),
        }
    }

    pub fn num_nets(&self) -> usize {
        self.num_nets as usize
    }

    /// Allocate a fresh net (used by mitigation rewrites).
    pub fn fresh_net(&mut self) -> NetId {
        let id = NetId(self.num_nets);
        self.num_nets += 1;
        id
    }

    pub fn lut_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c, Cell::Lut(_)))
            .count()
    }

    pub fn ff_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c, Cell::Ff(_)))
            .count()
    }

    pub fn bram_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c, Cell::Bram(_)))
            .count()
    }

    /// Count of constant-tied control pins — the half-latch sites the
    /// unmitigated CAD flow will create (CE/SR of every FF, WE of dynamic
    /// LUTs, WE/EN of BRAMs, plus unused LUT data pins, which are counted
    /// separately as non-critical).
    pub fn const_ctrl_pins(&self) -> usize {
        self.cells
            .iter()
            .map(|c| match c {
                Cell::Ff(ff) => ff.ce.is_const() as usize + ff.sr.is_const() as usize,
                Cell::Lut(l) => (l.mode.is_dynamic() && l.wen.is_const()) as usize,
                Cell::Bram(b) => b.we.is_const() as usize + b.en.is_const() as usize,
            })
            .sum()
    }

    /// The driver of each net, for validation: `inputs` drive their nets,
    /// each cell output drives its net. Returns an error string on
    /// multiple-driver or undriven-usage violations.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nets as usize;
        let mut driven = vec![false; n];
        let mut drive = |net: NetId| -> Result<(), String> {
            let i = net.0 as usize;
            if i >= n {
                return Err(format!("net {i} out of range {n}"));
            }
            if driven[i] {
                return Err(format!("net {i} has multiple drivers"));
            }
            driven[i] = true;
            Ok(())
        };
        for &p in &self.inputs {
            drive(p)?;
        }
        for cell in &self.cells {
            match cell {
                Cell::Lut(l) => drive(l.out)?,
                Cell::Ff(f) => drive(f.out)?,
                Cell::Bram(b) => {
                    for d in b.dout.iter().flatten() {
                        drive(*d)?;
                    }
                }
            }
        }
        let check = |net: NetId, what: &str| -> Result<(), String> {
            let i = net.0 as usize;
            if i >= n || !driven[i] {
                Err(format!("{what}: net {i} used but never driven"))
            } else {
                Ok(())
            }
        };
        for cell in &self.cells {
            match cell {
                Cell::Lut(l) => {
                    for p in l.ins.iter().flatten() {
                        check(*p, "lut pin")?;
                    }
                    if let Some(w) = l.wdata {
                        check(w, "lut wdata")?;
                    }
                    if let Some(nn) = l.wen.net() {
                        check(nn, "lut wen")?;
                    }
                }
                Cell::Ff(f) => {
                    check(f.d, "ff d")?;
                    if let Some(nn) = f.ce.net() {
                        check(nn, "ff ce")?;
                    }
                    if let Some(nn) = f.sr.net() {
                        check(nn, "ff sr")?;
                    }
                }
                Cell::Bram(b) => {
                    for p in b.addr.iter().flatten() {
                        check(*p, "bram addr")?;
                    }
                    for p in b.din.iter().flatten() {
                        check(*p, "bram din")?;
                    }
                    if let Some(nn) = b.we.net() {
                        check(nn, "bram we")?;
                    }
                    if let Some(nn) = b.en.net() {
                        check(nn, "bram en")?;
                    }
                }
            }
        }
        for &p in &self.outputs {
            check(p, "output port")?;
        }
        Ok(())
    }

    /// Fan-out count per net.
    pub fn fanout(&self) -> Vec<u32> {
        let mut f = vec![0u32; self.num_nets as usize];
        let mut bump = |net: &NetId| f[net.0 as usize] += 1;
        for cell in &self.cells {
            match cell {
                Cell::Lut(l) => {
                    l.ins.iter().flatten().for_each(&mut bump);
                    l.wdata.iter().for_each(&mut bump);
                    l.wen.net().iter().for_each(&mut bump);
                }
                Cell::Ff(fc) => {
                    bump(&fc.d);
                    fc.ce.net().iter().for_each(&mut bump);
                    fc.sr.net().iter().for_each(&mut bump);
                }
                Cell::Bram(b) => {
                    b.addr.iter().flatten().for_each(&mut bump);
                    b.din.iter().flatten().for_each(&mut bump);
                    b.we.net().iter().for_each(&mut bump);
                    b.en.net().iter().for_each(&mut bump);
                }
            }
        }
        for p in &self.outputs {
            bump(p);
        }
        f
    }
}
