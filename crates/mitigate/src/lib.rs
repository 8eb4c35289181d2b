//! # cibola-mitigate — SEU design mitigation (paper §III)
//!
//! Two mitigation families the paper develops or applies:
//!
//! * **RadDRC** ([`raddrc`]): automatic half-latch removal — constant-tied
//!   control pins are rewired to LUT-ROM constants or an external constant
//!   pin, eliminating the hidden state that readback cannot see and
//!   partial reconfiguration cannot repair. The paper measured mitigated
//!   designs ≈100× more failure-resistant under proton beam.
//! * **TMR** ([`tmr`](mod@tmr)): full and *selective* triple modular redundancy,
//!   the latter targeted at the sensitive cross-section identified by the
//!   SEU simulator's correlation data.
//!
//! Both are netlist transforms. The configuration-scrub strategies flown
//! on orbit (the strategy zoo) live in `cibola-scrub`.

pub mod raddrc;
pub mod tmr;

pub use raddrc::{remove_half_latches, ConstSource, RadDrcReport};
pub use tmr::{selective_tmr, tmr, TmrReport};
