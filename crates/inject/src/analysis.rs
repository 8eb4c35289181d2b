//! Post-campaign analysis: the "correlation table" of paper §III-A.
//!
//! "By repeated exhaustive tests, it is possible to correlate a single-bit
//! upset in the bitstream with an output error. … High correlation between
//! specific locations in the bit stream and output area helps to
//! characterize the sensitive cross-section of the design. Selective
//! Triple Module Redundancy (TMR) or other mitigation techniques can then
//! be selectively applied to the sensitive cross section."

use std::collections::HashMap;

use cibola_arch::bits::BitRole;
use cibola_arch::{BitLocus, Bitstream};
use cibola_netlist::place::CellSite;
use cibola_netlist::Implementation;

use crate::campaign::CampaignResult;

/// Sensitive-bit counts grouped by configuration-bit role.
#[derive(Debug, Clone)]
pub struct RoleBreakdown {
    /// role name → (sensitive bits, of which persistent).
    pub by_role: Vec<(String, usize, usize)>,
}

fn role_name(locus: &BitLocus) -> &'static str {
    match locus {
        BitLocus::Clb { role, .. } => match role {
            BitRole::LutTable { .. } => "lut-table",
            BitRole::InputMux { .. } => "input-mux",
            BitRole::FfInit { .. } => "ff-init",
            BitRole::FfDmux { .. } => "ff-dmux",
            BitRole::OutSel { .. } => "out-sel",
            BitRole::LutModeBit { .. } => "lut-mode",
            BitRole::OutMux { .. } => "outmux",
            BitRole::Pip { .. } => "pip",
            BitRole::SliceReserved { .. } => "reserved",
            BitRole::Pad => "pad",
        },
        BitLocus::Iob { .. } => "iob",
        BitLocus::BramInterface { .. } => "bram-if",
        BitLocus::BramContent { .. } => "bram-content",
    }
}

/// Classify every sensitive bit of a campaign by its configuration role.
/// Routing (input-mux/outmux/pip) dominates real designs, as the paper's
/// sensitive-cross-section discussion expects.
pub fn role_breakdown(result: &CampaignResult, golden: &Bitstream) -> RoleBreakdown {
    let mut map: HashMap<&'static str, (usize, usize)> = HashMap::new();
    for s in &result.sensitive {
        let name = role_name(&golden.describe(s.bit));
        let e = map.entry(name).or_default();
        e.0 += 1;
        if s.persistent {
            e.1 += 1;
        }
    }
    let mut by_role: Vec<(String, usize, usize)> = map
        .into_iter()
        .map(|(k, (s, p))| (k.to_string(), s, p))
        .collect();
    by_role.sort_by_key(|r| std::cmp::Reverse(r.1));
    RoleBreakdown { by_role }
}

/// Per-cell sensitive-bit attribution: how many of the campaign's
/// sensitive bits configure resources of each netlist cell's slot. The
/// descending head of this list is the design's *sensitive cross-section*
/// — the natural protect-set for selective TMR.
pub fn sensitivity_by_cell(result: &CampaignResult, imp: &Implementation) -> Vec<(usize, usize)> {
    // slot (tile, slice, idx) → cell indices.
    let mut slot_cells: HashMap<(u16, u16, u8, u8), Vec<usize>> = HashMap::new();
    for (ci, site) in imp.placement.sites.iter().enumerate() {
        if let CellSite::Slot { slot, .. } = site {
            slot_cells
                .entry((slot.tile.row, slot.tile.col, slot.slice, slot.idx))
                .or_default()
                .push(ci);
        }
    }
    let mut per_cell: HashMap<usize, usize> = HashMap::new();
    for s in &result.sensitive {
        if let BitLocus::Clb { tile, role } = imp.bitstream.describe(s.bit) {
            let (slice, idx) = match role {
                BitRole::LutTable { slice, lut, .. } | BitRole::LutModeBit { slice, lut, .. } => {
                    (slice, lut)
                }
                BitRole::InputMux { slice, pin, .. } => (slice, (pin.index() % 2) as u8),
                BitRole::FfInit { slice, ff } | BitRole::FfDmux { slice, ff } => (slice, ff),
                BitRole::OutSel { slice, out } => (slice, out),
                // Routing bits attribute to whichever slot(s) the tile
                // hosts; split evenly by charging slot 0 of slice 0 (the
                // coarse attribution is enough to rank cells).
                _ => (0, 0),
            };
            if let Some(cells) = slot_cells.get(&(tile.row, tile.col, slice, idx)) {
                for &ci in cells {
                    *per_cell.entry(ci).or_default() += 1;
                }
            }
        }
    }
    let mut v: Vec<(usize, usize)> = per_cell.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

/// The protect-set for selective TMR: cell indices covering `fraction` of
/// the attributed sensitive bits (most-sensitive first). Each chosen
/// cell's placement partner (the flip-flop or LUT sharing its slot) is
/// pulled in too, keeping pairs intact.
pub fn selective_protect_set(
    result: &CampaignResult,
    imp: &Implementation,
    fraction: f64,
) -> std::collections::HashSet<usize> {
    let ranked = sensitivity_by_cell(result, imp);
    let total: usize = ranked.iter().map(|&(_, n)| n).sum();
    let budget = (total as f64 * fraction.clamp(0.0, 1.0)).ceil() as usize;
    let mut chosen = std::collections::HashSet::new();
    let mut covered = 0usize;
    for (ci, n) in ranked {
        if covered >= budget {
            break;
        }
        chosen.insert(ci);
        if let Some(pi) = imp.placement.partner[ci] {
            chosen.insert(pi);
        }
        covered += n;
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign_wide, BitSelection, CampaignConfig};
    use crate::testbed::Testbed;
    use cibola_arch::Geometry;
    use cibola_netlist::{gen, implement};

    fn campaign() -> (CampaignResult, Implementation) {
        let nl = gen::counter_adder(6);
        let imp = implement(&nl, &Geometry::tiny()).unwrap();
        let tb = Testbed::new(&imp, 1, 128);
        let r = run_campaign_wide(
            &tb,
            &CampaignConfig {
                observe_cycles: 48,
                persist_cycles: 48,
                selection: BitSelection::ActiveClosure,
                ..Default::default()
            },
        );
        (r, imp)
    }

    #[test]
    fn routing_dominates_the_sensitive_cross_section() {
        let (r, imp) = campaign();
        let roles = role_breakdown(&r, &imp.bitstream);
        let routing: usize = roles
            .by_role
            .iter()
            .filter(|(n, _, _)| n == "input-mux" || n == "outmux" || n == "pip")
            .map(|&(_, s, _)| s)
            .sum();
        let total: usize = roles.by_role.iter().map(|&(_, s, _)| s).sum();
        assert!(total > 0);
        assert!(
            routing * 2 > total,
            "routing should dominate: {routing}/{total} ({roles:?})"
        );
        // Pads and reserved bits can never be sensitive.
        assert!(roles
            .by_role
            .iter()
            .all(|(n, _, _)| n != "pad" && n != "reserved"));
    }

    #[test]
    fn protect_set_grows_with_fraction_and_keeps_pairs() {
        let (r, imp) = campaign();
        let small = selective_protect_set(&r, &imp, 0.3);
        let large = selective_protect_set(&r, &imp, 0.9);
        assert!(!small.is_empty());
        assert!(large.len() >= small.len());
        for &ci in &large {
            if let Some(pi) = imp.placement.partner[ci] {
                assert!(large.contains(&pi), "pair of cell {ci} missing");
            }
        }
    }
}
