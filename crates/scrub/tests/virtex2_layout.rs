//! Paper §IV-A: the Virtex-II frame layout concentrates LUT data into few
//! frames per column, so designs using LUT-RAM/SRL16 mask far less of the
//! bitstream from the scrubber than on Virtex — while behaving
//! identically.

use cibola_arch::{Device, Geometry};
use cibola_netlist::{implement, NetlistBuilder, NetlistSim, Stimulus};
use cibola_scrub::masked_frames_for;

/// A design with one SRL16 in every fourth column's worth of logic, plus
/// plain registers — the shape that hurts Virtex scrubbing coverage.
fn srl_heavy_design(srls: usize) -> cibola_netlist::Netlist {
    let mut b = NetlistBuilder::new("srl-heavy");
    let x = b.input();
    let one = b.const_net(true);
    let mut n = x;
    let mut outs = Vec::new();
    for i in 0..srls {
        // Spacer registers spread the SRLs across columns.
        for _ in 0..12 {
            n = b.ff(n, false);
        }
        let tap = b.srl16(&[one, one], n, cibola_netlist::Ctrl::One, 0);
        outs.push(tap);
        n = tap;
        let _ = i;
    }
    b.outputs(&outs);
    b.finish()
}

#[test]
fn virtex2_layout_is_behaviourally_identical() {
    let nl = srl_heavy_design(3);
    let v1 = Geometry::tiny();
    let v2 = Geometry::tiny().with_virtex2_layout();

    let imp1 = implement(&nl, &v1).unwrap();
    let imp2 = implement(&nl, &v2).unwrap();

    let mut d1 = Device::new(v1);
    d1.configure_full(&imp1.bitstream);
    let mut d2 = Device::new(v2);
    d2.configure_full(&imp2.bitstream);
    let mut reference = NetlistSim::new(&nl);
    let mut stim = Stimulus::new(5, nl.inputs.len());
    for c in 0..200 {
        let iv = stim.next_vector();
        let o1 = d1.step(&iv);
        let o2 = d2.step(&iv);
        let mut r = reference.step(&iv);
        r.resize(o1.len(), false);
        assert_eq!(o1, r, "Virtex run diverged at {c}");
        assert_eq!(o2, r, "Virtex-II run diverged at {c}");
    }
}

/// Frames masked per design on the tiny and small devices, each under
/// the Virtex and the Virtex-II layout. An SRL16's table spans 16 frames
/// of its column under Virtex and 2 under Virtex-II ("most of the
/// bitstream data for that column of CLBs can be read back"); an enabled
/// BRAM block masks its 4 content frames under either; a design with no
/// dynamic state masks none.
#[test]
fn virtex2_masks_fewer_frames_for_dynamic_designs() {
    let designs = [
        (srl_heavy_design(4), [32, 5, 16, 3]),
        (srl16_delay_line(), [16, 2, 16, 2]),
        (bram_rom(), [4, 4, 4, 4]),
        (cibola_netlist::gen::counter_adder(4), [0, 0, 0, 0]),
    ];
    let layouts = [Geometry::tiny(), Geometry::small()]
        .into_iter()
        .flat_map(|g| [g.clone(), g.with_virtex2_layout()]);
    for (i, geom) in layouts.enumerate() {
        for (nl, want) in &designs {
            let imp = implement(nl, &geom).unwrap();
            let masked = masked_frames_for(&imp.bitstream).len();
            assert_eq!(masked, want[i], "{} on {} (layout {i})", nl.name, geom.name);
        }
    }
}

#[test]
fn virtex2_roundtrips_frames_and_describe() {
    let geom = Geometry::tiny().with_virtex2_layout();
    let nl = srl_heavy_design(2);
    let imp = implement(&nl, &geom).unwrap();
    let cm = &imp.bitstream;
    // locate/describe stay exact inverses under the permuted layout.
    for i in (0..cm.total_bits()).step_by(977) {
        let (addr, off) = cm.locate(i);
        assert_eq!(cm.frame_base(addr) + off, i);
        let _ = cm.describe(i); // must not panic
    }
    // Frame write/read roundtrip.
    for addr in cm.frame_addrs().collect::<Vec<_>>() {
        let data = cm.read_frame(addr);
        let mut cm2 = cm.clone();
        cm2.write_frame(addr, &data);
        assert!(cm2.diff(cm).is_empty());
    }
}

/// The SRL16 delay line of the CAD-flow suite: one dynamic LUT.
fn srl16_delay_line() -> cibola_netlist::Netlist {
    let mut b = NetlistBuilder::new("srl-delay");
    let x = b.input();
    let one = b.const_net(true);
    let tap = b.srl16(&[one, one], x, cibola_netlist::Ctrl::One, 0);
    let q = b.ff(tap, false);
    b.output(q);
    b.finish()
}

/// The BRAM ROM of the CAD-flow suite: one enabled block addressed by a
/// 4-bit counter.
fn bram_rom() -> cibola_netlist::Netlist {
    let mut b = NetlistBuilder::new("bram-rom");
    let init: Vec<u16> = (0..256).map(|a| (a as u16) * 0x0101).collect();
    let ctr = {
        let d: Vec<_> = (0..4).map(|_| b.forward()).collect();
        let q: Vec<_> = d.iter().map(|&dn| b.ff_from_forward(dn, false)).collect();
        b.lut_into(d[0], &[q[0]], |x| x & 1 == 0);
        let mut carry = q[0];
        for i in 1..4 {
            b.lut_into(d[i], &[q[i], carry], |x| ((x & 1) ^ ((x >> 1) & 1)) == 1);
            if i + 1 < 4 {
                carry = b.and2(q[i], carry);
            }
        }
        q
    };
    let dout = b.bram(
        &ctr,
        &[],
        cibola_netlist::Ctrl::Zero,
        cibola_netlist::Ctrl::One,
        init,
    );
    b.outputs(&dout[..8]);
    b.finish()
}
