//! NoC area model for the hardware-cost discussion (§6.6(1) of the paper).
//!
//! The paper reports that the punch wires plus their combinational relay
//! logic add about **2.4% of NoC area** relative to conventional
//! power-gating. This module reproduces that estimate from first-order
//! constants: the paper's router layout (451 um x 451 um at 45 nm), link
//! wiring proportional to bit count, and a small per-bit relay-logic cost.

/// First-order NoC area model at 45 nm.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaModel {
    /// One router's layout area in um^2 (the paper's 451 um x 451 um).
    pub router_um2: f64,
    /// Wiring + repeater area per link bit in um^2 (128-bit links span one
    /// ~1 mm tile edge; global-layer wire pitch and drivers at 45 nm).
    pub per_link_bit_um2: f64,
    /// Data link width in bits.
    pub link_bits: u32,
    /// Relay/encode logic area per punch-signal bit in um^2 (a handful of
    /// gates per bit, per §6.6: "a direct combinational logic function").
    pub per_punch_bit_logic_um2: f64,
    /// Extra PG-controller area per router for punch handling, um^2.
    pub punch_controller_um2: f64,
}

impl AreaModel {
    /// The calibrated 45 nm model.
    pub fn default_45nm() -> Self {
        AreaModel {
            router_um2: 451.0 * 451.0,
            per_link_bit_um2: 420.0,
            link_bits: 128,
            per_punch_bit_logic_um2: 60.0,
            punch_controller_um2: 900.0,
        }
    }

    /// Baseline NoC area per tile: router + the data links it drives
    /// (two directed links' worth of wiring on average per router in a
    /// mesh, X and Y), plus conventional PG handshake wires (negligible).
    pub fn baseline_tile_um2(&self) -> f64 {
        self.router_um2 + 2.0 * self.link_bits as f64 * self.per_link_bit_um2
    }

    /// Punch-signal area added per tile for the given wire widths
    /// (e.g. 5-bit X, 2-bit Y at H=3): outgoing wires in all four
    /// directions plus relay logic and controller additions.
    pub fn punch_tile_um2(&self, x_bits: u32, y_bits: u32) -> f64 {
        let wire_bits = 2.0 * x_bits as f64 + 2.0 * y_bits as f64;
        wire_bits * self.per_link_bit_um2
            + wire_bits * self.per_punch_bit_logic_um2
            + self.punch_controller_um2
    }

    /// Punch area overhead as a fraction of baseline NoC area — the
    /// paper's "2.4% of additional NoC area" figure for 5/2-bit signals.
    pub fn punch_overhead(&self, x_bits: u32, y_bits: u32) -> f64 {
        self.punch_tile_um2(x_bits, y_bits) / self.baseline_tile_um2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h3_overhead_near_paper_2_4_pct() {
        let m = AreaModel::default_45nm();
        let o = m.punch_overhead(5, 2);
        assert!(
            (0.020..0.029).contains(&o),
            "H=3 punch overhead {o} outside the paper's ~2.4% band"
        );
    }

    #[test]
    fn h4_costs_more_than_h3() {
        let m = AreaModel::default_45nm();
        assert!(m.punch_overhead(8, 3) > m.punch_overhead(5, 2));
    }

    #[test]
    fn overhead_scales_with_bits() {
        let m = AreaModel::default_45nm();
        assert!(m.punch_overhead(0, 0) < 0.01); // controller only
        assert!(m.punch_overhead(5, 2) < m.punch_overhead(10, 4));
    }
}
