//! The power phase of a tick: builds the idleness plane the power manager
//! gates on, hands it this cycle's events, and lets the observers see both
//! sides of the manager's tick.

use punchsim_types::Cycle;

use super::Network;
use crate::power::IdleInfo;

impl Network {
    /// The power phase with idleness derived from the SoA words.
    pub(super) fn power_tick_soa(&mut self, now: Cycle) {
        self.fill_idle();
        self.power_tick_finish(now);
    }

    /// Fills the idleness plane from the SoA words: a router is idle iff
    /// its occupancy and NI-mid-packet bits are clear and no flit is in
    /// flight toward it — exactly the oracle's per-router struct
    /// predicate. The plane persists, so only routers whose busy bit
    /// changed since the last fill are rewritten.
    pub(super) fn fill_idle(&mut self) {
        // No packet in flight means no flit, NI work or inbound wire
        // anywhere: every router is idle.
        let any = !self.packets.is_empty();
        let inbound = any && self.flits.live() > 0;
        for w in 0..self.soa.occ.words().len() {
            let mut busy = 0;
            if any {
                busy = self.soa.occ.words()[w] | self.soa.ni_mid.words()[w];
            }
            if inbound {
                busy |= self.flits.live_word(w);
            }
            self.soa.set_busy(w, busy);
        }
    }

    /// Trace mirroring, the power-manager tick against the filled idleness
    /// plane, and transition recording — shared by the kernel's and the
    /// oracle's power phases.
    pub(super) fn power_tick_finish(&mut self, now: Cycle) {
        self.obs.mirror(now, &self.events);
        let idle = IdleInfo {
            idle: &self.soa.idle,
        };
        self.pm.tick(now, &self.events, idle);
        self.events.clear();
        self.obs.power_transitions(now, self.pm.as_mut());
    }
}
