//! The power phase of a tick: builds the idleness plane the power manager
//! gates on, hands it this cycle's events, and lets the observers see both
//! sides of the manager's tick.

use punchsim_types::Cycle;

use super::Network;
use crate::power::IdleInfo;

impl Network {
    /// The power phase with idleness derived from the SoA words: a router
    /// is idle iff its occupancy and NI-mid-packet bits are clear and no
    /// flit is in flight toward it — exactly the oracle's per-router struct
    /// predicate.
    pub(super) fn power_tick_soa(&mut self, now: Cycle) {
        self.soa.idle.clear();
        self.soa.idle.resize(self.routers.len(), true);
        if !self.packets.is_empty() {
            let occ = self.soa.occ.words();
            let mid = self.soa.ni_mid.words();
            let inbound = self.flits.live() > 0;
            for (w, chunk) in self.soa.idle.chunks_mut(64).enumerate() {
                let mut busy = occ[w] | mid[w];
                if inbound {
                    busy |= self.flits.live_word(w);
                }
                while busy != 0 {
                    chunk[busy.trailing_zeros() as usize] = false;
                    busy &= busy - 1;
                }
            }
        }
        self.power_tick_finish(now);
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
