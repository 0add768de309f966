//! Simulation configuration, mirroring Table 2 of the paper, plus the
//! fault-injection and watchdog sections that make the paper's safety-net
//! argument (§4.1–4.2: punches are pure optimization) executable.

use crate::error::ConfigError;
use crate::routing::{RouteView, RoutingKind};
use crate::topology::Substrate;
use crate::{Cycle, NodeId};

/// Which power-gating scheme drives the routers (§5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Baseline: no power-gating, all routers always on.
    NoPg,
    /// Conventional power-gating: a sleeping router is woken only when a
    /// blocked packet at a neighbour (or the local NI) needs it.
    ConvPg,
    /// Conventional power-gating optimized with the idle timeout filter and
    /// the one-hop early wakeup at route-computation time — the paper's
    /// `ConvOpt-PG` comparison point.
    ConvOptPg,
    /// Power Punch with multi-hop punch signals only (no NI slack) —
    /// `PowerPunch-Signal`.
    PowerPunchSignal,
    /// Full Power Punch: multi-hop punch signals plus injection-node slack —
    /// `PowerPunch-PG`.
    PowerPunchFull,
    /// Rival baseline: SDM-based circuit switching ("Ultra Low-Power
    /// SDM-based Circuit-Switching for NoCs"). A setup request walks the
    /// route ahead of the head flit; once the circuit is established, its
    /// routers are bypassed — data flows through the pre-configured SDM
    /// lanes while the router control plane stays gated off.
    SdmCircuit,
    /// Rival baseline: bufferless ring-style router ("A Ring Router
    /// Microarchitecture for NoCs"). Removes the input buffers leakage
    /// comes from; contention costs deflection/latching latency instead of
    /// buffering.
    RingRouter,
}

/// Per-scheme knobs for the analytical power/area models. The paper's
/// schemes all use [`SchemePowerProfile::BASELINE`] (every scale exactly
/// `1.0`), which keeps their energy numbers bit-identical to the historic
/// `default_45nm` model; rivals deviate where their microarchitecture
/// differs from the paper's buffered VC router.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemePowerProfile {
    /// Scale on per-cycle router leakage. The bufferless ring router
    /// removes the input buffers, which hold the dominant share of router
    /// leakage at 45 nm.
    pub static_scale: f64,
    /// Scale on buffer read/write dynamic energy. SDM circuits bypass VC
    /// buffering once established; the ring router replaces buffers with
    /// pipeline latches.
    pub buffer_dynamic_scale: f64,
    /// Extra dynamic energy per link traversal, in pJ — the ring router's
    /// deflection/latching cost paid on every hop.
    pub extra_link_pj: f64,
    /// Whether the router keeps packet buffers at all (drives the area
    /// model: a bufferless router is substantially smaller).
    pub buffered: bool,
}

impl SchemePowerProfile {
    /// The paper's buffered VC router: all scales neutral.
    pub const BASELINE: SchemePowerProfile = SchemePowerProfile {
        static_scale: 1.0,
        buffer_dynamic_scale: 1.0,
        extra_link_pj: 0.0,
        buffered: true,
    };
}

/// One scheme's metadata: the stable tag, the paper-legend label, a
/// one-line description, and the power-model parameters. This table
/// ([`SchemeKind::METAS`]) is **the** single place scheme identity data
/// lives — parsing, `Display`, CLI help, artifact ids and the power model
/// all derive from it. The one scheme → `PowerManager` mapping is the
/// `match` in `punchsim_core::build_power_manager`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeMeta {
    /// The scheme this entry describes.
    pub kind: SchemeKind,
    /// Stable machine-readable tag (CLI values, spec ids, artifact keys).
    pub tag: &'static str,
    /// Paper-legend display label.
    pub label: &'static str,
    /// One-line description for `punchsim-cli list-schemes`.
    pub description: &'static str,
    /// Power/area-model parameters.
    pub power: SchemePowerProfile,
}

impl SchemeKind {
    /// Every scheme, in [`SchemeKind::METAS`] order.
    pub const ALL: [SchemeKind; 7] = [
        SchemeKind::NoPg,
        SchemeKind::ConvPg,
        SchemeKind::ConvOptPg,
        SchemeKind::PowerPunchSignal,
        SchemeKind::PowerPunchFull,
        SchemeKind::SdmCircuit,
        SchemeKind::RingRouter,
    ];

    /// The four schemes evaluated in the paper's figures, in figure order.
    pub const EVALUATED: [SchemeKind; 4] = [
        SchemeKind::NoPg,
        SchemeKind::ConvOptPg,
        SchemeKind::PowerPunchSignal,
        SchemeKind::PowerPunchFull,
    ];

    /// The structurally different rival baselines (ROADMAP item 3): not in
    /// the paper's figures, never added to [`SchemeKind::EVALUATED`] (the
    /// checked-in BENCH baselines key on that set staying fixed).
    pub const RIVALS: [SchemeKind; 2] = [SchemeKind::SdmCircuit, SchemeKind::RingRouter];

    /// The scheme table: one entry per scheme, in [`SchemeKind::ALL`] order. Tags are **forever** — cached campaign
    /// results and checked-in baselines key on them; never rename one.
    pub const METAS: [SchemeMeta; 7] = [
        SchemeMeta {
            kind: SchemeKind::NoPg,
            tag: "nopg",
            label: "No-PG",
            description: "all routers always on; the paper's no-power-gating baseline",
            power: SchemePowerProfile::BASELINE,
        },
        SchemeMeta {
            kind: SchemeKind::ConvPg,
            tag: "conv",
            label: "Conv-PG",
            description: "conventional power-gating: the WU handshake wakes routers on demand",
            power: SchemePowerProfile::BASELINE,
        },
        SchemeMeta {
            kind: SchemeKind::ConvOptPg,
            tag: "convopt",
            label: "ConvOpt-PG",
            description: "conventional PG plus idle-timeout filter and one-hop early wakeup",
            power: SchemePowerProfile::BASELINE,
        },
        SchemeMeta {
            kind: SchemeKind::PowerPunchSignal,
            tag: "pps",
            label: "PowerPunch-Signal",
            description: "multi-hop punch signals only, no injection-node slack (paper 4.1)",
            power: SchemePowerProfile::BASELINE,
        },
        SchemeMeta {
            kind: SchemeKind::PowerPunchFull,
            tag: "ppf",
            label: "PowerPunch-PG",
            description: "punch signals plus NI slack 1/2; the paper's full scheme (4.2)",
            power: SchemePowerProfile::BASELINE,
        },
        SchemeMeta {
            kind: SchemeKind::SdmCircuit,
            tag: "sdm",
            label: "SDM-Circuit",
            description: "SDM circuit switching: setup walks ahead, established circuits \
                          bypass gated-off routers",
            power: SchemePowerProfile {
                // Router leakage is unchanged — savings come from circuits
                // letting the control plane stay gated while data flows.
                static_scale: 1.0,
                // Established circuits bypass VC buffering; most flits ride
                // the pre-configured lanes.
                buffer_dynamic_scale: 0.4,
                extra_link_pj: 0.0,
                buffered: true,
            },
        },
        SchemeMeta {
            kind: SchemeKind::RingRouter,
            tag: "ring",
            label: "Ring-Router",
            description: "bufferless ring-style router: no buffer leakage, deflection \
                          latency instead of buffering",
            power: SchemePowerProfile {
                // Input buffers hold the dominant share of router leakage
                // at 45 nm; removing them leaves crossbar + control.
                static_scale: 0.45,
                // Pipeline latches replace buffer reads/writes.
                buffer_dynamic_scale: 0.35,
                // Deflection/latching cost per hop.
                extra_link_pj: 3.0,
                buffered: false,
            },
        },
    ];

    /// This scheme's [`SchemeKind::METAS`] row.
    pub fn meta(self) -> &'static SchemeMeta {
        // ALL order == METAS order (pinned by `metas_cover_all_in_order`);
        // a direct index keeps the hot tag()/label() paths O(1).
        &Self::METAS[self as usize]
    }

    /// Short label used in figure output, matching the paper's legends.
    pub fn label(self) -> &'static str {
        self.meta().label
    }

    /// Stable machine-readable tag: CLI flag values, campaign spec ids and
    /// `BENCH_*.json` artifacts all use these. Never rename a tag — cached
    /// campaign results and checked-in baselines key on them.
    pub fn tag(self) -> &'static str {
        self.meta().tag
    }

    /// The power/area-model parameter hook for this scheme.
    pub fn power_profile(self) -> &'static SchemePowerProfile {
        &self.meta().power
    }

    /// Parses a [`SchemeKind::tag`] back into a scheme.
    pub fn from_tag(tag: &str) -> Option<SchemeKind> {
        Self::METAS.iter().find(|m| m.tag == tag).map(|m| m.kind)
    }

    /// Parses a scheme from its tag *or* its display label, so
    /// `parse(k.to_string())` round-trips for every registered scheme.
    /// Unknown inputs yield the typed [`ConfigError::UnknownScheme`].
    pub fn parse(s: &str) -> Result<SchemeKind, ConfigError> {
        Self::METAS
            .iter()
            .find(|m| m.tag == s || m.label == s)
            .map(|m| m.kind)
            .ok_or_else(|| ConfigError::UnknownScheme {
                input: s.to_string(),
            })
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Router microarchitecture and network parameters (Table 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NocConfig {
    /// Network substrate (Table 2 evaluates 4x4, 8x8 and 16x16 meshes;
    /// default the paper's 8x8 mesh — a torus is also expressible).
    pub topology: Substrate,
    /// Routing function / turn model (default the paper's XY).
    pub routing: RoutingKind,
    /// Number of virtual networks (3 for MESI without deadlock).
    pub vnets: u8,
    /// Data VCs per vnet (Table 2 / §2.1: two 3-flit data VCs).
    pub data_vcs_per_vnet: u8,
    /// Buffer depth of each data VC, in flits.
    pub data_vc_depth: u8,
    /// Control VCs per vnet (§2.1: one 1-flit control VC).
    pub ctrl_vcs_per_vnet: u8,
    /// Buffer depth of each control VC, in flits.
    pub ctrl_vc_depth: u8,
    /// Router pipeline depth: 3 (look-ahead routing + speculative switch
    /// allocation, Figure 3b) or 4 (look-ahead routing, Figure 3a).
    pub router_stages: u8,
    /// Link traversal latency in cycles.
    pub link_latency: u8,
    /// NI pipeline latency in cycles (§5: "all the NI operations are packed
    /// compactly in three cycles").
    pub ni_latency: u8,
    /// Flits in a data packet (64-byte cache line over 128-bit links plus
    /// a head flit).
    pub data_packet_flits: u8,
    /// Flits in a control packet.
    pub ctrl_packet_flits: u8,
    /// Progress-watchdog parameters (stall detection and wakeup
    /// escalation).
    pub watchdog: WatchdogConfig,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            topology: Substrate::default(),
            routing: RoutingKind::Xy,
            vnets: 3,
            data_vcs_per_vnet: 2,
            data_vc_depth: 3,
            ctrl_vcs_per_vnet: 1,
            ctrl_vc_depth: 1,
            router_stages: 3,
            link_latency: 1,
            ni_latency: 3,
            data_packet_flits: 5,
            ctrl_packet_flits: 1,
            watchdog: WatchdogConfig::default(),
        }
    }
}

impl NocConfig {
    /// Most VCs one input port may have: the router keeps one occupancy
    /// bit per VC in a `u32`, and its state encoding stores the rotating
    /// VA pointer (`< 5 x vcs_per_port`) in one byte.
    pub const MAX_VCS_PER_PORT: usize = 32;

    /// Total VCs per input port (all vnets, data + control).
    pub fn vcs_per_port(&self) -> usize {
        self.vnets as usize * self.vcs_per_vnet()
    }

    /// VCs per vnet (data + control).
    pub fn vcs_per_vnet(&self) -> usize {
        self.data_vcs_per_vnet as usize + self.ctrl_vcs_per_vnet as usize
    }

    /// Zero-load per-hop latency in cycles (router pipeline + link).
    pub fn hop_latency(&self) -> u64 {
        self.router_stages as u64 + self.link_latency as u64
    }

    /// The substrate + routing bundle route-aware components consume.
    pub fn view(&self) -> RouteView {
        RouteView::new(self.topology, self.routing)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.vnets == 0 {
            return Err(ConfigError::NoVnets);
        }
        if self.data_vcs_per_vnet == 0 && self.ctrl_vcs_per_vnet == 0 {
            return Err(ConfigError::NoVcs);
        }
        if self.vcs_per_port() > Self::MAX_VCS_PER_PORT {
            return Err(ConfigError::TooManyVcs {
                per_port: self.vcs_per_port(),
                max: Self::MAX_VCS_PER_PORT,
            });
        }
        if (self.data_vcs_per_vnet > 0 && self.data_vc_depth == 0)
            || (self.ctrl_vcs_per_vnet > 0 && self.ctrl_vc_depth == 0)
        {
            return Err(ConfigError::ZeroVcDepth);
        }
        if !(3..=4).contains(&self.router_stages) {
            return Err(ConfigError::BadRouterStages(self.router_stages));
        }
        if self.link_latency == 0 {
            return Err(ConfigError::ZeroLinkLatency);
        }
        if self.data_packet_flits == 0 || self.ctrl_packet_flits == 0 {
            return Err(ConfigError::EmptyPacket);
        }
        self.routing.validate_on(self.topology)?;
        Ok(())
    }
}

/// Progress-watchdog and recovery-escalation parameters.
///
/// The watchdog turns the paper's safety-net argument into a continuously
/// checked property: per-cycle invariant checks (always on) catch lost
/// flits or flits routed into a powered-off router, the stall detector converts silent
/// livelock into a structured [`crate::StallReport`], and the escalation
/// path force-wakes a router that keeps ignoring the level-signaled WU
/// handshake (modeling the hardware's timeout-then-force-wake retry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Declare a stall after this many consecutive cycles without forward
    /// progress while packets are in flight. `0` disables stall detection.
    pub stall_threshold: Cycle,
    /// Force-wake a router after its WU has been continuously asserted and
    /// ignored for this many cycles. `0` disables escalation.
    pub escalate_after: Cycle,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            // Generous: orders of magnitude above any legitimate wakeup
            // chain (an 16x16 mesh worst case is ~30 hops x ~12 cycles).
            stall_threshold: 10_000,
            // A healthy WU completes in `wakeup_latency` (~8) cycles; a WU
            // ignored for 64 cycles means the gate is stuck.
            escalate_after: 64,
        }
    }
}

/// One scheduled stuck-off epoch: a hardware fault where a router's sleep
/// gate ignores wakeup requests for a window of cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckEpoch {
    /// The faulty router.
    pub router: NodeId,
    /// The epoch arms at the first cycle `>= start` at which the router is
    /// powered off (a powered-on router cannot be stuck off).
    pub start: Cycle,
    /// Cycles the router ignores wakeups once armed, unless the escalation
    /// path force-wakes it first.
    pub duration: Cycle,
}

/// Fault-injection parameters for the power-gating machinery (sideband
/// wires, wakeup gates), applied by `punchsim_core::faults`.
///
/// Probabilities are expressed in parts per million so the configuration
/// stays `Eq`/hashable and the determinism contract ("same config + seed ⇒
/// bit-identical run") never depends on floating-point parsing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultConfig {
    /// Seed for the fault injector's own RNG stream (independent of the
    /// traffic seed, so fault placement is stable across traffic changes).
    pub seed: u64,
    /// Probability (ppm) that a punch-carrying sideband event is dropped.
    pub drop_punch_ppm: u32,
    /// Probability (ppm) that a punch codeword is corrupted in transit and
    /// decodes to a *different valid* target set — modeled by rewriting the
    /// punch's destination to another in-mesh router, which wakes the wrong
    /// routers (every single-destination set is a valid codebook entry).
    pub corrupt_punch_ppm: u32,
    /// Probability (ppm) that one cycle's conventional WU assertion is lost.
    /// The WU is a level signal re-asserted every stalled cycle, so p < 1
    /// only delays wakeups; p = 1 wedges the handshake and exercises the
    /// watchdog escalation path.
    pub drop_wu_ppm: u32,
    /// Maximum extra sideband delivery latency in cycles: each surviving
    /// event is delayed by a uniform `0..=max_wakeup_jitter` cycles.
    pub max_wakeup_jitter: u32,
    /// Scheduled stuck-off router epochs.
    pub stuck_epochs: Vec<StuckEpoch>,
}

impl FaultConfig {
    /// Converts a probability in `0.0..=1.0` to parts per million.
    pub fn ppm(prob: f64) -> u32 {
        (prob.clamp(0.0, 1.0) * 1_000_000.0).round() as u32
    }

    /// `true` when any fault mechanism is active, i.e. the injector needs
    /// to wrap the power manager at all.
    pub fn is_active(&self) -> bool {
        self.drop_punch_ppm > 0
            || self.corrupt_punch_ppm > 0
            || self.drop_wu_ppm > 0
            || self.max_wakeup_jitter > 0
            || !self.stuck_epochs.is_empty()
    }

    /// Validates probabilities and epoch targets against the substrate.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self, topo: impl Into<Substrate>) -> Result<(), ConfigError> {
        let topo = topo.into();
        for (field, ppm) in [
            ("drop_punch_ppm", self.drop_punch_ppm),
            ("corrupt_punch_ppm", self.corrupt_punch_ppm),
            ("drop_wu_ppm", self.drop_wu_ppm),
        ] {
            if ppm > 1_000_000 {
                return Err(ConfigError::BadProbability { field, ppm });
            }
        }
        for e in &self.stuck_epochs {
            if !topo.contains(e.router) {
                return Err(ConfigError::BadStuckRouter(e.router));
            }
        }
        Ok(())
    }
}

/// Power-gating parameters (§5 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowerConfig {
    /// Router wakeup latency in cycles (SPICE-estimated 8 in the paper;
    /// swept 6..=12 in Figure 13).
    pub wakeup_latency: u32,
    /// Idle timeout before sleeping, in cycles (4, consistent with paper
    /// refs. 7 and 9).
    pub idle_timeout: u32,
    /// Punch-signal hop depth H (2, 3 or 4; 3 covers Twakeup up to 9 cycles
    /// for 3-stage routers, §4.1).
    pub punch_hops: u16,
    /// Cycles of slack-2: how long before the message reaches the NI the
    /// node knows "some packet will be generated" (≈ L2/directory access
    /// latency, ~6 cycles). The one lead both hosts read: the synthetic
    /// host's forewarnings and the CMP memory controllers'.
    pub slack2_cycles: u32,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            wakeup_latency: 8,
            idle_timeout: 4,
            punch_hops: 3,
            slack2_cycles: 6,
        }
    }
}

impl PowerConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(1..=4).contains(&self.punch_hops) {
            return Err(ConfigError::BadPunchHops(self.punch_hops));
        }
        if self.wakeup_latency == 0 {
            return Err(ConfigError::ZeroWakeupLatency);
        }
        Ok(())
    }
}

/// Top-level simulation configuration: network, power-gating and scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Network microarchitecture parameters.
    pub noc: NocConfig,
    /// Power-gating parameters.
    pub power: PowerConfig,
    /// Which power-gating scheme to run.
    pub scheme: SchemeKind,
    /// Fault injection into the power-gating machinery (default: none).
    pub faults: FaultConfig,
    /// RNG seed for all stochastic components; a given seed reproduces a
    /// run bit-for-bit.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            noc: NocConfig::default(),
            power: PowerConfig::default(),
            scheme: SchemeKind::NoPg,
            faults: FaultConfig::default(),
            seed: 0xC0FFEE,
        }
    }
}

impl SimConfig {
    /// A default configuration running the given scheme.
    pub fn with_scheme(scheme: SchemeKind) -> Self {
        SimConfig {
            scheme,
            ..SimConfig::default()
        }
    }

    /// Validates all sub-configurations.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.noc.validate()?;
        self.power.validate()?;
        self.faults.validate(self.noc.topology)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Mesh;

    #[test]
    fn table2_defaults() {
        // Table 2 of the paper.
        let c = NocConfig::default();
        assert_eq!(c.topology, Substrate::Mesh(Mesh::new(8, 8)));
        assert_eq!(c.routing, RoutingKind::Xy);
        assert_eq!(c.vnets, 3);
        assert_eq!(c.data_vc_depth, 3);
        assert_eq!(c.ctrl_vc_depth, 1);
        assert_eq!(c.ni_latency, 3);
        assert_eq!(c.vcs_per_port(), 9);
        assert_eq!(c.hop_latency(), 4);
        c.validate().unwrap();

        let p = PowerConfig::default();
        assert_eq!(p.wakeup_latency, 8);
        assert_eq!(p.idle_timeout, 4);
        assert_eq!(p.punch_hops, 3);
        p.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = NocConfig {
            router_stages: 5,
            ..NocConfig::default()
        };
        assert!(c.validate().is_err());
        let p = PowerConfig {
            punch_hops: 9,
            ..PowerConfig::default()
        };
        assert!(p.validate().is_err());
    }

    /// A topology is only constructible through its checked constructor, so
    /// rejecting an oversized grid there keeps it out of every `NocConfig`
    /// (`validate` has nothing left to re-check); the largest grid that
    /// fits still validates.
    #[test]
    fn no_config_can_carry_more_routers_than_node_ids() {
        use crate::topology::Torus;
        let too_many =
            |r: Result<Substrate, ConfigError>| matches!(r, Err(ConfigError::TooManyNodes { .. }));
        assert!(too_many(Mesh::try_new(256, 256).map(Into::into)));
        assert!(too_many(Torus::try_new(300, 300).map(Into::into)));
        let c = NocConfig {
            topology: Mesh::new(255, 257).into(),
            ..NocConfig::default()
        };
        assert_eq!(c.topology.nodes(), usize::from(u16::MAX));
        c.validate().unwrap();
    }

    #[test]
    fn cyclic_routing_on_torus_is_rejected() {
        use crate::topology::Torus;
        let mut c = NocConfig {
            topology: Torus::new(8, 8).into(),
            routing: RoutingKind::WestFirst,
            ..NocConfig::default()
        };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::CyclicRouting { .. })
        ));
        c.routing = RoutingKind::Yx;
        c.validate().unwrap();
        // Any turn model is fine on an acyclic mesh substrate.
        c.topology = Mesh::new(8, 8).into();
        c.routing = RoutingKind::WestFirst;
        c.validate().unwrap();
    }

    #[test]
    fn validation_errors_are_typed() {
        let c = NocConfig {
            vnets: 0,
            ..NocConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::NoVnets));
        let p = PowerConfig {
            wakeup_latency: 0,
            ..PowerConfig::default()
        };
        assert_eq!(p.validate(), Err(ConfigError::ZeroWakeupLatency));
    }

    /// `200 + 100` used to be added as `u8`s: an overflow panic under
    /// debug assertions, a silent wrap to 44 VCs in release.
    #[test]
    fn oversized_vc_layouts_are_a_typed_error_not_an_overflow() {
        let c = NocConfig {
            data_vcs_per_vnet: 200,
            ctrl_vcs_per_vnet: 100,
            ..NocConfig::default()
        };
        assert_eq!(c.vcs_per_vnet(), 300);
        assert_eq!(c.vcs_per_port(), 900);
        let e = c.validate().unwrap_err();
        assert_eq!(
            e,
            ConfigError::TooManyVcs {
                per_port: 900,
                max: 32
            }
        );
        assert!(e.to_string().contains("900") && e.to_string().contains("32"));
        // The mask width itself is still a legal layout.
        let max = NocConfig {
            vnets: 4,
            data_vcs_per_vnet: 5,
            ctrl_vcs_per_vnet: 3,
            ..NocConfig::default()
        };
        assert_eq!(max.vcs_per_port(), NocConfig::MAX_VCS_PER_PORT);
        max.validate().unwrap();
    }

    /// A class with VCs but no buffer space starts with zero credits: the
    /// run could only end in the watchdog's `Stall`.
    #[test]
    fn zero_depth_vc_classes_are_rejected() {
        for c in [
            NocConfig {
                data_vc_depth: 0,
                ..NocConfig::default()
            },
            NocConfig {
                ctrl_vc_depth: 0,
                ..NocConfig::default()
            },
        ] {
            let e = c.validate().unwrap_err();
            assert_eq!(e, ConfigError::ZeroVcDepth);
            assert!(e.to_string().contains("depth"));
        }
        // Depth 0 is fine for a class that has no VCs at all.
        let no_ctrl = NocConfig {
            ctrl_vcs_per_vnet: 0,
            ctrl_vc_depth: 0,
            ..NocConfig::default()
        };
        no_ctrl.validate().unwrap();
    }

    #[test]
    fn fault_config_defaults_inactive_and_validates() {
        let f = FaultConfig::default();
        assert!(!f.is_active());
        f.validate(Mesh::new(4, 4)).unwrap();
        let bad = FaultConfig {
            drop_punch_ppm: 2_000_000,
            ..FaultConfig::default()
        };
        assert!(matches!(
            bad.validate(Mesh::new(4, 4)),
            Err(ConfigError::BadProbability { .. })
        ));
        let bad_router = FaultConfig {
            stuck_epochs: vec![StuckEpoch {
                router: NodeId(99),
                start: 0,
                duration: 10,
            }],
            ..FaultConfig::default()
        };
        assert_eq!(
            bad_router.validate(Mesh::new(4, 4)),
            Err(ConfigError::BadStuckRouter(NodeId(99)))
        );
        assert!(bad_router.is_active());
    }

    #[test]
    fn ppm_conversion_clamps() {
        assert_eq!(FaultConfig::ppm(0.5), 500_000);
        assert_eq!(FaultConfig::ppm(1.5), 1_000_000);
        assert_eq!(FaultConfig::ppm(-0.1), 0);
    }

    #[test]
    fn watchdog_defaults_are_enabled() {
        let w = WatchdogConfig::default();
        assert!(w.stall_threshold > 0);
        assert!(w.escalate_after > 0);
    }

    #[test]
    fn scheme_labels_match_paper() {
        assert_eq!(SchemeKind::ConvOptPg.label(), "ConvOpt-PG");
        assert_eq!(SchemeKind::PowerPunchFull.to_string(), "PowerPunch-PG");
        assert_eq!(SchemeKind::EVALUATED.len(), 4);
    }

    #[test]
    fn scheme_tags_roundtrip() {
        for s in SchemeKind::ALL {
            assert_eq!(SchemeKind::from_tag(s.tag()), Some(s));
        }
        assert_eq!(SchemeKind::from_tag("warp9"), None);
    }

    #[test]
    fn scheme_parse_display_parse_is_identity() {
        for s in SchemeKind::ALL {
            // tag -> scheme -> Display(label) -> scheme round-trips.
            let parsed = SchemeKind::parse(s.tag()).unwrap();
            assert_eq!(parsed, s);
            assert_eq!(SchemeKind::parse(&parsed.to_string()).unwrap(), s);
        }
        assert!(matches!(
            SchemeKind::parse("warp9"),
            Err(ConfigError::UnknownScheme { input }) if input == "warp9"
        ));
    }

    #[test]
    fn metas_cover_all_in_order() {
        // `meta()` indexes METAS by discriminant: declaration order, ALL
        // order and METAS order must all agree.
        assert_eq!(SchemeKind::METAS.len(), SchemeKind::ALL.len());
        for (i, (m, k)) in SchemeKind::METAS.iter().zip(SchemeKind::ALL).enumerate() {
            assert_eq!(m.kind, k);
            assert_eq!(k as usize, i);
        }
        // Tags and labels are unique (artifact keys / legend names).
        for a in SchemeKind::ALL {
            for b in SchemeKind::ALL {
                if a != b {
                    assert_ne!(a.tag(), b.tag());
                    assert_ne!(a.label(), b.label());
                }
            }
        }
    }

    #[test]
    fn pre_existing_schemes_keep_baseline_power_profile() {
        // The historic five schemes must keep the exactly-neutral profile:
        // the 45 nm power model multiplies by these scales, and any value
        // other than literal 1.0/0.0 would drift the checked-in BENCH
        // baselines' energy fields.
        for s in [
            SchemeKind::NoPg,
            SchemeKind::ConvPg,
            SchemeKind::ConvOptPg,
            SchemeKind::PowerPunchSignal,
            SchemeKind::PowerPunchFull,
        ] {
            assert_eq!(*s.power_profile(), SchemePowerProfile::BASELINE);
        }
        // Rivals differ from the baseline router where their hardware does.
        assert!(SchemeKind::RingRouter.power_profile().static_scale < 1.0);
        assert!(!SchemeKind::RingRouter.power_profile().buffered);
        assert!(SchemeKind::SdmCircuit.power_profile().buffer_dynamic_scale < 1.0);
    }
}
