//! Open-loop synthetic-traffic simulation harness.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use punchsim_core::build_power_manager;
use punchsim_noc::{Message, MsgClass, Network, NetworkReport};
use punchsim_types::{ConfigError, Cycle, NodeId, SimConfig, SimError, SimRng, VnetId};

use crate::pattern::TrafficPattern;

/// Host-event kinds, ordered so a node's slack-2 forewarning sorts before
/// its injection within the same cycle — the order the historic per-node
/// scan processed them in.
const EV_NOTIFY: u8 = 0;
const EV_INJECT: u8 = 1;

/// Fraction of packets that are multi-flit data packets; the rest are
/// single-flit control packets (roughly the MESI mix).
const DATA_FRACTION: f64 = 0.4;

/// Mix and process parameters for synthetic injection.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionConfig {
    /// Offered load in flits/node/cycle (the Figure 12 x-axis).
    pub rate_flits: f64,
    /// Fraction of packets whose generation is known
    /// [`PowerConfig::slack2_cycles`](punchsim_types::PowerConfig::slack2_cycles)
    /// ahead (the paper's valid-bit: 1 for L2/directory-originated
    /// messages, 0 for L1-originated ones).
    pub slack2_fraction: f64,
    /// Burstiness in `0.0..1.0`: 0 is a memoryless (Bernoulli) process;
    /// larger values draw inter-arrival gaps from a hyperexponential mix
    /// (short bursts separated by long quiet periods) with the same mean —
    /// closer to the clustered coherence traffic of real applications.
    pub burstiness: f64,
}

impl InjectionConfig {
    /// A default mix at the given flit rate.
    pub fn at_rate(rate_flits: f64) -> Self {
        InjectionConfig {
            rate_flits,
            slack2_fraction: 0.8,
            burstiness: 0.0,
        }
    }

    /// Checks the offered load.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadInjectionRate`] unless `rate_flits` is in
    /// `0..=1` (a NaN or negative rate has no arrival process, and an NI
    /// injects at most one flit per cycle, so no higher load is offered).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if (0.0..=1.0).contains(&self.rate_flits) {
            Ok(())
        } else {
            Err(ConfigError::BadInjectionRate {
                rate: self.rate_flits.to_string(),
            })
        }
    }

    /// Mean flits per packet for this mix.
    pub fn avg_packet_flits(&self, ctrl: u8, data: u8) -> f64 {
        DATA_FRACTION * data as f64 + (1.0 - DATA_FRACTION) * ctrl as f64
    }
}

/// A complete synthetic-traffic experiment: a [`Network`] under the scheme
/// from [`SimConfig`], driven by Bernoulli arrivals of a [`TrafficPattern`].
///
/// # Examples
///
/// ```
/// use punchsim_traffic::{SyntheticSim, TrafficPattern};
/// use punchsim_types::{Mesh, SchemeKind, SimConfig};
///
/// let mut cfg = SimConfig::with_scheme(SchemeKind::ConvOptPg);
/// cfg.noc.topology = Mesh::new(4, 4).into();
/// let mut sim = SyntheticSim::new(cfg, TrafficPattern::UniformRandom, 0.05);
/// sim.run(3_000).unwrap();
/// assert!(sim.report().stats.packets_delivered > 0);
/// ```
#[derive(Debug)]
pub struct SyntheticSim {
    net: Network,
    pattern: TrafficPattern,
    inj: InjectionConfig,
    rng: SimRng,
    /// The host's schedule: a min-heap of upcoming events `(cycle, node,
    /// kind)` — each node's next injection and, when slack 2 fires for it,
    /// the forewarning `slack2` cycles before. A tick pops only what is due,
    /// and the top is the next cycle the host has anything to do.
    events: BinaryHeap<Reverse<(Cycle, u16, u8)>>,
    /// How many cycles ahead a slack-2 forewarning fires
    /// ([`PowerConfig::slack2_cycles`](punchsim_types::PowerConfig::slack2_cycles)).
    slack2: Cycle,
    /// Per-packet Bernoulli probability per node per cycle.
    p_packet: f64,
}

impl SyntheticSim {
    /// Builds the experiment at `rate_flits` flits/node/cycle with the
    /// default mix.
    pub fn new(cfg: SimConfig, pattern: TrafficPattern, rate_flits: f64) -> Self {
        Self::with_injection(cfg, pattern, InjectionConfig::at_rate(rate_flits))
    }

    /// Builds the experiment with a custom injection mix.
    ///
    /// # Panics
    ///
    /// Panics if the configuration or the injection rate is invalid; check
    /// untrusted input with [`SimConfig::validate`] and
    /// [`InjectionConfig::validate`] first.
    pub fn with_injection(cfg: SimConfig, pattern: TrafficPattern, inj: InjectionConfig) -> Self {
        inj.validate().expect("invalid InjectionConfig");
        let pm = build_power_manager(&cfg).expect("invalid SimConfig");
        let net = Network::new(&cfg.noc, pm).expect("config validated above");
        let avg = inj.avg_packet_flits(cfg.noc.ctrl_packet_flits, cfg.noc.data_packet_flits);
        let p_packet = (inj.rate_flits / avg).min(1.0);
        let rng = SimRng::seed_from_u64(cfg.seed);
        let n = cfg.noc.topology.nodes();
        let mut sim = SyntheticSim {
            net,
            pattern,
            inj,
            events: BinaryHeap::with_capacity(2 * n),
            slack2: cfg.power.slack2_cycles.into(),
            p_packet,
            rng,
        };
        for i in 0..n {
            let (at, slack2) = sim.draw_arrival(0);
            sim.push_events(i, at, slack2, None);
        }
        // Re-seed deterministically after initialization order.
        sim.rng = SimRng::seed_from_u64(cfg.seed.wrapping_add(1));
        sim
    }

    /// The network under test (immutable inspection).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The network under test, mutably — e.g. to attach or detach an
    /// observability sink mid-experiment.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Draws the next arrival at or after `from`: geometric inter-arrival
    /// gaps, optionally mixed into a bursty hyperexponential with the same
    /// mean (see [`InjectionConfig::burstiness`]).
    fn draw_arrival(&mut self, from: Cycle) -> (Cycle, bool) {
        if self.p_packet <= 0.0 {
            return (Cycle::MAX, false);
        }
        let mean_gap = if self.p_packet >= 1.0 {
            1.0
        } else {
            1.0 / self.p_packet
        };
        // Hyperexponential mix: with probability b the gap is short
        // (mean/FACTOR, an in-burst arrival), otherwise long, scaled to
        // preserve the overall mean.
        const FACTOR: f64 = 8.0;
        let b = self.inj.burstiness.clamp(0.0, 0.99);
        let mean = if self.rng.random_f64() < b {
            mean_gap / FACTOR
        } else {
            mean_gap * (1.0 - b / FACTOR) / (1.0 - b)
        };
        let u: f64 = self.rng.random_f64();
        let gap = (-(1.0 - u).ln() * mean).ceil().max(1.0) as Cycle;
        let slack2 = self.rng.random_f64() < self.inj.slack2_fraction;
        (from + gap, slack2)
    }

    /// Enqueues the heap events for node `idx`'s freshly drawn arrival.
    ///
    /// The slack-2 forewarning fires on the cycle where
    /// `now + slack2 == at`. The historic scan evaluated that
    /// condition from the cycle *after* the draw onwards (the draw
    /// happens after its own slot in the scan), so a mid-run draw only
    /// schedules a forewarning strictly after `drawn_at`; construction
    /// draws (`drawn_at == None`) are visible from cycle 0.
    fn push_events(&mut self, idx: usize, at: Cycle, slack2: bool, drawn_at: Option<Cycle>) {
        if at == Cycle::MAX {
            return;
        }
        self.events.push(Reverse((at, idx as u16, EV_INJECT)));
        if !slack2 {
            return;
        }
        let Some(fire) = at.checked_sub(self.slack2) else {
            return;
        };
        if drawn_at.is_none_or(|now| fire > now) {
            self.events.push(Reverse((fire, idx as u16, EV_NOTIFY)));
        }
    }

    /// Advances one cycle: fire slack-2 forewarnings, inject due packets,
    /// tick the network, and drain deliveries.
    ///
    /// # Errors
    ///
    /// Propagates watchdog errors ([`SimError::Stall`],
    /// [`SimError::Invariant`]) from [`Network::tick`].
    pub fn tick(&mut self) -> Result<(), SimError> {
        let now = self.net.cycle();
        let topo = self.net.topology();
        // Pop every event due by `now` in (cycle, node, kind) order — the
        // exact order the historic all-nodes scan fired them in: ascending
        // node index, a node's forewarning before its injection.
        while let Some(&Reverse((c, node16, kind))) = self.events.peek() {
            if c > now {
                break;
            }
            self.events.pop();
            let node = NodeId(node16);
            if kind == EV_NOTIFY {
                // Slack 2: the node knows a packet is coming before the
                // destination is known (PowerPunch-PG exploits this).
                self.net.notify_future_injection(node)?;
                continue;
            }
            let dst = self.pattern.destination(topo, node, &mut self.rng);
            let class = if self.rng.random_f64() < DATA_FRACTION {
                MsgClass::Data
            } else {
                MsgClass::Control
            };
            let vnet = VnetId(self.rng.random_range(0..self.net.config().vnets));
            self.net
                .send(Message {
                    src: node,
                    dst,
                    vnet,
                    class,
                    payload: 0,
                    gen_cycle: now,
                })
                .expect("pattern destinations are always in-mesh");
            let (at, slack2) = self.draw_arrival(now);
            self.push_events(node16 as usize, at, slack2, Some(now));
        }
        self.net.tick()?;
        self.net.drain_delivered();
        Ok(())
    }

    /// Runs `cycles` cycles. Between two host events the host loop is a
    /// no-op — no arrival or forewarning fires and the RNG stream only
    /// advances when an arrival is consumed — so the whole gap up to the
    /// schedule's top goes to [`Network::run`] in one call, which ticks
    /// while traffic is in flight and fast-forwards once it is quiescent.
    /// Observable behavior is identical to `cycles` calls of
    /// [`SyntheticSim::tick`].
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`SyntheticSim::tick`] or
    /// [`Network::run`], at the cycle the per-cycle loop would meet it.
    pub fn run(&mut self, cycles: u64) -> Result<(), SimError> {
        let mut left = cycles;
        while left > 0 {
            let now = self.net.cycle();
            let gap = self
                .events
                .peek()
                .map_or(u64::MAX, |&Reverse((c, ..))| c.saturating_sub(now));
            if gap == 0 {
                self.tick()?;
                left -= 1;
                continue;
            }
            let span = gap.min(left);
            self.net.run(span)?;
            self.net.drain_delivered();
            left -= span;
        }
        Ok(())
    }

    /// Stops injecting and ticks until every in-flight packet has drained,
    /// up to `max_cycles`. Returns the number of cycles it took.
    ///
    /// # Errors
    ///
    /// Propagates watchdog errors; returns the [`SimError::Stall`] report
    /// directly if the network cannot drain (which is exactly the condition
    /// the watchdog exists to catch).
    pub fn drain(&mut self, max_cycles: u64) -> Result<u64, SimError> {
        // Cancel scheduled arrivals so only in-flight traffic remains.
        self.events.clear();
        let mut used = 0;
        while self.net.in_flight() > 0 && used < max_cycles {
            self.tick()?;
            used += 1;
        }
        Ok(used)
    }

    /// Runs a warm-up window, resets statistics, then a measured window.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`SyntheticSim::tick`].
    pub fn run_experiment(&mut self, warmup: u64, measure: u64) -> Result<NetworkReport, SimError> {
        self.run(warmup)?;
        self.net.reset_stats();
        self.run(measure)?;
        Ok(self.report())
    }

    /// Statistics of the measured window.
    pub fn report(&self) -> NetworkReport {
        self.net.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_types::{Mesh, SchemeKind};

    fn cfg(scheme: SchemeKind, mesh: Mesh) -> SimConfig {
        let mut c = SimConfig::with_scheme(scheme);
        c.noc.topology = mesh.into();
        c
    }

    #[test]
    fn no_pg_delivers_with_sane_latency() {
        let mut sim = SyntheticSim::new(
            cfg(SchemeKind::NoPg, Mesh::new(8, 8)),
            TrafficPattern::UniformRandom,
            0.05,
        );
        let r = sim.run_experiment(2_000, 8_000).unwrap();
        assert!(r.stats.packets_delivered > 1_000);
        // Zero-load-ish latency in an 8x8 at 0.05 flits/node/cycle:
        // NI 3 + ~5.3 hops x 4 + ejection, plus mild queueing.
        let lat = r.avg_packet_latency();
        assert!((15.0..45.0).contains(&lat), "latency {lat}");
        assert_eq!(r.avg_pg_encounters(), 0.0);
    }

    #[test]
    fn conv_pg_blocks_and_saves_static() {
        let mut no = SyntheticSim::new(
            cfg(SchemeKind::NoPg, Mesh::new(8, 8)),
            TrafficPattern::UniformRandom,
            0.02,
        );
        let rn = no.run_experiment(2_000, 8_000).unwrap();
        let mut conv = SyntheticSim::new(
            cfg(SchemeKind::ConvOptPg, Mesh::new(8, 8)),
            TrafficPattern::UniformRandom,
            0.02,
        );
        let rc = conv.run_experiment(2_000, 8_000).unwrap();
        assert!(
            rc.off_fraction() > 0.3,
            "off fraction {}",
            rc.off_fraction()
        );
        assert!(
            rc.avg_packet_latency() > rn.avg_packet_latency() * 1.2,
            "ConvOpt {} vs No-PG {}",
            rc.avg_packet_latency(),
            rn.avg_packet_latency()
        );
        assert!(rc.avg_pg_encounters() > 1.0);
        assert!(rc.avg_wakeup_wait() > 1.0);
    }

    #[test]
    fn power_punch_hides_most_blocking() {
        let mesh = Mesh::new(8, 8);
        let run = |scheme| {
            let mut s = SyntheticSim::new(cfg(scheme, mesh), TrafficPattern::UniformRandom, 0.02);
            s.run_experiment(2_000, 8_000).unwrap()
        };
        let no = run(SchemeKind::NoPg);
        let conv = run(SchemeKind::ConvOptPg);
        let pps = run(SchemeKind::PowerPunchSignal);
        let ppf = run(SchemeKind::PowerPunchFull);
        // Latency ordering of Figure 7.
        let (l_no, l_conv, l_pps, l_ppf) = (
            no.avg_packet_latency(),
            conv.avg_packet_latency(),
            pps.avg_packet_latency(),
            ppf.avg_packet_latency(),
        );
        assert!(l_conv > l_pps, "conv {l_conv} vs pp-signal {l_pps}");
        assert!(
            l_pps >= l_ppf - 1e-9,
            "pp-signal {l_pps} vs pp-full {l_ppf}"
        );
        assert!(l_ppf < l_no * 1.25, "pp-full {l_ppf} vs no-pg {l_no}");
        // Blocked-router counts (Figure 9 ordering).
        assert!(conv.avg_pg_encounters() > pps.avg_pg_encounters());
        // Wait cycles (Figure 10 ordering).
        assert!(conv.avg_wakeup_wait() > ppf.avg_wakeup_wait());
        // Punch still saves plenty of static energy.
        assert!(ppf.off_fraction() > 0.3, "off {}", ppf.off_fraction());
        assert!(ppf.pg.punch_hops > 0);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = || {
            let mut s = SyntheticSim::new(
                cfg(SchemeKind::PowerPunchFull, Mesh::new(4, 4)),
                TrafficPattern::Transpose,
                0.05,
            );
            let r = s.run_experiment(500, 2_000).unwrap();
            (
                r.stats.packets_delivered,
                r.avg_packet_latency(),
                r.pg.punch_hops,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn burstiness_preserves_mean_rate() {
        let run = |b: f64| {
            let mut inj = InjectionConfig::at_rate(0.02);
            inj.burstiness = b;
            let mut s = SyntheticSim::with_injection(
                cfg(SchemeKind::NoPg, Mesh::new(4, 4)),
                TrafficPattern::UniformRandom,
                inj,
            );
            let r = s.run_experiment(2_000, 20_000).unwrap();
            r.offered_load
        };
        let smooth = run(0.0);
        let bursty = run(0.6);
        assert!((bursty / smooth - 1.0).abs() < 0.15, "{smooth} vs {bursty}");
    }

    #[test]
    fn bursty_traffic_raises_latency_variance() {
        let run = |b: f64| {
            let mut inj = InjectionConfig::at_rate(0.05);
            inj.burstiness = b;
            let mut s = SyntheticSim::with_injection(
                cfg(SchemeKind::NoPg, Mesh::new(4, 4)),
                TrafficPattern::UniformRandom,
                inj,
            );
            let r = s.run_experiment(2_000, 15_000).unwrap();
            // The spread of the latency histogram's tail over its median.
            // (p99 - p50 reads 16 for both: bursts shift the two alike.)
            r.latency_max() - r.latency_p50()
        };
        let (bursty, smooth) = (run(0.7), run(0.0));
        assert!(
            bursty > smooth,
            "bursts must widen the tail: {bursty} vs {smooth}"
        );
    }

    #[test]
    fn attached_flight_recorder_sees_the_run() {
        let c = cfg(SchemeKind::PowerPunchFull, Mesh::new(4, 4));
        let mut s = SyntheticSim::new(c, TrafficPattern::UniformRandom, 0.05);
        s.network_mut()
            .set_sink(Box::new(punchsim_noc::obs::RingSink::new(4096)));
        s.run(2_000).unwrap();
        let sink = s.network().sink().expect("attached above");
        assert!(sink.recorded() > 0);
        let kinds: Vec<&str> = sink.snapshot().iter().map(|e| e.event.kind()).collect();
        assert!(kinds.contains(&"inject"), "{kinds:?}");
        assert!(kinds.contains(&"punch-emit"), "{kinds:?}");
        // Detachable through network_mut for export.
        assert!(s.network_mut().take_sink().is_some());
        assert!(s.network().sink().is_none());
    }

    /// Packets are spread over the configured vnets, not a fixed three:
    /// with fewer, a draw of vnet 2 was an out-of-range send and the run
    /// panicked.
    #[test]
    fn packets_stay_within_the_configured_vnets() {
        for vnets in [1, 2, 4] {
            let mut c = cfg(SchemeKind::PowerPunchFull, Mesh::new(4, 4));
            c.noc.vnets = vnets;
            let mut s = SyntheticSim::new(c, TrafficPattern::UniformRandom, 0.05);
            s.run(2_000).unwrap();
            s.drain(10_000).unwrap();
            let r = s.report();
            assert!(r.stats.packets_injected > 100, "{vnets} vnets");
            assert_eq!(r.stats.packets_delivered, r.stats.packets_injected);
        }
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let mut s = SyntheticSim::new(
            cfg(SchemeKind::NoPg, Mesh::new(4, 4)),
            TrafficPattern::UniformRandom,
            0.0,
        );
        s.run(1_000).unwrap();
        assert_eq!(s.report().stats.packets_injected, 0);
    }

    /// The host skip on its own, on the shipped kernel: `run(n)` hands
    /// every gap up to the next host event to `Network::run`, while `n`
    /// calls of `tick()` walk each cycle through the host loop. Low-rate
    /// bursty PowerPunchFull traffic gives long gaps (so the network
    /// fast-forward engages too) between slack-2 forewarnings and real
    /// packets; a drain and 100k idle cycles follow.
    #[test]
    fn host_skip_matches_naive_ticking_exactly() {
        let run = |stepwise: bool| {
            let mut inj = InjectionConfig::at_rate(0.002);
            inj.burstiness = 0.5;
            let mut s = SyntheticSim::with_injection(
                cfg(SchemeKind::PowerPunchFull, Mesh::new(4, 4)),
                TrafficPattern::UniformRandom,
                inj,
            );
            let advance = |s: &mut SyntheticSim, n: u64| {
                if stepwise {
                    (0..n).try_for_each(|_| s.tick()).unwrap();
                } else {
                    s.run(n).unwrap();
                }
            };
            advance(&mut s, 15_000);
            let drained = s.drain(10_000).unwrap();
            advance(&mut s, 100_000);
            assert!(s.report().stats.packets_delivered > 50);
            (drained, s.network().cycle(), format!("{:?}", s.report()))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn zero_rate_run_skips_to_the_end() {
        let mut s = SyntheticSim::new(
            cfg(SchemeKind::ConvOptPg, Mesh::new(8, 8)),
            TrafficPattern::UniformRandom,
            0.0,
        );
        s.run(5_000_000).unwrap();
        let r = s.report();
        assert_eq!(s.network().cycle(), 5_000_000);
        assert_eq!(r.stats.packets_injected, 0);
        // Every router slept once past the idle timeout and stayed off.
        assert!(r.off_fraction() > 0.99, "off {}", r.off_fraction());
    }
}
