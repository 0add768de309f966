//! The full-system CMP simulation: cores + L1s + directory banks + memory
//! controllers over the NoC, under any power-gating scheme.

use std::collections::VecDeque;

use punchsim_core::build_power_manager;
use punchsim_noc::{Message, Network, NetworkReport};
use punchsim_types::{Coord, Cycle, NodeId, SchemeKind, SimConfig, SimRng, Substrate};

use crate::benchmark::{Benchmark, SyntheticCore};
use crate::cache::Residency;
use crate::dir::DirBank;
use crate::mem::MemCtrl;
use crate::protocol::{BlockAddr, Op, ProtoMsg};
use crate::tile::{Access, Out, L1};

/// L1 capacity in blocks (Table 2: 32 KB / 64 B).
const L1_BLOCKS: usize = 512;
/// L1 associativity (Table 2).
const L1_WAYS: usize = 2;
/// L2 bank capacity in blocks (Table 2: 256 KB / 64 B).
const L2_BLOCKS: usize = 4096;
/// L2 associativity (Table 2).
const L2_WAYS: usize = 16;
/// L2/directory access latency in cycles (Table 2).
const L2_LATENCY: Cycle = 6;
/// Memory access latency in cycles (Table 2).
const MEM_LATENCY: Cycle = 128;

/// Configuration of a full-system run. The caches and memory are Table 2's
/// (the constants above); what varies per run is below.
#[derive(Debug, Clone)]
pub struct CmpConfig {
    /// Network + power-gating + scheme configuration.
    pub sim: SimConfig,
    /// Workload preset.
    pub benchmark: Benchmark,
    /// Instructions each core must retire (after warm-up).
    pub instr_per_core: u64,
    /// Instructions per core before statistics reset.
    pub warmup_instr: u64,
    /// Hard cap on simulated cycles (guards against protocol bugs).
    pub max_cycles: u64,
}

impl CmpConfig {
    /// The paper's Table 2 system running `benchmark` under `scheme`.
    pub fn new(benchmark: Benchmark, scheme: SchemeKind) -> Self {
        CmpConfig {
            sim: SimConfig::with_scheme(scheme),
            benchmark,
            instr_per_core: 80_000,
            warmup_instr: 8_000,
            max_cycles: 5_000_000,
        }
    }
}

/// Results of a full-system run.
#[derive(Debug, Clone)]
pub struct CmpReport {
    /// Workload that ran.
    pub benchmark: Benchmark,
    /// Power-gating scheme.
    pub scheme: SchemeKind,
    /// Cycles from end of warm-up until the last core retired its quota.
    pub exec_cycles: u64,
    /// Every simulated cycle, warm-up included — the denominator campaign
    /// runners use for wall-clock throughput (cycles/sec).
    pub total_cycles: u64,
    /// Total instructions retired (all cores, including warm-up).
    pub instructions: u64,
    /// L1 miss rate over all references.
    pub l1_miss_rate: f64,
    /// Network statistics for the measured window.
    pub net: NetworkReport,
    /// Whether every core finished within the cycle cap.
    pub completed: bool,
    /// Private L1 lines resident at the end of the run, over all tiles,
    /// against Table 2's capacity.
    pub l1_residency: Residency,
    /// Shared L2 lines resident at the end of the run, likewise.
    pub l2_residency: Residency,
}

/// The full-system simulator (the gem5+PARSEC stand-in; see DESIGN.md).
///
/// # Examples
///
/// ```no_run
/// use punchsim_cmp::{Benchmark, CmpConfig, CmpSim};
/// use punchsim_types::SchemeKind;
///
/// let mut cfg = CmpConfig::new(Benchmark::Blackscholes, SchemeKind::PowerPunchFull);
/// cfg.instr_per_core = 10_000;
/// let report = CmpSim::new(cfg).run();
/// assert!(report.completed);
/// ```
pub struct CmpSim {
    cfg: CmpConfig,
    net: Network,
    cores: Vec<SyntheticCore>,
    l1s: Vec<L1>,
    dirs: Vec<DirBank>,
    mems: Vec<MemCtrl>,
    blocked: Vec<bool>,
    rng: SimRng,
    /// Scheduled protocol sends per node: `(send_at, dst, msg)` FIFO.
    sends: Vec<VecDeque<(Cycle, NodeId, ProtoMsg)>>,
    /// [`CmpSim::deliver`]'s scratch: the tick's messages, out of the network.
    inbox: Vec<Message>,
    /// Scratch for the `(destination, message)` pairs one L1, directory
    /// bank or memory controller emits; empty between uses.
    out: Out,
    warmed: bool,
    measure_start: Cycle,
}

impl std::fmt::Debug for CmpSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CmpSim")
            .field("benchmark", &self.cfg.benchmark)
            .field("scheme", &self.cfg.sim.scheme)
            .field("cycle", &self.net.cycle())
            .finish()
    }
}

impl CmpSim {
    /// Builds the system of `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: CmpConfig) -> Self {
        let pm = build_power_manager(&cfg.sim).expect("invalid SimConfig");
        let net = Network::new(&cfg.sim.noc, pm).expect("config validated above");
        let topo = cfg.sim.noc.topology;
        let n = topo.nodes();
        let mem_nodes = corner_nodes(topo);
        let cores = (0..n)
            .map(|i| SyntheticCore::new(cfg.benchmark, i as u64, cfg.instr_per_core))
            .collect();
        let l1s = (0..n)
            .map(|i| L1::new(NodeId(i as u16), L1_BLOCKS, L1_WAYS))
            .collect();
        let dirs = (0..n)
            .map(|i| DirBank::new(NodeId(i as u16), L2_BLOCKS, L2_WAYS, mem_nodes.clone()))
            .collect();
        let mems = mem_nodes
            .iter()
            .map(|&m| MemCtrl::new(m, MEM_LATENCY))
            .collect();
        let rng = SimRng::seed_from_u64(cfg.sim.seed);
        CmpSim {
            net,
            cores,
            l1s,
            dirs,
            mems,
            blocked: vec![false; n],
            rng,
            sends: vec![VecDeque::new(); n],
            inbox: Vec::new(),
            out: Out::new(),
            warmed: false,
            measure_start: 0,
            cfg,
        }
    }

    /// The network under test.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The network under test, mutably — e.g. to attach or detach an
    /// observability sink around a run.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    fn home_of(&self, addr: BlockAddr) -> NodeId {
        home_node(addr, self.cfg.sim.noc.topology.nodes())
    }

    /// Advances the system by one cycle.
    pub fn tick(&mut self) {
        let now = self.net.cycle();
        self.deliver(now);
        self.flush_sends(now);
        self.mem_tick(now);
        self.core_tick(now);
        self.net
            .tick()
            .expect("CMP watchdog: the MESI protocol wedged");
        if !self.warmed
            && self
                .cores
                .iter()
                .all(|c| c.retired >= self.cfg.warmup_instr)
        {
            self.warmed = true;
            self.net.reset_stats();
            self.measure_start = self.net.cycle();
        }
    }

    /// Runs to completion (or the cycle cap) and reports.
    pub fn run(mut self) -> CmpReport {
        self.run_hooked(u64::MAX, &mut |_| {})
    }

    /// Runs like [`CmpSim::run`], invoking `hook` with the network after
    /// every `every` simulated cycles, used by campaign runners for
    /// progress and interval sampling. Takes `&mut self` so callers can
    /// retrieve the event sink (or other network state) after the run
    /// finishes.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn run_hooked(&mut self, every: u64, hook: &mut dyn FnMut(&Network)) -> CmpReport {
        assert!(every > 0, "hook period must be positive");
        while !self.done() && self.net.cycle() < self.cfg.max_cycles {
            self.tick();
            if self.net.cycle() % every == 0 {
                hook(&self.net);
            }
        }
        let completed = self.done();
        let exec_cycles = self.net.cycle() - self.measure_start;
        let refs: u64 = self
            .l1s
            .iter()
            .map(|l| l.stats.loads + l.stats.stores)
            .sum();
        let misses: u64 = self.l1s.iter().map(|l| l.stats.misses).sum();
        CmpReport {
            benchmark: self.cfg.benchmark,
            scheme: self.cfg.sim.scheme,
            exec_cycles,
            total_cycles: self.net.cycle(),
            instructions: self.cores.iter().map(|c| c.retired).sum(),
            l1_miss_rate: if refs == 0 {
                0.0
            } else {
                misses as f64 / refs as f64
            },
            net: self.net.report(),
            completed,
            l1_residency: self.l1s.iter().map(L1::residency).sum(),
            l2_residency: self.dirs.iter().map(DirBank::l2_residency).sum(),
        }
    }

    fn done(&self) -> bool {
        self.cores.iter().all(SyntheticCore::done)
    }

    /// Routes every message delivered by the network to its tile component.
    fn deliver(&mut self, now: Cycle) {
        let nodes = self.cfg.sim.noc.topology.nodes();
        let mut inbox = std::mem::take(&mut self.inbox);
        inbox.extend(self.net.drain_delivered());
        for msg in inbox.drain(..) {
            let (node, idx) = (msg.dst, msg.dst.index());
            let pm = ProtoMsg::decode(msg.payload).expect("well-formed payload");
            let src = msg.src;
            match pm.op {
                // Directory-side messages.
                Op::GetS
                | Op::GetM
                | Op::PutM
                | Op::PutE
                | Op::InvAck
                | Op::OwnerData
                | Op::FwdNack
                | Op::MemData => {
                    self.dirs[idx].handle(src, pm, &mut self.out);
                    if !self.out.is_empty() {
                        // Slack 2: the L2/directory access that will
                        // produce these messages starts now.
                        self.net
                            .notify_future_injection(node)
                            .expect("directory node is in the topology");
                    }
                    for (dst, m) in self.out.drain(..) {
                        self.sends[idx].push_back((now + L2_LATENCY, dst, m));
                    }
                }
                // L1-side messages.
                Op::Inv | Op::FwdGetS | Op::FwdGetM | Op::Data | Op::DataExcl | Op::WbAck => {
                    let resumed =
                        self.l1s[idx].handle(src, pm, |a| home_node(a, nodes), &mut self.out);
                    if resumed {
                        self.blocked[idx] = false;
                    }
                    for (dst, m) in self.out.drain(..) {
                        self.sends[idx].push_back((now + 1, dst, m));
                    }
                }
                // Memory-controller messages.
                Op::MemRead | Op::MemWrite => {
                    let mc = self
                        .mems
                        .iter_mut()
                        .find(|m| m.node() == node)
                        .expect("memory request routed to a controller");
                    mc.handle(src, pm, now);
                }
            }
        }
        self.inbox = inbox;
    }

    /// Injects scheduled protocol messages whose time has come.
    fn flush_sends(&mut self, now: Cycle) {
        for idx in 0..self.sends.len() {
            while let Some(&(at, dst, m)) = self.sends[idx].front() {
                if at > now {
                    break;
                }
                self.sends[idx].pop_front();
                self.net
                    .send(Message {
                        src: NodeId(idx as u16),
                        dst,
                        vnet: m.op.vnet(),
                        class: m.op.class(),
                        payload: m.encode(),
                        gen_cycle: now,
                    })
                    .expect("protocol destinations are always in-mesh");
            }
        }
    }

    /// Forewarns the controllers' routers of responses due in `slack2`
    /// cycles, then sends the responses due now: every notice before any
    /// send, controllers in order.
    fn mem_tick(&mut self, now: Cycle) {
        let slack2 = self.cfg.sim.power.slack2_cycles as Cycle;
        for mc in &self.mems {
            for _ in 0..mc.forewarnings(now, slack2) {
                self.net
                    .notify_future_injection(mc.node())
                    .expect("memory-controller node is in the topology");
            }
        }
        for mc in &mut self.mems {
            mc.take_due(now, &mut self.out);
            for (dst, m) in self.out.drain(..) {
                self.net
                    .send(Message {
                        src: mc.node(),
                        dst,
                        vnet: m.op.vnet(),
                        class: m.op.class(),
                        payload: m.encode(),
                        gen_cycle: now,
                    })
                    .expect("protocol destinations are always in-mesh");
            }
        }
    }

    fn core_tick(&mut self, now: Cycle) {
        let nodes = self.cfg.sim.noc.topology.nodes();
        for idx in 0..nodes {
            if self.blocked[idx] || self.cores[idx].done() {
                continue;
            }
            let Some(mref) = self.cores[idx].tick(&mut self.rng) else {
                continue;
            };
            let home = self.home_of(mref.addr);
            let res = self.l1s[idx].access(mref.addr, mref.is_write, home, &mut self.out);
            for (dst, m) in self.out.drain(..) {
                self.sends[idx].push_back((now + 1, dst, m));
            }
            if res == Access::Miss {
                self.blocked[idx] = true;
            }
        }
    }
}

impl CmpSim {
    /// Checks the MESI single-writer invariant across all L1s: a block held
    /// in `M` or `E` anywhere may not be resident in any other L1. Returns
    /// human-readable violations (empty = coherent). Test hook.
    pub fn coherence_violations(&self) -> Vec<String> {
        use std::collections::HashMap;
        let mut holders: HashMap<BlockAddr, Vec<(usize, crate::tile::L1State)>> = HashMap::new();
        for (i, l1) in self.l1s.iter().enumerate() {
            for (addr, st) in l1.resident() {
                holders.entry(addr).or_default().push((i, st));
            }
        }
        let mut v = Vec::new();
        for (addr, hs) in holders {
            let exclusive = hs
                .iter()
                .any(|(_, s)| matches!(s, crate::tile::L1State::M | crate::tile::L1State::E));
            if exclusive && hs.len() > 1 {
                v.push(format!("block {addr:#x} held by {hs:?}"));
            }
        }
        v
    }
}

/// The corner nodes hosting memory controllers (Table 2), each once: four
/// on a grid of at least two rows and two columns, fewer on a line.
fn corner_nodes(topo: Substrate) -> Vec<NodeId> {
    let (w, h) = (topo.width(), topo.height());
    let mut v = Vec::with_capacity(4);
    for (x, y) in [(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1)] {
        let n = topo.node(Coord::new(x, y));
        if !v.contains(&n) {
            v.push(n);
        }
    }
    v
}

/// Home L2 bank of a block: a hash interleave over all tiles.
fn home_node(addr: BlockAddr, nodes: usize) -> NodeId {
    let h = addr ^ (addr >> 17) ^ (addr >> 31);
    NodeId((h % nodes as u64) as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_types::Mesh;

    fn small_cfg(scheme: SchemeKind) -> CmpConfig {
        let mut cfg = CmpConfig::new(Benchmark::Blackscholes, scheme);
        cfg.sim.noc.topology = Mesh::new(4, 4).into();
        cfg.instr_per_core = 6_000;
        cfg.warmup_instr = 1_500;
        cfg.max_cycles = 2_000_000;
        cfg
    }

    #[test]
    fn small_system_completes_no_pg() {
        let r = CmpSim::new(small_cfg(SchemeKind::NoPg)).run();
        assert!(r.completed, "protocol must make forward progress");
        assert_eq!(r.instructions, 16 * 6_000);
        assert!(
            r.l1_miss_rate > 0.0 && r.l1_miss_rate < 0.2,
            "miss rate {}",
            r.l1_miss_rate
        );
        assert!(r.net.stats.packets_delivered > 0);
    }

    #[test]
    fn completes_under_every_scheme() {
        // Every registered scheme must carry the full-system MESI protocol
        // to completion.
        for scheme in SchemeKind::ALL {
            let r = CmpSim::new(small_cfg(scheme)).run();
            assert!(r.completed, "{scheme} hangs");
        }
    }

    #[test]
    fn sharing_workload_completes() {
        let mut cfg = small_cfg(SchemeKind::PowerPunchFull);
        cfg.benchmark = Benchmark::Canneal; // heavy sharing + invalidations
        let r = CmpSim::new(cfg).run();
        assert!(r.completed);
        assert!(r.net.stats.packets_delivered > 100);
    }

    #[test]
    fn power_gating_slows_execution_but_saves_energy() {
        let no = CmpSim::new(small_cfg(SchemeKind::NoPg)).run();
        let conv = CmpSim::new(small_cfg(SchemeKind::ConvOptPg)).run();
        let pp = CmpSim::new(small_cfg(SchemeKind::PowerPunchFull)).run();
        assert!(conv.exec_cycles > no.exec_cycles);
        assert!(
            pp.exec_cycles < conv.exec_cycles,
            "PowerPunch-PG {} must beat ConvOpt {}",
            pp.exec_cycles,
            conv.exec_cycles
        );
        assert!(conv.net.off_fraction() > 0.2);
        assert!(pp.net.off_fraction() > 0.2);
    }

    #[test]
    fn attached_flight_recorder_sees_full_system_events() {
        let mut cfg = small_cfg(SchemeKind::PowerPunchFull);
        cfg.instr_per_core = 1_000;
        cfg.warmup_instr = 0;
        let mut sim = CmpSim::new(cfg);
        sim.network_mut()
            .set_sink(Box::new(punchsim_noc::obs::RingSink::new(4096)));
        let r = sim.run_hooked(u64::MAX, &mut |_| {});
        assert!(r.completed);
        let sink = sim.network_mut().take_sink().expect("sink attached");
        let kinds: Vec<&str> = sink.iter().map(|e| e.event.kind()).collect();
        assert!(kinds.contains(&"inject"), "{kinds:?}");
        assert!(kinds.contains(&"slack1"), "{kinds:?}");
        assert!(kinds.contains(&"punch-emit"), "{kinds:?}");
        assert!(kinds.contains(&"power"), "{kinds:?}");
    }

    #[test]
    fn determinism() {
        let a = CmpSim::new(small_cfg(SchemeKind::PowerPunchFull)).run();
        let b = CmpSim::new(small_cfg(SchemeKind::PowerPunchFull)).run();
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!(a.net.stats.packets_delivered, b.net.stats.packets_delivered);
    }

    #[test]
    fn corner_nodes_are_corners() {
        let c = corner_nodes(Mesh::new(8, 8).into());
        assert_eq!(c, vec![NodeId(0), NodeId(7), NodeId(56), NodeId(63)]);
        // A single row has two corners, not four controllers on two nodes.
        assert_eq!(corner_nodes(Mesh::new(4, 1).into()), [NodeId(0), NodeId(3)]);
        assert_eq!(corner_nodes(Mesh::new(1, 4).into()), [NodeId(0), NodeId(3)]);
    }

    #[test]
    fn home_map_covers_all_banks() {
        let mut seen = [false; 64];
        for a in 0..100_000u64 {
            seen[home_node(a, 64).index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
