//! The Power Punch power-gating schemes — the primary contribution of
//! *Power Punch: Towards Non-blocking Power-gating of NoC Routers*
//! (HPCA 2015) — together with the conventional baselines it is compared
//! against.
//!
//! * [`gating`] — per-router sleep-switch state machines (Figure 1/2)
//! * [`punch`] — the sideband fabric that relays merged wakeups one hop per
//!   cycle as codewords (§4.1)
//! * [`codebook`] — punch signals (normalized target sets), enumeration of
//!   every distinct signal a link can carry and the codeword widths
//!   (Table 1: 5-bit X links, 2-bit Y links at H=3)
//! * [`manager`] — [`PowerManager`] implementations: conventional gating,
//!   ConvOpt (timeout + early wakeup), PowerPunch-Signal, PowerPunch-PG
//! * [`faults`] — the deterministic [`faults::FaultInjector`] that
//!   [`build_power_manager`] wraps around a scheme when `cfg.faults` is
//!   active (punch drops/corruption, lost WU, stuck-off gates)
//!
//! # Examples
//!
//! Build the manager for a scheme and attach it to a network:
//!
//! ```
//! use punchsim_core::build_power_manager;
//! use punchsim_noc::Network;
//! use punchsim_types::{SchemeKind, SimConfig};
//!
//! let cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
//! let pm = build_power_manager(&cfg).unwrap();
//! let net = Network::new(&cfg.noc, pm).unwrap();
//! assert_eq!(net.power_manager().kind(), SchemeKind::PowerPunchFull);
//! ```

#![forbid(unsafe_code)]

pub mod codebook;
pub mod faults;
pub mod gating;
#[cfg(test)]
mod gating_reference;
pub mod manager;
pub mod punch;
#[cfg(test)]
mod punch_reference;

pub use codebook::{Codebook, LinkCodebook, PunchSet};
pub use gating::GateArray;
pub use manager::{ConvPgManager, PowerPunchManager};
pub use punch::PunchFabric;

use faults::FaultInjector;
use punchsim_noc::{AlwaysOn, PowerManager};
use punchsim_types::{SchemeKind, SimConfig, SimError};

/// Builds the [`PowerManager`] for the scheme selected in `cfg`.
///
/// This `match` is the one place in the workspace that binds a
/// [`SchemeKind`] to the constructor of its manager; it is exhaustive, so a
/// new variant does not compile until it has an arm. Everything else that
/// is indexed by scheme — the CLI `--scheme` parser, campaign tags, the
/// verify scenario factory and cmp's scheme table — is derived from the
/// [`SchemeKind::METAS`] row (tag, paper label). Adding a scheme therefore
/// means: one enum variant, one `METAS` row, one arm here.
///
/// When `cfg.faults` activates any fault mechanism, the scheme's manager is
/// wrapped in a [`FaultInjector`] so the configured perturbations apply to
/// its sideband traffic and power states.
///
/// # Errors
///
/// Returns [`SimError::Config`] if `cfg` fails validation.
pub fn build_power_manager(cfg: &SimConfig) -> Result<Box<dyn PowerManager>, SimError> {
    cfg.validate()?;
    let (view, nodes) = (cfg.noc.view(), cfg.noc.topology.nodes());
    let hop = cfg.noc.hop_latency();
    let base: Box<dyn PowerManager> = match cfg.scheme {
        SchemeKind::NoPg => Box::new(AlwaysOn::new(nodes)),
        SchemeKind::ConvPg => Box::new(ConvPgManager::new(view, &cfg.power, false)),
        SchemeKind::ConvOptPg => Box::new(ConvPgManager::new(view, &cfg.power, true)),
        SchemeKind::PowerPunchSignal => {
            Box::new(PowerPunchManager::new(view, &cfg.power, hop, false))
        }
        SchemeKind::PowerPunchFull => Box::new(PowerPunchManager::new(view, &cfg.power, hop, true)),
    };
    if cfg.faults.is_active() {
        let inj = FaultInjector::new(base, &cfg.faults, cfg.noc.topology)?;
        Ok(Box::new(inj))
    } else {
        Ok(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_types::FaultConfig;

    #[test]
    fn builder_maps_every_scheme() {
        for k in SchemeKind::ALL {
            let cfg = SimConfig::with_scheme(k);
            assert_eq!(build_power_manager(&cfg).unwrap().kind(), k);
        }
    }

    #[test]
    fn builder_rejects_invalid_config() {
        let mut cfg = SimConfig::default();
        cfg.power.wakeup_latency = 0;
        assert!(build_power_manager(&cfg).is_err());
    }

    #[test]
    fn active_faults_wrap_the_scheme_transparently() {
        let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
        cfg.faults = FaultConfig {
            drop_punch_ppm: FaultConfig::ppm(0.5),
            ..FaultConfig::default()
        };
        // The wrapper reports the wrapped scheme's kind.
        assert_eq!(
            build_power_manager(&cfg).unwrap().kind(),
            SchemeKind::PowerPunchFull
        );
    }
}
