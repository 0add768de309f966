//! The Power Punch power-gating schemes — the primary contribution of
//! *Power Punch: Towards Non-blocking Power-gating of NoC Routers*
//! (HPCA 2015) — together with the conventional baselines it is compared
//! against.
//!
//! * [`gating`] — per-router sleep-switch state machines (Figure 1/2)
//! * [`punch`] — punch signals: normalized target sets and the sideband
//!   fabric that relays merged wakeups one hop per cycle (§4.1)
//! * [`codebook`] — enumeration of every distinct signal a link can carry
//!   and the codeword widths (Table 1: 5-bit X links, 2-bit Y links at H=3)
//! * [`manager`] — [`PowerManager`] implementations: conventional gating,
//!   ConvOpt (timeout + early wakeup), PowerPunch-Signal, PowerPunch-PG
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
pub mod gating;
#[cfg(test)]
mod gating_reference;
pub mod manager;
pub mod punch;
#[cfg(test)]
mod punch_reference;
pub mod registry;
pub mod rivals;

pub use codebook::{Codebook, LinkCodebook};
pub use gating::GateArray;
pub use manager::{ConvPgManager, PowerPunchManager};
pub use punch::{PunchFabric, PunchSet};
pub use registry::{descriptor, SchemeCtor, SchemeDescriptor, REGISTRY};
pub use rivals::{RingRouterManager, SdmCircuitManager};

use punchsim_faults::FaultInjector;
use punchsim_noc::PowerManager;
use punchsim_types::{SimConfig, SimError};

/// Builds the [`PowerManager`] for the scheme selected in `cfg`.
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
    // The scheme registry is the one place in the workspace that maps a
    // scheme to its manager constructor.
    let base = (registry::descriptor(cfg.scheme).build)(cfg, &cfg.noc.topology)?;
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
    use punchsim_types::{FaultConfig, SchemeKind};

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
