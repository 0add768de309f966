//! Small shared helpers: order statistics, the statistics digest, peak
//! RSS, and the host calibration loop.

use std::time::Instant;

use punchsim::campaign::hash::Fnv64;

/// Median of `values` (mean of the middle two for an even count; 0 for an
/// empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(min, max)` of `values`; `(0, 0)` for an empty slice.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// FNV-64 digest of a rendered statistics document.
pub fn digest(text: &str) -> u64 {
    Fnv64::new().write(text.as_bytes()).finish()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Speed of the calibration loop on the reference machine (the 2-core
/// sandbox when nothing disturbs it), in millions of draws per second.
pub const CALIB_REF_MOPS: f64 = 850.0;

/// One timed burst of the fixed calibration loop, in millions of draws
/// per host second: four independent xorshift64* streams and a
/// data-dependent branch, no memory traffic, nothing from the code under
/// test. The instruction-level parallelism matters: a single dependent
/// chain barely notices a busy sibling hyperthread, the simulator and
/// this loop both do (window-median spread of a 16x16 dense run scaled by
/// it: 3.0%, by a dependent chain: 5.8%, unscaled: 7.5%).
pub fn calib_burst(draws: u64) -> f64 {
    let started = Instant::now();
    let mut streams = [
        0x9E37_79B9_7F4A_7C15u64,
        0xBF58_476D_1CE4_E5B9,
        0x94D0_49BB_1331_11EB,
        0x2545_F491_4F6C_DD1D,
    ];
    let mut acc = 0u64;
    for _ in 0..draws / 4 {
        for x in &mut streams {
            *x ^= *x >> 12;
            *x ^= *x << 25;
            *x ^= *x >> 27;
            let v = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            if v & 3 == 0 {
                acc = acc.wrapping_add(v);
            } else {
                acc ^= v;
            }
        }
    }
    std::hint::black_box(acc);
    draws as f64 / 1e6 / started.elapsed().as_secs_f64()
}

/// `host.calib_mops`: a 50 M-draw burst before and after each workload.
/// Two result sets whose calibration differs by more than 5% were taken
/// on different machines (or one was disturbed) and their host-time
/// comparison is flagged `noisy` rather than trusted.
pub fn calib_mops() -> f64 {
    calib_burst(50_000_000)
}

/// Calibration bursts interleaved with one repetition.
///
/// The sandbox changes speed by 10–25% for seconds at a time, and the
/// calibration loop slows with it, so host times are reported in
/// reference-machine seconds: `raw × scale`, where `scale` is the mean
/// calibration speed around the timed interval ÷ [`CALIB_REF_MOPS`]. On
/// ten-second windows of a 16x16 dense run this cut the spread of the
/// window medians from 7.5% to 3.0%.
#[derive(Debug)]
pub struct Calib {
    draws: u64,
    samples: Vec<f64>,
    /// Host seconds spent in bursts so far (to subtract from walls that
    /// contain them).
    pub spent_s: f64,
}

impl Calib {
    /// Bursts of `draws` draws; `0` disables sampling (every scale is 1).
    pub fn new(draws: u64) -> Calib {
        Calib {
            draws,
            samples: Vec::new(),
            spent_s: 0.0,
        }
    }

    /// Takes one burst.
    pub fn sample(&mut self) {
        if self.draws == 0 {
            return;
        }
        let started = Instant::now();
        self.samples.push(calib_burst(self.draws));
        self.spent_s += started.elapsed().as_secs_f64();
    }

    /// Number of bursts taken so far.
    pub fn taken(&self) -> usize {
        self.samples.len()
    }

    /// Mean speed of the bursts in `range` relative to the reference
    /// machine; 1 when sampling is disabled.
    pub fn scale(&self, range: std::ops::Range<usize>) -> f64 {
        match self.samples.get(range) {
            Some(s) if !s.is_empty() => s.iter().sum::<f64>() / s.len() as f64 / CALIB_REF_MOPS,
            _ => 1.0,
        }
    }

    /// [`Calib::scale`] over the last two bursts: the ones around the
    /// interval that just ended.
    pub fn scale_last(&self) -> f64 {
        self.scale(self.taken().saturating_sub(2)..self.taken())
    }
}
