//! The incremental, content-hashed result store.
//!
//! Each completed run is persisted as one small JSON file named after the
//! spec's [`content hash`](crate::RunSpec::content_hash). Re-running a
//! campaign only simulates specs whose hash has no stored entry — changing
//! an instruction count, a seed, or the schema version changes the hash and
//! naturally invalidates exactly the affected runs.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use crate::spec::{Metrics, RunSpec, SCHEMA_VERSION};
use crate::Json;

/// A directory of per-run result files.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// A store rooted at `dir` (created lazily on first save).
    pub fn new(dir: impl Into<PathBuf>) -> Store {
        Store { dir: dir.into() }
    }

    /// The shared store in the cargo target directory (or the system temp
    /// directory when `CARGO_TARGET_DIR` is unset), so `punchsim-cli`'s
    /// `campaign` and `figure` commands hit the same cache.
    pub fn in_target() -> Store {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        Store::new(base.join("punchsim-campaign"))
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where `spec`'s result lives. The id prefix keeps the directory
    /// browsable; the hash suffix is what guarantees correctness.
    pub fn path_of(&self, spec: &RunSpec) -> PathBuf {
        self.path_for(spec, spec.content_hash())
    }

    /// [`Store::path_of`] given `spec`'s content hash: `<id, '/' and '.'
    /// as '-'>-<hash>.json`, built in the id's own buffer.
    fn path_for(&self, spec: &RunSpec, hash: u64) -> PathBuf {
        let mut name = spec.id().into_bytes();
        for b in &mut name {
            if matches!(*b, b'/' | b'.') {
                *b = b'-';
            }
        }
        let mut name = String::from_utf8(name).expect("ASCII bytes replaced ASCII bytes");
        write!(name, "-{hash:016x}.json").expect("writing to a String cannot fail");
        self.dir.join(name)
    }

    /// Loads `spec`'s stored metrics, or `None` on any miss: absent file,
    /// unparseable JSON, schema drift, or hash mismatch. A corrupt entry is
    /// treated as a miss (the run simply re-executes and overwrites it).
    pub fn load(&self, spec: &RunSpec) -> Option<Metrics> {
        let hash = spec.content_hash();
        let text = std::fs::read_to_string(self.path_for(spec, hash)).ok()?;
        let v = Json::parse(&text).ok()?;
        if v.get("schema")?.as_str()? != SCHEMA_VERSION {
            return None;
        }
        // Exactly the 16 lowercase hex digits `save` writes, as a number.
        let stored = v.get("hash")?.as_str()?;
        let digits = |s: &str| s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        if stored.len() != 16 || !digits(stored) || u64::from_str_radix(stored, 16) != Ok(hash) {
            return None;
        }
        Metrics::from_json(v.get("metrics")?)
    }

    /// Persists `spec`'s metrics, creating the store directory if needed.
    /// The write goes through a temp file + rename so concurrent workers
    /// (or an interrupted run) never leave a half-written entry.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be created
    /// or the file cannot be written.
    pub fn save(&self, spec: &RunSpec, metrics: &Metrics) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let mut doc = Json::obj();
        doc.push("schema", Json::Str(SCHEMA_VERSION.to_string()));
        doc.push("id", Json::Str(spec.id()));
        let hash = spec.content_hash();
        doc.push("hash", Json::Str(format!("{hash:016x}")));
        doc.push("workload", spec.workload_json());
        doc.push("metrics", metrics.to_json());
        let path = self.path_for(spec, hash);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, doc.render())?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficPattern;
    use punchsim_types::{Mesh, RoutingKind, SchemeKind};

    use crate::spec::Workload;

    fn spec(seed: u64) -> RunSpec {
        RunSpec {
            scheme: SchemeKind::ConvOptPg,
            seed,
            workload: Workload::Synthetic {
                pattern: TrafficPattern::UniformRandom,
                topo: Mesh::new(4, 4).into(),
                routing: RoutingKind::Xy,
                rate: 0.01,
                warmup_cycles: 10,
                measure_cycles: 50,
            },
        }
    }

    fn metrics() -> Metrics {
        Metrics {
            delivered: 5,
            injected: 6,
            exec_cycles: 50,
            total_cycles: 60,
            latency: 21.5,
            latency_p50: 20,
            latency_p95: 27,
            latency_p99: 29,
            latency_max: 31,
            encounters: 0.0,
            wait: 0.0,
            escalations: 0,
            off_fraction: 0.5,
            dynamic_pj: 1.0,
            static_pj: 2.0,
            overhead_pj: 0.5,
            baseline_static_pj: 4.0,
            completed: true,
        }
    }

    fn temp_store(tag: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("punchsim-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::new(dir)
    }

    #[test]
    fn save_then_load_roundtrips() {
        let store = temp_store("roundtrip");
        let s = spec(1);
        assert_eq!(store.load(&s), None);
        store.save(&s, &metrics()).unwrap();
        assert_eq!(store.load(&s), Some(metrics()));
        // A different seed is a different key.
        assert_eq!(store.load(&spec(2)), None);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_or_mismatched_entries_miss() {
        let store = temp_store("corrupt");
        let s = spec(3);
        let path = store.save(&s, &metrics()).unwrap();
        std::fs::write(&path, "{not json").unwrap();
        assert_eq!(store.load(&s), None);
        // Valid JSON but wrong embedded hash must also miss.
        let mut doc = Json::obj();
        doc.push("schema", Json::Str(SCHEMA_VERSION.to_string()));
        doc.push("id", Json::Str(s.id()));
        doc.push("hash", Json::Str("0000000000000000".to_string()));
        doc.push("metrics", metrics().to_json());
        std::fs::write(&path, doc.render()).unwrap();
        assert_eq!(store.load(&s), None);
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
