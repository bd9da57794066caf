//! Name-based backend registry.

use crate::{ExecutionBackend, SerialBackend, VectorCpuBackend};
use std::sync::Arc;

/// Name of the environment variable binaries read a backend spec from.
/// The library never consults it: a `main` resolves it with
/// [`create_backend`] and hands the backend down.
pub const BACKEND_ENV: &str = "AN5D_BACKEND";

/// The registered backend family names.
///
/// `"vector"` also accepts an explicit worker count as
/// `"vector:<threads>"`; `"serial"` is `"vector:1"` under its own name.
#[must_use]
pub fn available_backends() -> &'static [&'static str] {
    &["serial", "vector"]
}

/// Instantiate a backend from its registry spec.
///
/// Accepted specs: `"serial"`, `"vector"` (one worker per CPU) and
/// `"vector:<threads>"` with `threads ≥ 1`. Returns `None` for anything
/// else — including `"vector:0"`: a zero worker count is an invalid spec
/// and is rejected rather than silently clamped to one thread.
#[must_use]
pub fn create_backend(spec: &str) -> Option<Arc<dyn ExecutionBackend>> {
    match spec.trim() {
        "serial" => Some(Arc::new(SerialBackend)),
        "vector" => Some(Arc::new(VectorCpuBackend::with_available_parallelism())),
        other => {
            let threads = other
                .strip_prefix("vector:")?
                .parse::<std::num::NonZeroUsize>()
                .ok()?;
            Some(Arc::new(VectorCpuBackend::new(threads.get())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_knows_all_families() {
        assert_eq!(available_backends(), &["serial", "vector"]);
        assert_eq!(create_backend("serial").unwrap().name(), "serial");
        assert_eq!(create_backend("vector").unwrap().name(), "vector");
    }

    #[test]
    fn vector_spec_accepts_an_explicit_thread_count() {
        let backend = create_backend("vector:5").unwrap();
        assert_eq!(backend.name(), "vector");
        assert!(backend.describe().contains('5'));
    }

    #[test]
    fn unknown_specs_are_rejected() {
        assert!(create_backend("gpu").is_none());
        // `serial` and `vector` are the only families.
        assert!(create_backend("parallel").is_none());
        assert!(create_backend("parallel:4").is_none());
        assert!(create_backend("vector:").is_none());
        assert!(create_backend("vector:x").is_none());
        assert!(create_backend("serial:2").is_none());
        assert!(create_backend("").is_none());
        // A zero worker count is invalid, not "one thread": it must take
        // the rejected-spec path instead of being silently clamped.
        assert!(create_backend("vector:0").is_none());
        assert!(create_backend(" vector:0 ").is_none());
    }

    #[test]
    fn spec_whitespace_is_tolerated() {
        assert_eq!(create_backend(" serial ").unwrap().name(), "serial");
    }
}
