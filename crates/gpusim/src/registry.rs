//! Device identity: [`DeviceId`] and the [`DeviceRegistry`] that owns
//! every [`GpuDevice`] profile a process knows about.
//!
//! The performance model, the tuner and `an5d-serve` are all
//! parameterized by the GPU, and tuned temporal-blocking configurations
//! shift materially across GPU generations — so device identity is
//! correctness-relevant state, not a display label. This module makes it
//! first-class: profiles are registered once under a stable [`DeviceId`]
//! and every consumer (the service routing layer, the bench harnesses,
//! per-device plan caches) resolves names through the registry instead
//! of hardcoding constructors.

use crate::device::GpuDevice;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// A stable, canonical identifier for a registered GPU profile
/// (e.g. `"v100"`, `"p100"`, `"a100"`, `"small"`).
///
/// Ids are lowercase; construction normalizes case so lookups and cache
/// keys never depend on how a client spelled the name. `Ord` makes ids
/// usable as deterministic `BTreeMap` keys (per-device shards, their
/// `/metrics` series rendered in stable order).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(String);

impl DeviceId {
    /// Build an id from any spelling of the name (lowercased).
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self(name.trim().to_ascii_lowercase())
    }

    /// The canonical lowercase name.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for DeviceId {
    fn from(name: &str) -> Self {
        Self::new(name)
    }
}

struct Profile {
    device: GpuDevice,
    aliases: Vec<String>,
}

/// Owns every [`GpuDevice`] profile of a deployment and resolves names
/// (canonical ids and aliases, case-insensitively) to them.
///
/// The iteration order of [`DeviceRegistry::ids`] / `devices` is the
/// id's lexicographic order, so everything derived from a registry —
/// error messages, `/devices` listings, cache-shard layouts — is
/// deterministic.
pub struct DeviceRegistry {
    profiles: BTreeMap<DeviceId, Profile>,
    default_id: Option<DeviceId>,
}

impl fmt::Debug for DeviceRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceRegistry")
            .field("ids", &self.ids().collect::<Vec<_>>())
            .field("default", &self.default_id)
            .finish()
    }
}

impl Default for DeviceRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

impl DeviceRegistry {
    /// An empty registry (no profiles, no default).
    #[must_use]
    pub fn empty() -> Self {
        Self {
            profiles: BTreeMap::new(),
            default_id: None,
        }
    }

    /// The standard fleet: the paper's evaluation devices (V100, P100)
    /// plus Ampere A100 and a generic small GPU, with the V100 — the
    /// paper's primary device — as the default.
    #[must_use]
    pub fn standard() -> Self {
        let mut registry = Self::empty();
        let v100 = registry.register_with_aliases(GpuDevice::tesla_v100(), "v100", &["tesla_v100"]);
        registry.register_with_aliases(GpuDevice::tesla_p100(), "p100", &["tesla_p100"]);
        registry.register_with_aliases(GpuDevice::ampere_a100(), "a100", &["ampere_a100"]);
        registry.register_with_aliases(GpuDevice::generic_small(), "small", &["generic_small"]);
        registry.default_id = Some(v100);
        registry
    }

    /// Register a profile under the lowercase of its short name,
    /// returning the assigned id. Re-registering an id replaces its
    /// profile.
    pub fn register(&mut self, device: GpuDevice) -> DeviceId {
        let id = DeviceId::new(device.short_name());
        self.register_with_aliases(device, &id.0.clone(), &[])
    }

    /// Register a profile under an explicit id plus extra accepted
    /// aliases (all matched case-insensitively).
    pub(crate) fn register_with_aliases(
        &mut self,
        device: GpuDevice,
        id: &str,
        aliases: &[&str],
    ) -> DeviceId {
        let id = DeviceId::new(id);
        self.profiles.insert(
            id.clone(),
            Profile {
                device,
                aliases: aliases
                    .iter()
                    .map(|a| a.trim().to_ascii_lowercase())
                    .collect(),
            },
        );
        if self.default_id.is_none() {
            self.default_id = Some(id.clone());
        }
        id
    }

    /// The default device id (the paper's V100 in the standard registry).
    ///
    /// # Panics
    ///
    /// Panics on an empty registry — a registry without devices cannot
    /// answer device-defaulting requests.
    #[must_use]
    pub fn default_id(&self) -> &DeviceId {
        self.default_id
            .as_ref()
            .expect("registry has no devices, so no default")
    }

    /// Resolve any accepted spelling (canonical id or alias,
    /// case-insensitive) to the canonical id.
    #[must_use]
    pub fn resolve_id(&self, name: &str) -> Option<DeviceId> {
        let wanted = name.trim().to_ascii_lowercase();
        if self.profiles.contains_key(&DeviceId(wanted.clone())) {
            return Some(DeviceId(wanted));
        }
        self.profiles
            .iter()
            .find(|(_, profile)| profile.aliases.contains(&wanted))
            .map(|(id, _)| id.clone())
    }

    /// Resolve a name to its id and profile in one step.
    #[must_use]
    pub fn resolve(&self, name: &str) -> Option<(DeviceId, &GpuDevice)> {
        let id = self.resolve_id(name)?;
        let device = &self.profiles.get(&id)?.device;
        Some((id, device))
    }

    /// An owned clone of the profile for any accepted spelling — the
    /// one-call form for call sites that just want a `GpuDevice` value
    /// (examples, benches, tuner construction).
    #[must_use]
    pub fn profile(&self, name: &str) -> Option<GpuDevice> {
        self.resolve(name).map(|(_, device)| device.clone())
    }

    /// The profile registered under an exact id.
    #[must_use]
    pub fn get(&self, id: &DeviceId) -> Option<&GpuDevice> {
        self.profiles.get(id).map(|p| &p.device)
    }

    /// All ids, in lexicographic (deterministic) order.
    pub fn ids(&self) -> impl Iterator<Item = &DeviceId> {
        self.profiles.keys()
    }

    /// All (id, profile) pairs, in id order.
    pub fn devices(&self) -> impl Iterator<Item = (&DeviceId, &GpuDevice)> {
        self.profiles.iter().map(|(id, p)| (id, &p.device))
    }

    /// Number of registered profiles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// `true` when no profile is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The accepted canonical names, comma-separated in id order — the
    /// single source for "must be one of …" error messages, so adding a
    /// profile automatically makes it usable (and documented) at every
    /// API boundary.
    #[must_use]
    pub fn accepted_names(&self) -> String {
        self.ids()
            .map(|id| format!("\"{id}\""))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// The paper's evaluation devices from this registry, in the
    /// paper's reporting order (V100 first), skipping any that are not
    /// registered.
    #[must_use]
    pub fn paper_devices(&self) -> Vec<GpuDevice> {
        ["v100", "p100"]
            .iter()
            .filter_map(|name| self.resolve(name).map(|(_, d)| d.clone()))
            .collect()
    }
}

/// The process-wide standard registry ([`DeviceRegistry::standard`]),
/// shared by the bench harnesses, examples and service defaults.
#[must_use]
pub fn standard_registry() -> &'static DeviceRegistry {
    static STANDARD: OnceLock<DeviceRegistry> = OnceLock::new();
    STANDARD.get_or_init(DeviceRegistry::standard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_grid::Precision;

    #[test]
    fn standard_registry_has_at_least_four_profiles_with_v100_default() {
        let registry = DeviceRegistry::standard();
        assert!(registry.len() >= 4, "fleet of {}", registry.len());
        assert_eq!(registry.default_id().as_str(), "v100");
        for id in ["v100", "p100", "a100", "small"] {
            assert!(registry.resolve(id).is_some(), "{id} must be registered");
        }
    }

    #[test]
    fn resolution_is_case_insensitive_and_accepts_aliases() {
        let registry = DeviceRegistry::standard();
        for spelling in ["V100", "v100", " tesla_v100 ", "TESLA_V100"] {
            let (id, device) = registry.resolve(spelling).expect(spelling);
            assert_eq!(id.as_str(), "v100");
            assert_eq!(device.short_name(), "V100");
        }
        let (id, device) = registry.resolve("Ampere_A100").unwrap();
        assert_eq!(id.as_str(), "a100");
        assert_eq!(device.sm_count, 108);
        assert!(registry.resolve("h100").is_none());
        assert_eq!(registry.profile("Tesla_P100").unwrap().short_name(), "P100");
        assert!(registry.profile("h100").is_none());
    }

    #[test]
    fn every_profile_satisfies_the_paper_device_invariants() {
        // Table 4's shape holds for the new profiles too: peak compute is
        // monotonically non-increasing in precision width, and measured
        // global/shared bandwidths are monotonically non-decreasing
        // (`f64` streams move wider elements, so both paper devices
        // measured slightly higher bandwidth at double precision).
        let registry = DeviceRegistry::standard();
        for (id, device) in registry.devices() {
            assert!(
                device.peak_gflops(Precision::Single) >= device.peak_gflops(Precision::Double),
                "{id}: f32 peak must be >= f64 peak"
            );
            assert!(
                device.peak_gflops(Precision::Double) > 0.0,
                "{id}: peaks must be positive"
            );
            assert!(
                device.measured_mem_bw(Precision::Double)
                    >= device.measured_mem_bw(Precision::Single),
                "{id}: measured global bandwidth must be monotonic in precision"
            );
            assert!(
                device.measured_shared_bw(Precision::Double)
                    >= device.measured_shared_bw(Precision::Single),
                "{id}: measured shared bandwidth must be monotonic in precision"
            );
            assert!(
                device.measured_mem_bw(Precision::Single) <= device.peak_mem_bw,
                "{id}: measurements cannot exceed peak"
            );
            assert!(device.sm_count > 0 && device.shared_mem_per_sm > 0, "{id}");
            assert!(
                device.shared_mem_efficiency > 0.0 && device.shared_mem_efficiency <= 1.0,
                "{id}"
            );
        }
    }

    #[test]
    fn fleet_ordering_matches_relative_device_class() {
        let registry = DeviceRegistry::standard();
        let peak = |name: &str| registry.resolve(name).unwrap().1.peak_gflops_f32;
        assert!(peak("a100") > peak("v100"));
        assert!(peak("v100") > peak("p100"));
        assert!(peak("p100") > peak("small"));
    }

    #[test]
    fn ids_normalize_and_order_deterministically() {
        assert_eq!(DeviceId::new(" V100 ").as_str(), "v100");
        assert_eq!(DeviceId::from("P100"), DeviceId::new("p100"));
        let registry = DeviceRegistry::standard();
        let ids: Vec<&str> = registry.ids().map(DeviceId::as_str).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "registry iterates in id order");
    }

    #[test]
    fn custom_registration_and_default_selection() {
        let mut registry = DeviceRegistry::empty();
        assert!(registry.is_empty());
        let id = registry.register(GpuDevice::tesla_p100());
        assert_eq!(id.as_str(), "p100");
        assert_eq!(registry.default_id().as_str(), "p100", "first in = default");
        registry.register_with_aliases(GpuDevice::tesla_v100(), "v100", &["volta"]);
        assert_eq!(
            registry.default_id().as_str(),
            "p100",
            "the first device stays the default"
        );
        assert_eq!(registry.accepted_names(), "\"p100\", \"v100\"");
    }

    #[test]
    fn paper_devices_come_back_in_reporting_order() {
        let devices = DeviceRegistry::standard().paper_devices();
        assert_eq!(devices.len(), 2);
        assert_eq!(devices[0].short_name(), "V100");
        assert_eq!(devices[1].short_name(), "P100");
        assert_eq!(devices, GpuDevice::paper_devices());
    }
}
