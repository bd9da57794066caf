//! Seeded fault plans with named injection points.
//!
//! # Building a plan
//!
//! A plan is a seed plus one rule per injection point, built as a value
//! and installed process-wide with [`install`] — which is how the
//! service's `chaos` test installs one:
//!
//! ```
//! use an5d_fault::{FaultAction, FaultPlan, Trigger};
//! use std::time::Duration;
//!
//! let plan = FaultPlan::new(42)
//!     .rule("reactor.write", FaultAction::Error, Trigger::one_in(40), None)
//!     .rule("tunedb.append", FaultAction::Short(6), Trigger::every(3), None)
//!     .rule(
//!         "tuner.candidate",
//!         FaultAction::Delay(Duration::from_millis(2)),
//!         Trigger::Always,
//!         Some(5),
//!     );
//! assert_eq!(plan.evaluate("tunedb.append"), None);
//! ```
//!
//! Each rule is a point, a [`FaultAction`], a [`Trigger`] and an
//! optional cap on its fires:
//!
//! * action — [`FaultAction::Error`] (the operation fails with an
//!   injected [`io::Error`]), [`FaultAction::Delay`] (the operation is
//!   stalled, then proceeds), [`FaultAction::Short`] (I/O is truncated
//!   to at most N bytes: a short write at the reactor's socket, a torn
//!   append at the tune DB).
//! * trigger — [`Trigger::Always`], [`Trigger::Every`] (every Nth call,
//!   counter-based) or [`Trigger::OneIn`] (probability 1/N drawn from a
//!   splitmix64 stream seeded by `(seed, point, call index)`).
//! * limit — `Some(n)` caps the rule at n total fires.
//!
//! Trigger counts are [`NonZeroU64`], so a trigger that would divide by
//! zero inside an injection point cannot be built:
//!
//! ```compile_fail
//! let never = an5d_fault::Trigger::Every(0);
//! ```
//!
//! ```compile_fail
//! const NEVER: an5d_fault::Trigger = an5d_fault::Trigger::one_in(0);
//! ```
//!
//! Both trigger forms are deterministic: the decision for call *i* at a
//! point depends only on the seed, the point name, and *i*, never on
//! wall-clock time or OS randomness. [`FaultPlan::evaluate`] exposes
//! the decision stream directly so determinism is pinned by tests
//! without going through the process-wide installation.

use std::io;
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What an injection point should do for one triggering call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the operation with an injected [`io::Error`].
    Error,
    /// Stall the operation for the given duration, then proceed.
    Delay(Duration),
    /// Truncate the I/O to at most this many bytes (short read/write;
    /// a torn append at sites that simulate a mid-record crash).
    Short(usize),
}

/// How a rule decides whether a given call triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on every call.
    Always,
    /// Fire on every Nth call (calls N, 2N, 3N, … of that point).
    Every(NonZeroU64),
    /// Fire with probability 1/N from the seeded splitmix64 stream.
    OneIn(NonZeroU64),
}

impl Trigger {
    /// Fire on every `n`th call ([`Trigger::Every`]). Panics at `n = 0`:
    /// at compile time in a `const`, otherwise where the plan is built,
    /// never inside an injection point.
    pub const fn every(n: u64) -> Trigger {
        match NonZeroU64::new(n) {
            Some(n) => Trigger::Every(n),
            None => panic!("a fault trigger fires on every n-th call for n ≥ 1"),
        }
    }

    /// Fire on one call in `n` ([`Trigger::OneIn`]). Panics at `n = 0`,
    /// as [`Trigger::every`] does.
    pub const fn one_in(n: u64) -> Trigger {
        match NonZeroU64::new(n) {
            Some(n) => Trigger::OneIn(n),
            None => panic!("a fault trigger fires one in n calls for n ≥ 1"),
        }
    }
}

/// One rule of a plan: what happens at `point`, and when.
#[derive(Debug)]
struct Rule {
    point: String,
    action: FaultAction,
    trigger: Trigger,
    /// Maximum number of fires, `u64::MAX` when unlimited.
    limit: u64,
    calls: AtomicU64,
    fires: AtomicU64,
}

/// A seeded table of fault rules (see the module docs). Install
/// process-wide with [`install`]; evaluate directly with
/// [`FaultPlan::evaluate`] for determinism tests.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
}

impl FaultPlan {
    /// A plan with no rules whose [`Trigger::OneIn`] streams derive from
    /// `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Add the rule for `point`: `action` on the calls `trigger` picks,
    /// at most `limit` times (`None`: unlimited). A point is answered by
    /// its first rule.
    pub fn rule(
        mut self,
        point: &str,
        action: FaultAction,
        trigger: Trigger,
        limit: Option<u64>,
    ) -> FaultPlan {
        self.rules.push(Rule {
            point: point.to_string(),
            action,
            trigger,
            limit: limit.unwrap_or(u64::MAX),
            calls: AtomicU64::new(0),
            fires: AtomicU64::new(0),
        });
        self
    }

    /// Record one call at `name` and decide whether a fault fires.
    ///
    /// This is the deterministic core: the decision depends only on the
    /// seed, the point name, and that point's zero-based call index.
    pub fn evaluate(&self, name: &str) -> Option<FaultAction> {
        let rule = self.rules.iter().find(|r| r.point == name)?;
        let call = rule.calls.fetch_add(1, Ordering::Relaxed);
        let fires = match rule.trigger {
            Trigger::Always => true,
            Trigger::Every(n) => (call + 1) % n.get() == 0,
            Trigger::OneIn(n) => {
                splitmix64(self.seed ^ fnv1a64(name.as_bytes()) ^ call).is_multiple_of(n.get())
            }
        };
        if !fires {
            return None;
        }
        // The limit bounds *fires*, not calls: losers above do not
        // consume it.
        if rule.fires.fetch_add(1, Ordering::Relaxed) >= rule.limit {
            return None;
        }
        Some(rule.action)
    }

    /// Total fires at `name` so far (0 for an unknown point).
    fn fired(&self, name: &str) -> u64 {
        self.rules
            .iter()
            .filter(|r| r.point == name)
            .map(|r| r.fires.load(Ordering::Relaxed).min(r.limit))
            .sum()
    }
}

/// splitmix64: the standard 64-bit mixer; statistically solid for
/// deriving per-call decisions from `(seed, point, call)`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a 64 (local copy: this crate is dependency-free by design).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Process-wide installation
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);

/// Install `plan` process-wide, replacing any previous plan. Every
/// subsequent [`point`] probe anywhere in the process consults it.
pub fn install(plan: FaultPlan) -> Arc<FaultPlan> {
    let plan = Arc::new(plan);
    *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&plan));
    ENABLED.store(true, Ordering::Release);
    plan
}

/// Remove the installed plan; every probe returns to a no-op.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Release);
    *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// The currently installed plan, if any.
fn installed() -> Option<Arc<FaultPlan>> {
    if !ENABLED.load(Ordering::Acquire) {
        return None;
    }
    PLAN.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Probe the injection point `name`: `None` (the overwhelmingly common
/// case — a single relaxed atomic load when no plan is installed) means
/// proceed normally; `Some(action)` means the caller must inject the
/// action.
pub fn point(name: &str) -> Option<FaultAction> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    installed()?.evaluate(name)
}

/// The error every injected fault surfaces as, tagged with its point
/// name so test assertions (and operators reading logs) can tell
/// injected failures from real ones.
pub fn injected(name: &str) -> io::Error {
    io::Error::other(format!("injected fault at {name}"))
}

/// Total fires at `name` on the installed plan (0 when none installed).
pub fn fired(name: &str) -> u64 {
    installed().map_or(0, |p| p.fired(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that touch the process-wide plan must not interleave.
    static GLOBAL: Mutex<()> = Mutex::new(());

    /// Which of the first 64 calls at `point` fire, as bit `call`.
    fn fire_mask(plan: &FaultPlan, point: &str) -> u64 {
        (0..64).fold(0, |mask, call| {
            mask | u64::from(plan.evaluate(point).is_some()) << call
        })
    }

    /// The first 64 decisions for seed 42 at `reactor.write` under each
    /// trigger. A chaos soak is reproduced from its seed alone, so a
    /// change to the trigger arithmetic, the point hash or the mixer must
    /// show here, not as a different fault sequence.
    #[test]
    fn decision_streams_are_pinned() {
        let point = "reactor.write";
        let plan =
            |trigger, limit| FaultPlan::new(42).rule(point, FaultAction::Error, trigger, limit);
        let cases = [
            (Trigger::Always, None, 0xffff_ffff_ffff_ffff),
            (Trigger::every(3), None, 0x4924_9249_2492_4924),
            (Trigger::one_in(8), None, 0x0020_2310_c004_2040),
            (Trigger::Always, Some(2), 0x0000_0000_0000_0003),
            // The limit bounds fires, not calls: the 1-in-8 rule still
            // fires at its first two draws, calls 6 and 13.
            (Trigger::one_in(8), Some(2), 0x0000_0000_0000_2040),
        ];
        for (trigger, limit, expected) in cases {
            let plan = plan(trigger, limit);
            assert_eq!(
                fire_mask(&plan, point),
                expected,
                "{trigger:?} limit {limit:?}"
            );
            assert_eq!(plan.fired(point), u64::from(expected.count_ones()));
        }
    }

    /// A count of zero has no trigger: the variants hold `NonZeroU64`
    /// (the module docs' `compile_fail` examples), and the shorthands
    /// refuse zero when the plan is built, not when a point is probed.
    #[test]
    fn a_zero_count_is_refused() {
        assert!(std::panic::catch_unwind(|| Trigger::every(0)).is_err());
        assert!(std::panic::catch_unwind(|| Trigger::one_in(0)).is_err());
        assert_eq!(Trigger::every(1), Trigger::Every(NonZeroU64::MIN));
        assert_eq!(Trigger::one_in(1), Trigger::OneIn(NonZeroU64::MIN));
    }

    #[test]
    fn a_plan_without_rules_never_fires() {
        let plan = FaultPlan::new(7);
        assert_eq!(plan.evaluate("anything"), None);
        assert_eq!(plan.fired("anything"), 0);
    }

    #[test]
    fn every_trigger_fires_on_exact_multiples() {
        let plan = FaultPlan::new(0).rule("p", FaultAction::Error, Trigger::every(3), None);
        let fired: Vec<bool> = (0..9).map(|_| plan.evaluate("p").is_some()).collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(plan.fired("p"), 3);
    }

    #[test]
    fn limit_caps_total_fires() {
        let plan = FaultPlan::new(0).rule("p", FaultAction::Error, Trigger::Always, Some(2));
        let fired = (0..10).filter(|_| plan.evaluate("p").is_some()).count();
        assert_eq!(fired, 2);
        assert_eq!(plan.fired("p"), 2);
    }

    #[test]
    fn identical_seeds_yield_identical_fault_sequences() {
        // The acceptance-criteria determinism pin: two plans built alike,
        // driven through the same call sequence, must decide identically
        // at every step — and a different seed must diverge somewhere
        // (or the probabilistic trigger is broken).
        let build = |seed| {
            FaultPlan::new(seed)
                .rule("a", FaultAction::Error, Trigger::one_in(3), None)
                .rule("b", FaultAction::Short(8), Trigger::one_in(5), None)
                .rule(
                    "c",
                    FaultAction::Delay(Duration::from_millis(1)),
                    Trigger::every(4),
                    None,
                )
        };
        let drive = |plan: &FaultPlan| -> Vec<Option<FaultAction>> {
            (0..200)
                .flat_map(|_| ["a", "b", "c"])
                .map(|p| plan.evaluate(p))
                .collect()
        };
        let (s1, s2, s3) = (drive(&build(42)), drive(&build(42)), drive(&build(43)));
        assert_eq!(s1, s2, "same seed must give the same fault sequence");
        assert_ne!(s1, s3, "different seeds must diverge");
    }

    /// Injection sites probe `point` directly: a short write and an
    /// injected read error, answered from the installed plan.
    #[test]
    fn faulty_wrappers_inject_short_and_error_actions() {
        let _global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        let plan = install(
            FaultPlan::new(0)
                .rule("io.write", FaultAction::Short(2), Trigger::every(2), None)
                .rule("io.read", FaultAction::Error, Trigger::Always, Some(1)),
        );
        // Every 2nd call: call 1 passes, call 2 is truncated to 2 bytes.
        assert_eq!(point("io.write"), None);
        assert_eq!(point("io.write"), Some(FaultAction::Short(2)));
        // A limit of 1: the first call is injected, the limit restores
        // the rest.
        assert_eq!(point("io.read"), Some(FaultAction::Error));
        assert_eq!(point("io.read"), None);
        assert_eq!(plan.fired("io.read"), 1);
        assert_eq!(fired("io.read"), 1);
        uninstall();
    }

    /// Fail-or-proceed at a site: an `error` action surfaces as the
    /// tagged [`injected`] error; an exhausted limit, an unregistered
    /// point and an uninstalled plan all proceed.
    #[test]
    fn check_maps_actions_to_fail_or_proceed() {
        let _global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        install(FaultPlan::new(0).rule("gate", FaultAction::Error, Trigger::Always, Some(1)));
        assert_eq!(point("gate"), Some(FaultAction::Error));
        assert!(injected("gate")
            .to_string()
            .contains("injected fault at gate"));
        assert_eq!(point("gate"), None, "limit exhausted");
        assert_eq!(point("unregistered"), None);
        uninstall();
        assert_eq!(point("gate"), None, "no plan installed → no-op");
        assert_eq!(fired("gate"), 0, "no plan installed → nothing fired");
    }
}
