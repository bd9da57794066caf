//! Seeded fault plans with named injection points.
//!
//! # Plan specs
//!
//! A plan is parsed from a `;`-separated spec and installed
//! process-wide with [`install`] — which is how the service's `chaos`
//! test installs one:
//!
//! ```text
//! seed=42;reactor.write=error@1/40;tunedb.append=short:6@every:3;tuner.sweep=delay:2@1/8
//! ```
//!
//! Each rule is `point=action[@trigger][#limit]`:
//!
//! * action — `error` (the operation fails with an injected
//!   [`io::Error`]), `delay:MS` (the operation is stalled for MS
//!   milliseconds, then proceeds), `short:N` (I/O is truncated to at
//!   most N bytes: a short write at the reactor's socket, a torn
//!   append at the tune DB).
//! * trigger — `always` (default), `every:N` (fires on every Nth call,
//!   counter-based), or `1/N` (fires with probability 1/N drawn from a
//!   splitmix64 stream seeded by `(seed, point, call index)`).
//! * limit — `#N` caps the rule at N total fires.
//!
//! Both trigger forms are deterministic: the decision for call *i* at a
//! point depends only on the seed, the point name, and *i*, never on
//! wall-clock time or OS randomness. [`FaultPlan::evaluate`] exposes
//! the decision stream directly so determinism is pinned by tests
//! without going through the process-wide installation.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Cap on the fired-fault journal, so a long soak cannot grow memory
/// without bound; the per-rule fired counters are never capped.
const JOURNAL_CAP: usize = 4096;

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

impl FaultAction {
    fn describe(self) -> String {
        match self {
            FaultAction::Error => "error".to_string(),
            FaultAction::Delay(d) => format!("delay:{}", d.as_millis()),
            FaultAction::Short(n) => format!("short:{n}"),
        }
    }
}

/// How a rule decides whether a given call triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// Fire on every call.
    Always,
    /// Fire on every Nth call (calls N, 2N, 3N, … of that point).
    Every(u64),
    /// Fire with probability 1/N from the seeded splitmix64 stream.
    OneIn(u64),
}

/// One `point=action@trigger` rule of a plan.
#[derive(Debug)]
struct Rule {
    point: String,
    action: FaultAction,
    trigger: Trigger,
    /// Maximum number of fires (`#limit`), `u64::MAX` when unlimited.
    limit: u64,
    calls: AtomicU64,
    fires: AtomicU64,
}

/// One fired fault, as recorded in the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    /// The injection-point name the fault fired at.
    pub point: String,
    /// Zero-based call index at that point when the fault fired.
    pub call: u64,
    /// The action that was injected.
    pub action: FaultAction,
}

impl std::fmt::Display for FiredFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}={}", self.point, self.call, self.action.describe())
    }
}

/// A seeded table of fault rules (see module docs for the spec
/// grammar). Install process-wide with [`install`]; evaluate directly
/// with [`FaultPlan::evaluate`] for determinism tests.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
    journal: Mutex<Vec<FiredFault>>,
}

impl FaultPlan {
    /// Parse a plan from its textual spec. An empty (or all-whitespace)
    /// spec yields a plan with no rules.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut seed = 0u64;
        let mut rules = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if let Some(value) = part.strip_prefix("seed=") {
                seed = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("fault plan: bad seed {value:?}"))?;
                continue;
            }
            let (point, rest) = part
                .split_once('=')
                .ok_or_else(|| format!("fault plan: rule {part:?} is not point=action"))?;
            let (rest, limit) = match rest.split_once('#') {
                Some((rest, limit)) => (
                    rest,
                    limit
                        .parse()
                        .map_err(|_| format!("fault plan: bad limit in {part:?}"))?,
                ),
                None => (rest, u64::MAX),
            };
            let (action, trigger) = match rest.split_once('@') {
                Some((action, trigger)) => (action, parse_trigger(trigger)?),
                None => (rest, Trigger::Always),
            };
            rules.push(Rule {
                point: point.trim().to_string(),
                action: parse_action(action)?,
                trigger,
                limit,
                calls: AtomicU64::new(0),
                fires: AtomicU64::new(0),
            });
        }
        Ok(FaultPlan {
            seed,
            rules,
            journal: Mutex::new(Vec::new()),
        })
    }

    /// The plan's seed (for reporting).
    pub fn seed(&self) -> u64 {
        self.seed
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
            Trigger::Every(n) => (call + 1) % n == 0,
            Trigger::OneIn(n) => {
                splitmix64(self.seed ^ fnv1a64(name.as_bytes()) ^ call).is_multiple_of(n)
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
        let mut journal = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        if journal.len() < JOURNAL_CAP {
            journal.push(FiredFault {
                point: name.to_string(),
                call,
                action: rule.action,
            });
        }
        Some(rule.action)
    }

    /// Total fires at `name` so far (0 for an unknown point).
    pub fn fired(&self, name: &str) -> u64 {
        self.rules
            .iter()
            .filter(|r| r.point == name)
            .map(|r| r.fires.load(Ordering::Relaxed).min(r.limit))
            .sum()
    }

    /// The journal of fired faults, in firing order (capped at
    /// [`JOURNAL_CAP`] entries).
    pub fn journal(&self) -> Vec<FiredFault> {
        self.journal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

fn parse_action(action: &str) -> Result<FaultAction, String> {
    let action = action.trim();
    if action == "error" {
        return Ok(FaultAction::Error);
    }
    if let Some(ms) = action.strip_prefix("delay:") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("fault plan: bad delay {action:?}"))?;
        return Ok(FaultAction::Delay(Duration::from_millis(ms)));
    }
    if let Some(bytes) = action.strip_prefix("short:") {
        let bytes: usize = bytes
            .parse()
            .map_err(|_| format!("fault plan: bad short {action:?}"))?;
        return Ok(FaultAction::Short(bytes));
    }
    Err(format!(
        "fault plan: unknown action {action:?} (expected error, delay:MS, or short:N)"
    ))
}

fn parse_trigger(trigger: &str) -> Result<Trigger, String> {
    let trigger = trigger.trim();
    if trigger == "always" {
        return Ok(Trigger::Always);
    }
    if let Some(n) = trigger.strip_prefix("every:") {
        let n: u64 = n
            .parse()
            .map_err(|_| format!("fault plan: bad trigger {trigger:?}"))?;
        if n == 0 {
            return Err("fault plan: every:0 is meaningless".to_string());
        }
        return Ok(Trigger::Every(n));
    }
    if let Some(n) = trigger.strip_prefix("1/") {
        let n: u64 = n
            .parse()
            .map_err(|_| format!("fault plan: bad trigger {trigger:?}"))?;
        if n == 0 {
            return Err("fault plan: 1/0 is meaningless".to_string());
        }
        return Ok(Trigger::OneIn(n));
    }
    Err(format!(
        "fault plan: unknown trigger {trigger:?} (expected always, every:N, or 1/N)"
    ))
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
pub fn installed() -> Option<Arc<FaultPlan>> {
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

/// Journal of fired faults on the installed plan (empty when none).
pub fn journal() -> Vec<FiredFault> {
    installed().map_or_else(Vec::new, |p| p.journal())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Tests that touch the process-wide plan must not interleave.
    static GLOBAL: Mutex<()> = Mutex::new(());

    /// A rule's parsed fields, comparable across plans.
    fn rules(plan: &FaultPlan) -> Vec<(String, FaultAction, Trigger, u64)> {
        let fields = |r: &Rule| (r.point.clone(), r.action, r.trigger, r.limit);
        plan.rules.iter().map(fields).collect()
    }

    /// A spec for `plan` in the grammar of the module docs. The space
    /// before `=` keeps a point named `seed` a point.
    fn render(plan: &FaultPlan) -> String {
        let mut spec = format!("seed={}", plan.seed);
        for rule in &plan.rules {
            let trigger = match rule.trigger {
                Trigger::Always => "always".to_string(),
                Trigger::Every(n) => format!("every:{n}"),
                Trigger::OneIn(n) => format!("1/{n}"),
            };
            let action = rule.action.describe();
            spec += &format!(";{} ={action}@{trigger}#{}", rule.point, rule.limit);
        }
        spec
    }

    /// Parse `spec`, which must not panic; a spec it accepts must read
    /// back, from its rendering, as the same seed and rules.
    fn assert_parse_round_trips(spec: &str) {
        let Ok(plan) = FaultPlan::parse(spec) else {
            return;
        };
        let rendered = render(&plan);
        let again = FaultPlan::parse(&rendered)
            .unwrap_or_else(|e| panic!("{spec:?} rendered as {rendered:?}: {e}"));
        assert_eq!(again.seed, plan.seed, "{spec:?} → {rendered:?}");
        assert_eq!(rules(&again), rules(&plan), "{spec:?} → {rendered:?}");
    }

    /// Choices for each slot of `point=action@trigger#limit`, valid and
    /// not, so that random specs are often accepted and often refused.
    const POINTS: &[&str] = &["p", "tuner.x", "seed", " seed ", "", "a#b", "a@b", "é"];
    const ACTIONS: &[&str] = &[
        "error",
        "delay:5",
        " short:0 ",
        "delay:+7",
        "short:-1",
        "nope",
    ];
    const TRIGGERS: &[&str] = &["", "@always", "@every:3", "@ 1/8 ", "@every:0", "@1/", "@"];
    const LIMITS: &[&str] = &["", "#0", "#2", "#+3", "#18446744073709551615", "# 4", "#x"];
    const SEEDS: &[&str] = &["seed=42", "seed= 7 ", "seed=-1", " ", ""];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn arbitrary_bytes_never_panic_the_grammar(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            assert_parse_round_trips(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn accepted_specs_round_trip(
            parts in prop::collection::vec(prop::collection::vec(0usize..64, 5), 0..5),
            noise in prop::collection::vec(any::<u8>(), 0..3),
        ) {
            let part = |c: &[usize]| match c[4] % 4 {
                0 => SEEDS[c[0] % SEEDS.len()].to_string(),
                _ => format!(
                    "{}={}{}{}",
                    POINTS[c[0] % POINTS.len()],
                    ACTIONS[c[1] % ACTIONS.len()],
                    TRIGGERS[c[2] % TRIGGERS.len()],
                    LIMITS[c[3] % LIMITS.len()],
                ),
            };
            let mut spec = parts.iter().map(|c| part(c)).collect::<Vec<_>>().join(";");
            spec += &String::from_utf8_lossy(&noise);
            assert_parse_round_trips(&spec);
        }
    }

    #[test]
    fn empty_and_seed_only_specs_parse_to_no_rules() {
        assert!(FaultPlan::parse("").unwrap().rules.is_empty());
        let plan = FaultPlan::parse(" seed=7 ; ").unwrap();
        assert_eq!(plan.seed(), 7);
        assert!(plan.rules.is_empty());
        assert_eq!(plan.evaluate("anything"), None);
    }

    #[test]
    fn every_trigger_fires_on_exact_multiples() {
        let plan = FaultPlan::parse("p=error@every:3").unwrap();
        let fired: Vec<bool> = (0..9).map(|_| plan.evaluate("p").is_some()).collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(plan.fired("p"), 3);
    }

    #[test]
    fn limit_caps_total_fires() {
        let plan = FaultPlan::parse("p=error#2").unwrap();
        let fired = (0..10).filter(|_| plan.evaluate("p").is_some()).count();
        assert_eq!(fired, 2);
        assert_eq!(plan.fired("p"), 2);
    }

    #[test]
    fn identical_seeds_yield_identical_fault_sequences() {
        // The acceptance-criteria determinism pin: two plans built from
        // the same spec, driven through the same call sequence, must
        // decide identically at every step — and a different seed must
        // diverge somewhere (or the probabilistic trigger is broken).
        let spec = "seed=42;a=error@1/3;b=short:8@1/5;c=delay:1@every:4";
        let one = FaultPlan::parse(spec).unwrap();
        let two = FaultPlan::parse(spec).unwrap();
        let other = FaultPlan::parse(&spec.replace("seed=42", "seed=43")).unwrap();
        let drive = |plan: &FaultPlan| -> Vec<Option<FaultAction>> {
            (0..200)
                .flat_map(|_| ["a", "b", "c"])
                .map(|p| plan.evaluate(p))
                .collect()
        };
        let (s1, s2, s3) = (drive(&one), drive(&two), drive(&other));
        assert_eq!(s1, s2, "same seed must give the same fault sequence");
        assert_ne!(s1, s3, "different seeds must diverge");
        assert_eq!(one.journal(), two.journal());
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for bad in [
            "p",
            "p=explode",
            "p=delay:xs",
            "p=error@sometimes",
            "p=error@every:0",
            "p=error@1/0",
            "seed=banana",
            "p=error#many",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    /// Injection sites probe `point` directly: a short write and an
    /// injected read error, answered from the installed plan.
    #[test]
    fn faulty_wrappers_inject_short_and_error_actions() {
        let _global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        let plan = install(FaultPlan::parse("io.write=short:2@every:2;io.read=error#1").unwrap());
        // `every:2`: call 1 passes, call 2 is truncated to 2 bytes.
        assert_eq!(point("io.write"), None);
        assert_eq!(point("io.write"), Some(FaultAction::Short(2)));
        // `#1`: the first call is injected, the limit restores the rest.
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
        install(FaultPlan::parse("gate=error#1").unwrap());
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
