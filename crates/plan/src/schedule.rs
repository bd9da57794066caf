//! The head / inner / tail macro schedule of the generated kernel (Fig. 5).
//!
//! [`KernelSchedule`] stores `(bT, rad)` alone: what the model and the
//! executor read (`syncs_per_plane`, `head_planes`) is closed-form, and the
//! O(bT²·rad) macro sequence is a lazy walk of `Copy` ops
//! ([`KernelSchedule::ops`]) that the code generator prints as it goes.
//! The walk is one iterator, a state machine over the plane front, its
//! stage (LOAD, `CALC_1 ..= CALC_{bT−1}`, STORE) and a pending barrier;
//! every front follows one rule, and `tests/schedule_oracle.rs` checks
//! over concrete streams that the walk computes the stencil.

use crate::BlockConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A register slot `reg_T_M`: register `M` of the window belonging to
/// computational stream (combined time-step) `T`.
///
/// With AN5D's fixed allocation the slot index is simply the sub-plane's
/// streaming index, counted from `stream_begin`, modulo the window size
/// `2·rad + 1`; no values ever move between slots (Fig. 3 (b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RegSlot {
    /// Combined time-step `T` (0 = the stream that loads from global memory).
    pub time_step: usize,
    /// Slot index within the `2·rad + 1` register window of that stream.
    pub slot: usize,
}

/// The CUDA identifier the code generator prints (`reg_T_M`).
impl fmt::Display for RegSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reg_{}_{}", self.time_step, self.slot)
    }
}

/// Every slot of stream `time_step`'s register window in macro-argument
/// order: `first, first + 1, …`, modulo the window size `len = 2·rad + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RegWindow {
    /// Combined time-step `T` of the stream the registers belong to.
    pub time_step: usize,
    /// Slot of the first register in argument order.
    pub first: usize,
    /// Window size `2·rad + 1`: the number of registers and the modulus.
    pub len: usize,
}

impl RegWindow {
    /// The registers in argument order.
    pub fn slots(self) -> impl Iterator<Item = RegSlot> {
        (0..self.len).map(move |m| RegSlot {
            time_step: self.time_step,
            slot: (self.first + m) % self.len,
        })
    }
}

/// The argument list the code generator prints (`reg_T_a, reg_T_b, …`).
impl fmt::Display for RegWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (m, reg) in self.slots().enumerate() {
            if m > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{reg}")?;
        }
        Ok(())
    }
}

/// One macro call of the generated kernel. The tail guards it by where its
/// plane lies in the stream `[stream_begin, stream_end)`, whose `rad`
/// planes at either end are frozen; the head and the inner loop need none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MacroOp {
    /// `LOAD(reg_T_M, plane)`: read one sub-plane of the input grid from
    /// global memory into a register of stream 0, or of stream `T` if the
    /// plane is frozen.
    Load {
        /// Destination register.
        dst: RegSlot,
        /// Streaming-dimension plane index, relative to `stream_begin` (head)
        /// or the loop variable `s`, whole windows past it (inner, tail).
        plane: i64,
    },
    /// `CALC_T(dst, src…)`, `T < bT`: compute one updatable sub-plane of
    /// combined time-step `T` from the `2·rad + 1` source registers of
    /// time-step `T − 1`, going through shared buffer
    /// [`KernelSchedule::shared_buffer`] for the intra-plane neighbour
    /// exchange. The tail `LOAD`s a frozen plane into `dst` instead.
    Calc {
        /// Combined time-step being computed (1-based, below `bT`).
        time_step: usize,
        /// Destination register.
        dst: RegSlot,
        /// Source registers (stream `T − 1`), centred on the computed plane.
        srcs: RegWindow,
        /// The computed plane (see [`MacroOp::Load::plane`]).
        plane: i64,
    },
    /// `STORE(plane, regs…)`: compute the last time-step `bT` of one
    /// updatable sub-plane from stream `bT − 1`'s registers and write it
    /// back to global memory.
    Store {
        /// The stored plane (see [`MacroOp::Load::plane`]).
        plane: i64,
        /// Source registers (stream `bT − 1`), centred on the stored plane.
        regs: RegWindow,
    },
    /// `__syncthreads()` — block-wide barrier between time-step stages.
    Sync,
}

/// The three phases of the generated kernel (Section 4.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Pipeline fill: straight-line code for a stream of `head_planes` or more.
    Head,
    /// Steady state: a loop whose body is unrolled by the register-window
    /// size `2·rad + 1` so register indices stay static.
    Inner,
    /// Pipeline drain: a loop of guarded register windows (all of a short stream).
    Tail,
}

/// The complete macro schedule of one AN5D kernel: `(bT, rad)`, and the
/// macro calls of each phase walked from them on demand
/// ([`ops`](Self::ops)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelSchedule {
    bt: usize,
    radius: usize,
}

impl KernelSchedule {
    /// The schedule for a configuration and stencil radius.
    ///
    /// The schedule realises the pipeline of Fig. 1: after the T = 0 stream
    /// has loaded `T·rad` planes, stream `T` starts computing; a finished
    /// plane of time-step `bT` is stored `bT·rad` planes behind the loads.
    #[must_use]
    pub fn build(config: &BlockConfig, radius: usize) -> Self {
        Self {
            bt: config.bt(),
            radius,
        }
    }

    /// Unroll factor of the inner loop: the register window `2·rad + 1`.
    #[must_use]
    pub fn unroll(&self) -> usize {
        2 * self.radius + 1
    }

    /// Plane fronts the head runs: `(bT + 1)·rad`, from which on every
    /// stage of a front works on an updatable plane of a stream at least
    /// that long, rounded up to whole register windows.
    #[must_use]
    pub fn head_planes(&self) -> usize {
        ((self.bt + 1) * self.radius).next_multiple_of(self.unroll())
    }

    /// Plane fronts the pipeline runs past the stream's last plane,
    /// `(bT − 1)·rad`: the last STORE's, `rad` planes below the end.
    #[must_use]
    pub fn drain_planes(&self) -> usize {
        (self.bt - 1) * self.radius
    }

    /// Number of block synchronisations per streamed plane in the steady
    /// state: one after the load and one per combined time-step thanks to
    /// double buffering (Section 4.2.2).
    #[must_use]
    pub fn syncs_per_plane(&self) -> usize {
        self.bt + 1
    }

    /// The shared buffer (`sm0` / `sm1`) that `CALC{time_step}` (the STORE
    /// at `bT`) writes its plane into and reads in-plane neighbours from:
    /// the two buffers alternate between combined time-steps.
    #[must_use]
    pub fn shared_buffer(&self, time_step: usize) -> usize {
        (time_step + 1) % 2
    }

    /// The macro calls of one phase in program order, made as they are
    /// consumed by one hand-rolled iterator: plane fronts `0 .. head_planes`
    /// in the head, one register window from the loop variable `s` in an
    /// iteration of the inner loop or the tail. Advancing the pipeline to
    /// front `s` runs stage `T` on plane `s − T·rad`, each followed by a
    /// barrier:
    /// - `T = 0` LOADs the plane;
    /// - `0 < T < bT` CALCs it, or LOADs it into stream `T`'s window if it
    ///   is frozen;
    /// - `T = bT` STOREs it if it is updatable.
    ///
    /// The head decides this on the stream's first planes and skips the
    /// stages whose plane lies below them; the tail's guards decide it.
    pub fn ops(&self, phase: Phase) -> impl Iterator<Item = MacroOp> + '_ {
        let end = match phase {
            Phase::Head => self.head_planes(),
            Phase::Inner | Phase::Tail => self.unroll(),
        };
        Ops {
            schedule: self,
            head: phase == Phase::Head,
            s: 0,
            end: end as i64,
            stage: 0,
            sync: false,
        }
    }
}

/// The walk behind [`KernelSchedule::ops`]: plane front `s` steps through
/// its stages `0 ..= bT`, and a barrier owed by the op just returned comes
/// out on the next call.
struct Ops<'a> {
    schedule: &'a KernelSchedule,
    /// Planes count from `stream_begin` (the head), not from `s`.
    head: bool,
    /// The current plane front, and one past the phase's last.
    s: i64,
    end: i64,
    /// Front `s`'s next stage, `0 ..= bT`.
    stage: usize,
    /// The op returned last is followed by a `Sync`.
    sync: bool,
}

impl Ops<'_> {
    /// Stream `time_step`'s register that holds `plane`.
    fn reg(&self, time_step: usize, plane: i64) -> RegSlot {
        RegSlot {
            time_step,
            slot: plane.rem_euclid(self.schedule.unroll() as i64) as usize,
        }
    }

    /// Stream `time_step`'s register window centred on `plane`.
    fn window(&self, time_step: usize, plane: i64) -> RegWindow {
        let first = self.reg(time_step, plane - self.schedule.radius as i64);
        RegWindow {
            time_step,
            first: first.slot,
            len: self.schedule.unroll(),
        }
    }
}

impl Iterator for Ops<'_> {
    type Item = MacroOp;

    fn next(&mut self) -> Option<MacroOp> {
        if std::mem::take(&mut self.sync) {
            return Some(MacroOp::Sync);
        }
        let (bt, radius) = (self.schedule.bt, self.schedule.radius as i64);
        while self.s < self.end {
            let t = self.stage;
            let plane = self.s - t as i64 * radius;
            if t == bt {
                self.stage = 0;
                self.s += 1;
            } else {
                self.stage += 1;
            }
            let frozen = self.head && plane < radius;
            if self.head && plane < 0 || frozen && t == bt {
                continue;
            }
            self.sync = true;
            return Some(match t {
                _ if t == 0 || frozen => MacroOp::Load {
                    dst: self.reg(t, plane),
                    plane,
                },
                _ if t == bt => MacroOp::Store {
                    plane,
                    regs: self.window(bt - 1, plane),
                },
                _ => MacroOp::Calc {
                    time_step: t,
                    dst: self.reg(t, plane),
                    srcs: self.window(t - 1, plane),
                    plane,
                },
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_grid::Precision;

    fn schedule(bt: usize, radius: usize) -> KernelSchedule {
        let config = BlockConfig::new(bt, &[256], None, Precision::Single).unwrap();
        KernelSchedule::build(&config, radius)
    }

    /// `[loads, calcs, stores, syncs]` of one phase.
    fn counts(s: &KernelSchedule, phase: Phase) -> [usize; 4] {
        let mut n = [0; 4];
        for op in s.ops(phase) {
            n[match op {
                MacroOp::Load { .. } => 0,
                MacroOp::Calc { .. } => 1,
                MacroOp::Store { .. } => 2,
                MacroOp::Sync => 3,
            }] += 1;
        }
        n
    }

    /// The listing (head, inner, tail) written out eagerly, front by
    /// front and stage by stage: the reference the lazy walk is compared
    /// against. Stage `T` of front `s` works on plane `s − T·rad`, held in
    /// slot `plane mod (2·rad + 1)`; the head LOADs the stream's `rad`
    /// frozen first planes into every stream and stores none of them.
    fn eager_reference(bt: usize, radius: usize) -> [Vec<MacroOp>; 3] {
        let unroll = 2 * radius + 1;
        let rad = radius as i64;
        let slot_of = |plane: i64| plane.rem_euclid(unroll as i64) as usize;
        let window = |time_step: usize, plane: i64| RegWindow {
            time_step,
            first: slot_of(plane - rad),
            len: unroll,
        };
        let front = |out: &mut Vec<MacroOp>, s: i64, head: bool| {
            for t in 0..=bt {
                let plane = s - t as i64 * rad;
                let frozen = head && plane < rad;
                if head && plane < 0 || frozen && t == bt {
                    continue;
                }
                let dst = RegSlot {
                    time_step: t,
                    slot: slot_of(plane),
                };
                out.push(if t == 0 || frozen {
                    MacroOp::Load { dst, plane }
                } else if t == bt {
                    MacroOp::Store {
                        plane,
                        regs: window(bt - 1, plane),
                    }
                } else {
                    MacroOp::Calc {
                        time_step: t,
                        dst,
                        srcs: window(t - 1, plane),
                        plane,
                    }
                });
                out.push(MacroOp::Sync);
            }
        };
        let head_planes = ((bt + 1) * radius).div_ceil(unroll) * unroll;
        let (mut head, mut inner) = (Vec::new(), Vec::new());
        for s in 0..head_planes as i64 {
            front(&mut head, s, true);
        }
        for s in 0..unroll as i64 {
            front(&mut inner, s, false);
        }
        let tail = inner.clone();
        [head, inner, tail]
    }

    #[test]
    fn on_demand_listing_and_closed_forms_match_the_eager_builder() {
        for bt in 1..=16 {
            for radius in 1..=4 {
                let s = schedule(bt, radius);
                let [head, inner, tail] = eager_reference(bt, radius);
                let walk = |phase| s.ops(phase).collect::<Vec<_>>();
                assert_eq!(walk(Phase::Head), head, "head bT={bt} rad={radius}");
                assert_eq!(walk(Phase::Inner), inner, "inner bT={bt} rad={radius}");
                assert_eq!(walk(Phase::Tail), tail, "tail bT={bt} rad={radius}");
                let inner_syncs = counts(&s, Phase::Inner)[3];
                assert_eq!(s.syncs_per_plane(), inner_syncs / s.unroll());
                assert_eq!(inner_syncs % s.unroll(), 0);
                // Stream 0 loads every head front's plane, and every other
                // stream its `rad` frozen first planes.
                let head_loads = counts(&s, Phase::Head)[0];
                assert_eq!(s.head_planes(), head_loads - (bt - 1) * radius);
                assert!(s.head_planes() >= (bt + 1) * radius);
                assert_eq!(s.head_planes() % s.unroll(), 0);
                assert_eq!(s.drain_planes(), (bt - 1) * radius);
            }
        }
    }

    #[test]
    fn inner_loop_is_unrolled_by_register_window() {
        for radius in 1..=4 {
            let s = schedule(4, radius);
            assert_eq!(s.unroll(), 2 * radius + 1);
            let [loads, _, stores, _] = counts(&s, Phase::Inner);
            assert_eq!(loads, s.unroll());
            assert_eq!(stores, s.unroll());
        }
    }

    #[test]
    fn inner_loop_runs_every_stream_each_plane() {
        let s = schedule(4, 1);
        // Each of the 3 unrolled plane steps runs CALC1..=CALC3; the
        // STORE computes time-step 4.
        assert_eq!(counts(&s, Phase::Inner)[1], 3 * 3);
        // One barrier per time-step per plane (plus the load barrier).
        assert_eq!(s.syncs_per_plane(), 4 + 1);
    }

    #[test]
    fn head_fills_pipeline_before_first_store() {
        let s = schedule(4, 1);
        // The first store (of plane rad = 1, the first updatable one)
        // comes once stream 0 has loaded planes 0 ..= 1 + bT·rad = 5.
        let loads = |op: &MacroOp| matches!(op, MacroOp::Load { dst, .. } if dst.time_step == 0);
        let loads_before = s
            .ops(Phase::Head)
            .take_while(|op| !matches!(op, MacroOp::Store { .. }))
            .filter(loads)
            .count();
        assert_eq!(loads_before, 6);
        // The head runs (bT + 1)·rad fronts rounded up to whole windows.
        assert_eq!(s.ops(Phase::Head).filter(loads).count(), 6);
    }

    #[test]
    fn head_calcs_respect_dependencies() {
        let s = schedule(3, 2);
        // Stream T cannot compute before T·rad planes are loaded, and its
        // first rad planes are frozen, so the head runs
        // Σ_{T < bT} (head_planes − T·rad − rad) CALCs.
        let head_planes = 10; // (bT + 1)·rad = 8, rounded up to windows of 5
        let expected: usize = (1..3).map(|t| head_planes - t * 2 - 2).sum();
        assert_eq!(counts(&s, Phase::Head)[1], expected);
    }

    #[test]
    fn tail_is_one_register_window_of_whole_fronts() {
        let s = schedule(4, 1);
        let [loads, calcs, stores, syncs] = counts(&s, Phase::Tail);
        // Its guards end the stream: the window's fronts load, calc and
        // store as the inner loop's do, while their planes are in it.
        assert_eq!([loads, calcs, stores], [3, 3 * 3, 3]);
        assert_eq!(syncs, 3 * s.syncs_per_plane());
    }

    #[test]
    fn register_slots_stay_within_window() {
        // A plane's register is its index from `stream_begin` modulo the
        // window, and every phase starts a whole number of windows past
        // it. CALC sources and STORE registers are centred on their plane.
        let s = schedule(5, 2);
        let (rad, unroll) = (2, s.unroll() as i64);
        let slots = |plane: i64| (-rad..=rad).map(move |d| (plane + d).rem_euclid(unroll) as usize);
        for phase in [Phase::Head, Phase::Inner, Phase::Tail] {
            for op in s.ops(phase) {
                match op {
                    MacroOp::Load { dst, plane } => {
                        assert_eq!(dst.slot as i64, plane.rem_euclid(unroll));
                    }
                    MacroOp::Calc {
                        dst, srcs, plane, ..
                    } => {
                        assert_eq!(dst.slot as i64, plane.rem_euclid(unroll));
                        assert!(srcs.slots().map(|r| r.slot).eq(slots(plane)), "{op:?}");
                    }
                    MacroOp::Store { plane, regs } => {
                        assert!(regs.slots().map(|r| r.slot).eq(slots(plane)), "{op:?}");
                    }
                    MacroOp::Sync => {}
                }
            }
        }
    }

    #[test]
    fn calc_reads_previous_stream_and_writes_current() {
        let s = schedule(4, 1);
        for phase in [Phase::Head, Phase::Inner, Phase::Tail] {
            for op in s.ops(phase) {
                if let MacroOp::Calc {
                    time_step,
                    dst,
                    srcs,
                    ..
                } = op
                {
                    assert!((1..4).contains(&time_step));
                    assert!(srcs.slots().all(|r| r.time_step == time_step - 1));
                    assert_eq!(dst.time_step, time_step);
                }
            }
        }
    }

    #[test]
    fn shared_buffer_alternates_between_time_steps() {
        let s = schedule(4, 1);
        let buffers: Vec<usize> = (1..=4).map(|t| s.shared_buffer(t)).collect();
        assert_eq!(buffers, [0, 1, 0, 1]);
    }

    #[test]
    fn reg_slot_cuda_names() {
        assert_eq!(
            RegSlot {
                time_step: 2,
                slot: 1
            }
            .to_string(),
            "reg_2_1"
        );
        let window = RegWindow {
            time_step: 1,
            first: 2,
            len: 3,
        };
        assert_eq!(window.to_string(), "reg_1_2, reg_1_0, reg_1_1");
    }
}
