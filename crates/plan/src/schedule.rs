//! The head / inner / tail macro schedule of the generated kernel (Fig. 5).
//!
//! [`KernelSchedule`] stores `(bT, rad)` alone: what the model and the
//! executor read (`syncs_per_plane`, `head_planes`) is closed-form, and the
//! O(bT²·rad) macro sequence is a lazy walk of `Copy` ops
//! ([`KernelSchedule::ops`]) that the code generator prints as it goes.
//! The walk is one iterator, a small state machine over the plane front,
//! its stage (LOAD, `CALC_1 ..= CALC_bT`, STORE) and a pending barrier,
//! rather than a chain of iterator adaptors per front and per stream.

use crate::BlockConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A register slot `reg_T_M`: register `M` of the window belonging to
/// computational stream (combined time-step) `T`.
///
/// With AN5D's fixed allocation the slot index is simply the sub-plane's
/// streaming index modulo the window size `2·rad + 1`; no values ever move
/// between slots (Fig. 3 (b)).
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

/// One macro call of the generated kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MacroOp {
    /// `LOAD(reg_0_M, plane)`: read one sub-plane of the input grid from
    /// global memory into a register of the T = 0 stream.
    Load {
        /// Destination register.
        dst: RegSlot,
        /// Streaming-dimension plane index, relative to `stream_begin` (head),
        /// the loop variable (inner) or `stream_end` (tail).
        plane: i64,
    },
    /// `CALC_T(dst, src…)`: compute one sub-plane of combined time-step `T`
    /// from the `2·rad + 1` source registers of time-step `T − 1`, going
    /// through shared buffer [`KernelSchedule::shared_buffer`] for the
    /// intra-plane neighbour exchange.
    Calc {
        /// Combined time-step being computed (1-based, up to `bT`).
        time_step: usize,
        /// Destination register.
        dst: RegSlot,
        /// Source registers (stream `T − 1`), centred on the computed plane.
        srcs: RegWindow,
    },
    /// `STORE(plane, regs…)`: write one finished sub-plane (time-step `bT`)
    /// back to global memory from the last stream's registers.
    Store {
        /// Streaming-dimension plane index (see [`MacroOp::Load::plane`]).
        plane: i64,
        /// Registers holding the finished values.
        regs: RegWindow,
    },
    /// `__syncthreads()` — block-wide barrier between time-step stages.
    Sync,
}

/// The three phases of the generated kernel (Section 4.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Pipeline fill: statically generated straight-line code.
    Head,
    /// Steady state: a loop whose body is unrolled by the register-window
    /// size `2·rad + 1` so register indices stay static.
    Inner,
    /// Pipeline drain: statically generated straight-line code.
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
    /// plane of stream `bT` is stored `bT·rad` planes behind the load front.
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

    /// Planes between the load front and the store front (`bT·rad`).
    fn lag(&self) -> i64 {
        (self.bt * self.radius) as i64
    }

    /// Planes the head phase loads before the steady state takes over
    /// (`bT·rad + 2·rad + 1`): the pipeline lag plus one register window.
    #[must_use]
    pub fn head_planes(&self) -> usize {
        self.lag() as usize + self.unroll()
    }

    /// Number of block synchronisations per streamed plane in the steady
    /// state: one after the load and one per combined time-step thanks to
    /// double buffering (Section 4.2.2).
    #[must_use]
    pub fn syncs_per_plane(&self) -> usize {
        self.bt + 1
    }

    /// The shared buffer (`sm0` / `sm1`) that `CALC{time_step}` writes its
    /// plane into and reads in-plane neighbours from: the two buffers
    /// alternate between combined time-steps.
    #[must_use]
    pub fn shared_buffer(&self, time_step: usize) -> usize {
        (time_step + 1) % 2
    }

    /// The macro calls of one phase in program order, made as they are
    /// consumed by one hand-rolled iterator: plane fronts `0 .. head_planes`
    /// in the head, one register window in an inner-loop iteration, the
    /// last `bT·rad` in the tail. Advancing the pipeline to front `s` emits
    /// - the LOAD of plane `s` and its barrier, except in the tail;
    /// - `CALC_T` of plane `s − T·rad` and its barrier, once stream `T`'s
    ///   inputs are loaded in the head (`s ≥ T·rad`), always in the inner
    ///   loop, and while stream `T` has planes left in the tail
    ///   (`s < rad·(bT − T)`);
    /// - the STORE of plane `s − bT·rad`, except in the head before the
    ///   pipeline is full (`s < bT·rad`).
    pub fn ops(&self, phase: Phase) -> impl Iterator<Item = MacroOp> + '_ {
        let end = match phase {
            Phase::Head => self.head_planes() as i64,
            Phase::Inner => self.unroll() as i64,
            Phase::Tail => self.lag(),
        };
        Ops {
            schedule: self,
            phase,
            s: 0,
            end,
            stage: 0,
            sync: false,
        }
    }

    /// Stream `time_step`'s register that holds `plane`.
    fn reg(&self, time_step: usize, plane: i64) -> RegSlot {
        RegSlot {
            time_step,
            slot: plane.rem_euclid(self.unroll() as i64) as usize,
        }
    }

    /// Stream `time_step`'s register window, starting at the register that
    /// holds `plane`.
    fn window(&self, time_step: usize, plane: i64) -> RegWindow {
        RegWindow {
            time_step,
            first: self.reg(time_step, plane).slot,
            len: self.unroll(),
        }
    }
}

/// The walk behind [`KernelSchedule::ops`]: plane front `s` steps through
/// its stages — LOAD, `CALC_1 ..= CALC_bT`, STORE — and a barrier owed by
/// the op just returned comes out on the next call.
struct Ops<'a> {
    schedule: &'a KernelSchedule,
    phase: Phase,
    /// The current plane front, and one past the phase's last.
    s: i64,
    end: i64,
    /// Front `s`'s next stage: 0 its LOAD, `T` in `1..=bT` its `CALC_T`,
    /// `bT + 1` its STORE.
    stage: usize,
    /// The op returned last is followed by a `Sync`.
    sync: bool,
}

impl Iterator for Ops<'_> {
    type Item = MacroOp;

    fn next(&mut self) -> Option<MacroOp> {
        if std::mem::take(&mut self.sync) {
            return Some(MacroOp::Sync);
        }
        let schedule = self.schedule;
        let (bt, radius) = (schedule.bt, schedule.radius);
        while self.s < self.end {
            let (s, t) = (self.s, self.stage);
            if t == 0 {
                self.stage = 1;
                if self.phase != Phase::Tail {
                    self.sync = true;
                    return Some(MacroOp::Load {
                        dst: schedule.reg(0, s),
                        plane: s,
                    });
                }
            } else if t <= bt {
                let runs = match self.phase {
                    Phase::Head => s >= (t * radius) as i64,
                    Phase::Inner => true,
                    Phase::Tail => s < (radius * (bt - t)) as i64,
                };
                if !runs {
                    // Streams start in order in the head and run out in
                    // reverse order in the tail: no later stream runs here.
                    self.stage = bt + 1;
                    continue;
                }
                self.stage = t + 1;
                self.sync = true;
                let plane = s - (t * radius) as i64;
                return Some(MacroOp::Calc {
                    time_step: t,
                    dst: schedule.reg(t.min(bt - 1), plane),
                    srcs: schedule.window(t - 1, plane - radius as i64),
                });
            } else {
                self.stage = 0;
                self.s += 1;
                let lag = schedule.lag();
                if self.phase != Phase::Head || s >= lag {
                    return Some(MacroOp::Store {
                        plane: s - lag,
                        regs: schedule.window(bt - 1, s - lag),
                    });
                }
            }
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

    /// The listing (head, inner, tail) as the eager builder produced it
    /// while the schedule still stored its macro calls: the reference the
    /// lazy walk is compared against.
    fn eager_reference(bt: usize, radius: usize) -> [Vec<MacroOp>; 3] {
        let unroll = 2 * radius + 1;
        let lag = (bt * radius) as i64;
        let slot_of = |plane: i64| -> usize { plane.rem_euclid(unroll as i64) as usize };
        let calc = |t: usize, dst_plane: i64| MacroOp::Calc {
            time_step: t,
            dst: RegSlot {
                time_step: t.min(bt - 1),
                slot: slot_of(dst_plane),
            },
            srcs: RegWindow {
                time_step: t - 1,
                first: slot_of(dst_plane - radius as i64),
                len: unroll,
            },
        };
        let store = |plane: i64| MacroOp::Store {
            plane,
            regs: RegWindow {
                time_step: bt - 1,
                first: slot_of(plane),
                len: unroll,
            },
        };
        let plane_step = |out: &mut Vec<MacroOp>, s: i64, absolute: bool| {
            out.push(MacroOp::Load {
                dst: RegSlot {
                    time_step: 0,
                    slot: slot_of(s),
                },
                plane: s,
            });
            out.push(MacroOp::Sync);
            for t in 1..=bt {
                let dst_plane = s - (t * radius) as i64;
                if absolute && dst_plane < 0 {
                    continue;
                }
                out.push(calc(t, dst_plane));
                out.push(MacroOp::Sync);
            }
            if !absolute || s - lag >= 0 {
                out.push(store(s - lag));
            }
        };

        let mut head = Vec::new();
        for s in 0..lag + unroll as i64 {
            plane_step(&mut head, s, true);
        }
        let mut inner = Vec::new();
        for u in 0..unroll as i64 {
            plane_step(&mut inner, u, false);
        }
        let mut tail = Vec::new();
        for s in 0..lag {
            for t in 1..=bt {
                if s < (radius * (bt - t)) as i64 {
                    tail.push(calc(t, s - (t * radius) as i64));
                    tail.push(MacroOp::Sync);
                }
            }
            tail.push(store(s - lag));
        }
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
                assert_eq!(s.head_planes(), counts(&s, Phase::Head)[0]);
                assert_eq!(s.head_planes(), bt * radius + 2 * radius + 1);
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
        // Each of the 3 unrolled plane steps runs bT = 4 CALC macros.
        assert_eq!(counts(&s, Phase::Inner)[1], 4 * 3);
        // One barrier per time-step per plane (plus the load barrier).
        assert_eq!(s.syncs_per_plane(), 4 + 1);
    }

    #[test]
    fn head_fills_pipeline_before_first_store() {
        let s = schedule(4, 1);
        // First store happens only once bT·rad = 4 planes have been loaded.
        let loads_before = s
            .ops(Phase::Head)
            .take_while(|op| !matches!(op, MacroOp::Store { .. }))
            .filter(|op| matches!(op, MacroOp::Load { .. }))
            .count();
        assert!(
            loads_before >= 5,
            "only {loads_before} loads before the first store"
        );
        // The head loads lag + unroll planes in total.
        assert_eq!(counts(&s, Phase::Head)[0], 4 + 3);
    }

    #[test]
    fn head_calcs_respect_dependencies() {
        let s = schedule(3, 2);
        // Stream T cannot compute before T·rad planes are loaded, so the
        // total number of CALCs in the head is Σ_T (head_planes − T·rad).
        let head_planes = 3 * 2 + 5; // lag + unroll
        let expected: usize = (1..=3).map(|t| head_planes - t * 2).sum();
        assert_eq!(counts(&s, Phase::Head)[1], expected);
    }

    #[test]
    fn tail_drains_remaining_planes_without_loads() {
        let s = schedule(4, 1);
        let [loads, calcs, stores, _] = counts(&s, Phase::Tail);
        assert_eq!(loads, 0);
        // One store per drained plane; lag = bT·rad planes remain.
        assert_eq!(stores, 4);
        // Drain CALC count: Σ_s Σ_t [s < rad·(bT − t)] = Σ_t rad·(bT−t) for t=1..bT
        let expected: usize = (1..=4).map(|t| 4 - t).sum();
        assert_eq!(calcs, expected);
    }

    #[test]
    fn register_slots_stay_within_window() {
        // The windows spell the slot lists the eager builder wrote out:
        // sources `slot_of(dst_plane + d)` for d in −rad..=rad, stored
        // registers `(slot_of(plane) + m) mod (2·rad + 1)`.
        let s = schedule(5, 2);
        let (rad, unroll) = (2, s.unroll() as i64);
        for phase in [Phase::Head, Phase::Inner, Phase::Tail] {
            for op in s.ops(phase) {
                match op {
                    MacroOp::Load { dst, .. } => assert!(dst.slot < s.unroll()),
                    MacroOp::Calc { dst, srcs, .. } => {
                        assert!(dst.slot < s.unroll());
                        assert_eq!(srcs.len, s.unroll());
                        let want = (-rad..=rad).map(|d| (dst.slot as i64 + d).rem_euclid(unroll));
                        assert!(srcs.slots().map(|r| r.slot as i64).eq(want), "{op:?}");
                    }
                    MacroOp::Store { plane, regs } => {
                        assert_eq!(regs.slots().count(), s.unroll());
                        let want = (0..unroll).map(|m| (plane + m).rem_euclid(unroll));
                        assert!(regs.slots().map(|r| r.slot as i64).eq(want), "{op:?}");
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
                } = op
                {
                    assert!((1..=4).contains(&time_step));
                    assert!(srcs.slots().all(|r| r.time_step == time_step - 1));
                    assert!(dst.time_step <= 3);
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
