//! The head / inner / tail macro schedule of the generated kernel (Fig. 5).
//!
//! The schedule is determined by `(bT, rad)` alone. [`KernelSchedule`]
//! stores just that; what the model and the executor need from it
//! (`syncs_per_plane`, `head_planes`) is closed-form, and the O(bT²·rad)
//! macro listing is generated when the code generator prints it.

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

/// One macro call of the generated kernel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MacroOp {
    /// `LOAD(reg_0_M, plane)`: read one sub-plane of the input grid from
    /// global memory into a register of the T = 0 stream.
    Load {
        /// Destination register.
        dst: RegSlot,
        /// Streaming-dimension plane index (absolute in the head/tail
        /// phases, relative to the loop variable in the inner phase).
        plane: i64,
    },
    /// `CALC_T(dst, src…)`: compute one sub-plane of combined time-step `T`
    /// from the `2·rad + 1` source registers of time-step `T − 1`, going
    /// through the shared-memory buffer for intra-plane neighbour exchange.
    Calc {
        /// Combined time-step being computed (1-based, up to `bT`).
        time_step: usize,
        /// Destination register (belongs to stream `T`).
        dst: RegSlot,
        /// Source registers (belong to stream `T − 1`).
        srcs: Vec<RegSlot>,
        /// Which of the double buffers this step writes its plane into.
        shared_buffer: usize,
    },
    /// `STORE(plane, regs…)`: write one finished sub-plane (time-step `bT`)
    /// back to global memory from the last stream's registers.
    Store {
        /// Streaming-dimension plane index (see [`MacroOp::Load::plane`]).
        plane: i64,
        /// Registers holding the finished values.
        regs: Vec<RegSlot>,
    },
    /// `__syncthreads()` — block-wide barrier between time-step stages.
    Sync,
}

impl MacroOp {
    /// Is this a load from global memory?
    #[must_use]
    pub fn is_load(&self) -> bool {
        matches!(self, MacroOp::Load { .. })
    }

    /// Is this a store to global memory?
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, MacroOp::Store { .. })
    }

    /// Is this a compute macro?
    #[must_use]
    pub fn is_calc(&self) -> bool {
        matches!(self, MacroOp::Calc { .. })
    }
}

/// A macro call tagged with the phase it belongs to (useful for flattened
/// listings and debugging output).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MacroCall {
    /// Phase of the kernel this call belongs to.
    pub phase: Phase,
    /// The macro operation.
    pub op: MacroOp,
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

/// The complete macro schedule of one AN5D kernel: `(bT, rad)` and the
/// listing generated from them on demand ([`head`](Self::head) /
/// [`inner`](Self::inner) / [`tail`](Self::tail)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelSchedule {
    bt: usize,
    radius: usize,
    unroll: usize,
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
            unroll: 2 * radius + 1,
        }
    }

    /// Temporal blocking degree this schedule was built for.
    #[must_use]
    pub fn bt(&self) -> usize {
        self.bt
    }

    /// Stencil radius this schedule was built for.
    #[must_use]
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Unroll factor of the inner loop (`2·rad + 1`).
    #[must_use]
    pub fn unroll(&self) -> usize {
        self.unroll
    }

    /// Planes between the load front and the store front (`bT·rad`).
    fn lag(&self) -> i64 {
        (self.bt * self.radius) as i64
    }

    /// Planes the head phase loads before the steady state takes over
    /// (`bT·rad + 2·rad + 1`): the pipeline lag plus one register window.
    #[must_use]
    pub fn head_planes(&self) -> usize {
        self.lag() as usize + self.unroll
    }

    /// Macro calls of the head (pipeline fill) phase: load planes
    /// `0 .. head_planes` and run every stream that already has its
    /// dependencies available.
    #[must_use]
    pub fn head(&self) -> Vec<MacroOp> {
        let mut head = Vec::new();
        for s in 0..self.head_planes() as i64 {
            self.push_plane_step(&mut head, s, true);
        }
        head
    }

    /// Macro calls of one steady-state loop iteration, unrolled over the
    /// register window; plane indices are relative to the loop variable.
    #[must_use]
    pub fn inner(&self) -> Vec<MacroOp> {
        let mut inner = Vec::new();
        for u in 0..self.unroll as i64 {
            self.push_plane_step(&mut inner, u, false);
        }
        inner
    }

    /// Macro calls of the tail (pipeline drain) phase: the last `bT·rad`
    /// planes have been loaded already; streams T ≥ 1 still need to finish
    /// and store.
    #[must_use]
    pub fn tail(&self) -> Vec<MacroOp> {
        let mut tail = Vec::new();
        for s in 0..self.lag() {
            self.push_drain_step(&mut tail, s);
        }
        tail
    }

    fn phase(&self, phase: Phase) -> Vec<MacroOp> {
        match phase {
            Phase::Head => self.head(),
            Phase::Inner => self.inner(),
            Phase::Tail => self.tail(),
        }
    }

    /// All macro calls tagged with their phase, in program order.
    #[must_use]
    pub fn flattened(&self) -> Vec<MacroCall> {
        [Phase::Head, Phase::Inner, Phase::Tail]
            .into_iter()
            .flat_map(|phase| {
                self.phase(phase)
                    .into_iter()
                    .map(move |op| MacroCall { phase, op })
            })
            .collect()
    }

    /// Count macro calls of a given kind across one phase.
    #[must_use]
    pub fn count_in(&self, phase: Phase, pred: impl Fn(&MacroOp) -> bool) -> usize {
        self.phase(phase).iter().filter(|op| pred(op)).count()
    }

    /// Number of block synchronisations per streamed plane in the steady
    /// state: one after the load and one per combined time-step thanks to
    /// double buffering (Section 4.2.2).
    #[must_use]
    pub fn syncs_per_plane(&self) -> usize {
        self.bt + 1
    }

    /// Emit the macro calls for advancing the pipeline by one plane at load
    /// front `s` (absolute in the head, loop-relative in the inner phase).
    fn push_plane_step(&self, out: &mut Vec<MacroOp>, s: i64, absolute: bool) {
        let (bt, radius, unroll, lag) = (self.bt, self.radius, self.unroll, self.lag());
        let slot_of = |plane: i64| -> usize { plane.rem_euclid(unroll as i64) as usize };
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
                // This stream's dependencies are not yet available during the
                // pipeline fill.
                continue;
            }
            let srcs: Vec<RegSlot> = (-(radius as i64)..=radius as i64)
                .map(|d| RegSlot {
                    time_step: t - 1,
                    slot: slot_of(dst_plane + d),
                })
                .collect();
            out.push(MacroOp::Calc {
                time_step: t,
                dst: RegSlot {
                    time_step: t.min(bt - 1),
                    slot: slot_of(dst_plane),
                },
                srcs,
                shared_buffer: (t + 1) % 2,
            });
            out.push(MacroOp::Sync);
        }
        let store_plane = s - lag;
        if !absolute || store_plane >= 0 {
            let regs: Vec<RegSlot> = (0..unroll)
                .map(|m| RegSlot {
                    time_step: bt - 1,
                    slot: (slot_of(store_plane) + m) % unroll,
                })
                .collect();
            out.push(MacroOp::Store {
                plane: store_plane,
                regs,
            });
        }
    }

    /// Emit the macro calls for one drain step: no more loads, the remaining
    /// streams finish and store.
    fn push_drain_step(&self, out: &mut Vec<MacroOp>, s: i64) {
        let (bt, radius, unroll, lag) = (self.bt, self.radius, self.unroll, self.lag());
        let slot_of = |plane: i64| -> usize { plane.rem_euclid(unroll as i64) as usize };
        for t in 1..=bt {
            // Streams progressively run out of input; stream t has rad·(bT − t)
            // planes left to compute after the last load.
            let remaining = (radius * (bt - t)) as i64;
            if s < remaining {
                let dst_plane = s - (t * radius) as i64;
                let srcs: Vec<RegSlot> = (-(radius as i64)..=radius as i64)
                    .map(|d| RegSlot {
                        time_step: t - 1,
                        slot: slot_of(dst_plane + d),
                    })
                    .collect();
                out.push(MacroOp::Calc {
                    time_step: t,
                    dst: RegSlot {
                        time_step: t.min(bt - 1),
                        slot: slot_of(dst_plane),
                    },
                    srcs,
                    shared_buffer: (t + 1) % 2,
                });
                out.push(MacroOp::Sync);
            }
        }
        let regs: Vec<RegSlot> = (0..unroll)
            .map(|m| RegSlot {
                time_step: bt - 1,
                slot: (slot_of(s - lag) + m) % unroll,
            })
            .collect();
        out.push(MacroOp::Store {
            plane: s - lag,
            regs,
        });
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

    /// The listing (head, inner, tail) as the eager builder produced it
    /// while the schedule still stored its macro calls: the reference the
    /// on-demand generators are compared against.
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
            srcs: (-(radius as i64)..=radius as i64)
                .map(|d| RegSlot {
                    time_step: t - 1,
                    slot: slot_of(dst_plane + d),
                })
                .collect(),
            shared_buffer: (t + 1) % 2,
        };
        let store = |plane: i64| MacroOp::Store {
            plane,
            regs: (0..unroll)
                .map(|m| RegSlot {
                    time_step: bt - 1,
                    slot: (slot_of(plane) + m) % unroll,
                })
                .collect(),
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
                assert_eq!(s.head(), head, "head bT={bt} rad={radius}");
                assert_eq!(s.inner(), inner, "inner bT={bt} rad={radius}");
                assert_eq!(s.tail(), tail, "tail bT={bt} rad={radius}");
                let inner_syncs = inner
                    .iter()
                    .filter(|op| matches!(op, MacroOp::Sync))
                    .count();
                assert_eq!(s.syncs_per_plane(), inner_syncs / s.unroll());
                assert_eq!(inner_syncs % s.unroll(), 0);
                assert_eq!(s.head_planes(), s.count_in(Phase::Head, MacroOp::is_load));
                assert_eq!(s.head_planes(), bt * radius + 2 * radius + 1);
            }
        }
    }

    #[test]
    fn inner_loop_is_unrolled_by_register_window() {
        for radius in 1..=4 {
            let s = schedule(4, radius);
            assert_eq!(s.unroll(), 2 * radius + 1);
            assert_eq!(s.count_in(Phase::Inner, MacroOp::is_load), s.unroll());
            assert_eq!(s.count_in(Phase::Inner, MacroOp::is_store), s.unroll());
        }
    }

    #[test]
    fn inner_loop_runs_every_stream_each_plane() {
        let s = schedule(4, 1);
        // Each of the 3 unrolled plane steps runs bT = 4 CALC macros.
        assert_eq!(s.count_in(Phase::Inner, MacroOp::is_calc), 4 * 3);
        // One barrier per time-step per plane (plus the load barrier).
        assert_eq!(s.syncs_per_plane(), 4 + 1);
    }

    #[test]
    fn head_fills_pipeline_before_first_store() {
        let s = schedule(4, 1);
        // First store happens only once bT·rad = 4 planes have been loaded.
        let first_store_pos = s
            .head()
            .iter()
            .position(MacroOp::is_store)
            .expect("head contains a store");
        let loads_before: usize = s.head()[..first_store_pos]
            .iter()
            .filter(|op| op.is_load())
            .count();
        assert!(
            loads_before >= 5,
            "only {loads_before} loads before the first store"
        );
        // The head loads lag + unroll planes in total.
        assert_eq!(s.count_in(Phase::Head, MacroOp::is_load), 4 + 3);
    }

    #[test]
    fn head_calcs_respect_dependencies() {
        let s = schedule(3, 2);
        // Stream T cannot compute before T·rad planes are loaded, so the
        // total number of CALCs in the head is Σ_T (head_planes − T·rad).
        let head_planes = 3 * 2 + 5; // lag + unroll
        let expected: usize = (1..=3).map(|t| head_planes - t * 2).sum();
        assert_eq!(s.count_in(Phase::Head, MacroOp::is_calc), expected);
    }

    #[test]
    fn tail_drains_remaining_planes_without_loads() {
        let s = schedule(4, 1);
        assert_eq!(s.count_in(Phase::Tail, MacroOp::is_load), 0);
        // One store per drained plane; lag = bT·rad planes remain.
        assert_eq!(s.count_in(Phase::Tail, MacroOp::is_store), 4);
        // Drain CALC count: Σ_s Σ_t [s < rad·(bT − t)] = Σ_t rad·(bT−t) for t=1..bT
        let expected: usize = (1..=4).map(|t| 4 - t).sum();
        assert_eq!(s.count_in(Phase::Tail, MacroOp::is_calc), expected);
    }

    #[test]
    fn register_slots_stay_within_window() {
        let s = schedule(5, 2);
        for call in s.flattened() {
            match call.op {
                MacroOp::Load { dst, .. } => assert!(dst.slot < s.unroll()),
                MacroOp::Calc { dst, srcs, .. } => {
                    assert!(dst.slot < s.unroll());
                    assert_eq!(srcs.len(), 2 * s.radius() + 1);
                    for src in srcs {
                        assert!(src.slot < s.unroll());
                    }
                }
                MacroOp::Store { regs, .. } => {
                    assert_eq!(regs.len(), s.unroll());
                }
                MacroOp::Sync => {}
            }
        }
    }

    #[test]
    fn calc_reads_previous_stream_and_writes_current() {
        let s = schedule(4, 1);
        for call in s.flattened() {
            if let MacroOp::Calc {
                time_step,
                dst,
                srcs,
                ..
            } = call.op
            {
                assert!((1..=4).contains(&time_step));
                assert!(srcs.iter().all(|r| r.time_step == time_step - 1));
                assert!(dst.time_step <= 3);
            }
        }
    }

    #[test]
    fn shared_buffer_alternates_between_time_steps() {
        let s = schedule(4, 1);
        let buffers: Vec<usize> = s
            .inner()
            .iter()
            .filter_map(|op| match op {
                MacroOp::Calc { shared_buffer, .. } => Some(*shared_buffer),
                _ => None,
            })
            .collect();
        assert!(buffers.contains(&0));
        assert!(buffers.contains(&1));
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
    }

    #[test]
    fn flattened_preserves_phase_order() {
        let s = schedule(2, 1);
        let flat = s.flattened();
        let first_inner = flat.iter().position(|c| c.phase == Phase::Inner).unwrap();
        let first_tail = flat.iter().position(|c| c.phase == Phase::Tail).unwrap();
        assert!(flat[..first_inner].iter().all(|c| c.phase == Phase::Head));
        assert!(first_inner < first_tail);
    }
}
