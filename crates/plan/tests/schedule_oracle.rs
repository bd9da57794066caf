//! The kernel schedule computes a stencil: a dataflow oracle in the manner
//! of translation validation (Necula, PLDI 2000), which checks each walk
//! rather than the walker.
//!
//! The oracle replays the kernel's loops over concrete stream bounds — the
//! head and the inner loop in a stream of at least `head_planes` planes,
//! then the tail loop until the pipeline has drained — and tags every
//! register with the `(time step, plane)` of the value it holds. A stream
//! is one tile of the streaming dimension's tiling: it loads
//! `DimTile::local`, updates `DimTile::updatable` every step (the `rad`
//! planes at either end are frozen, so a frozen plane's `(0, p)` stands
//! for any step) and stores `DimTile::written`. In the tail each op is
//! guarded as the printed kernel guards it. The oracle asserts
//! that
//! - every CALC and STORE reads `(T − 1, c − rad) … (T − 1, c + rad)` in
//!   argument order, and no unguarded op touches a plane its guard would
//!   have refused;
//! - every written plane is stored exactly once.

use an5d_grid::Precision;
use an5d_plan::{BlockConfig, KernelSchedule, MacroOp, Phase, RegSlot, RegWindow};
use an5d_stencil::{suite, StencilProblem};
use std::ops::Range;

/// One stream in stored-grid plane coordinates.
#[derive(Debug, Clone)]
struct Stream {
    local: Range<i64>,
    written: Range<i64>,
    rad: i64,
}

impl Stream {
    fn updatable(&self, plane: i64) -> bool {
        (self.local.start + self.rad..self.local.end - self.rad).contains(&plane)
    }
}

/// The three phases' ops and the closed forms the kernel's loops read.
struct Walk {
    bt: usize,
    head_planes: i64,
    unroll: i64,
    drain_planes: i64,
    phases: [Vec<MacroOp>; 3],
}

impl Walk {
    fn of(schedule: &KernelSchedule, bt: usize) -> Self {
        Self {
            bt,
            head_planes: schedule.head_planes() as i64,
            unroll: schedule.unroll() as i64,
            drain_planes: schedule.drain_planes() as i64,
            phases: [Phase::Head, Phase::Inner, Phase::Tail].map(|p| schedule.ops(p).collect()),
        }
    }

    /// Replay the walk over `stream`: the first wrong op, if any.
    fn replay(&self, stream: &Stream) -> Result<(), String> {
        let mut replay = Replay {
            stream,
            regs: vec![None; self.bt * self.unroll as usize],
            unroll: self.unroll as usize,
            last_step: self.bt - 1,
            stores: vec![0; (stream.local.end - stream.local.start) as usize],
        };
        let [head, inner, tail] = &self.phases;
        let (begin, end) = (stream.local.start, stream.local.end);
        let mut s = begin;
        if end - begin >= self.head_planes {
            replay.phase(head, begin, false)?;
            s += self.head_planes;
            while s + self.unroll - 1 < end {
                replay.phase(inner, s, false)?;
                s += self.unroll;
            }
        }
        while s - self.drain_planes < end {
            replay.phase(tail, s, true)?;
            s += self.unroll;
        }
        for plane in stream.written.clone() {
            let stores = replay.stores[(plane - begin) as usize];
            if stores != 1 {
                return Err(format!("plane {plane} is stored {stores} times"));
            }
        }
        Ok(())
    }
}

/// What a register holds: `(time step, plane)`, or nothing yet.
type Tag = Option<(usize, i64)>;

struct Replay<'a> {
    stream: &'a Stream,
    regs: Vec<Tag>,
    unroll: usize,
    last_step: usize,
    stores: Vec<u32>,
}

impl Replay<'_> {
    fn reg(&mut self, reg: RegSlot) -> Result<&mut Tag, String> {
        let at = reg.time_step * self.unroll + reg.slot;
        match self.regs.get_mut(at) {
            Some(tag) if reg.slot < self.unroll => Ok(tag),
            _ => Err(format!("{reg} is not declared")),
        }
    }

    /// Does `window` hold `(step, c − rad) … (step, c + rad)` in order?
    fn check_window(&mut self, window: RegWindow, step: usize, c: i64) -> Result<(), String> {
        let rad = self.stream.rad;
        for (plane, reg) in (c - rad..=c + rad).zip(window.slots()) {
            let tag = *self.reg(reg)?;
            let frozen = !self.stream.updatable(plane) && tag == Some((0, plane));
            if tag != Some((step, plane)) && !frozen {
                return Err(format!(
                    "{window} for plane {c}: {reg} holds {tag:?}, not ({step}, {plane})"
                ));
            }
        }
        Ok(())
    }

    /// Run one phase's ops with their planes counted from `base`.
    fn phase(&mut self, ops: &[MacroOp], base: i64, guarded: bool) -> Result<(), String> {
        for &op in ops {
            self.op(op, base, guarded)
                .map_err(|e| format!("{op:?} at base {base}: {e}"))?;
        }
        Ok(())
    }

    fn op(&mut self, op: MacroOp, base: i64, guarded: bool) -> Result<(), String> {
        let in_stream = |p: i64| self.stream.local.contains(&p);
        match op {
            MacroOp::Load { dst, plane } => {
                let p = base + plane;
                if !in_stream(p) {
                    return if guarded {
                        Ok(())
                    } else {
                        Err("loads a plane outside the stream".into())
                    };
                }
                *self.reg(dst)? = Some((0, p));
            }
            MacroOp::Calc {
                time_step,
                dst,
                srcs,
                plane,
            } => {
                let c = base + plane;
                if !self.stream.updatable(c) {
                    if !guarded {
                        return Err("computes a frozen plane".into());
                    }
                    if in_stream(c) {
                        *self.reg(dst)? = Some((0, c));
                    }
                    return Ok(());
                }
                self.check_window(srcs, time_step - 1, c)?;
                *self.reg(dst)? = Some((time_step, c));
            }
            MacroOp::Store { plane, regs } => {
                let c = base + plane;
                if !self.stream.updatable(c) {
                    return if guarded {
                        Ok(())
                    } else {
                        Err("stores a frozen plane".into())
                    };
                }
                self.check_window(regs, self.last_step, c)?;
                self.stores[(c - self.stream.local.start) as usize] += 1;
            }
            MacroOp::Sync => {}
        }
        Ok(())
    }
}

fn config(bt: usize, hsn: Option<usize>) -> BlockConfig {
    BlockConfig::new(bt, &[64], hsn, Precision::Single).unwrap()
}

/// The streams of a `extent`-plane streaming dimension cut by `hsn`.
fn streams(bt: usize, rad: usize, extent: usize, hsn: Option<usize>) -> Vec<Stream> {
    let problem = StencilProblem::new(suite::star2d(rad), &[extent, 8], 1).unwrap();
    let tiling = config(bt, hsn).streaming_tiling(&problem);
    let as_i64 = |r: Range<usize>| r.start as i64..r.end as i64;
    tiling
        .tiles()
        .map(|tile| Stream {
            local: as_i64(tile.local()),
            written: as_i64(tile.written()),
            rad: rad as i64,
        })
        .collect()
}

/// Every case of one `(bT, rad)`: undivided streams of every residue of
/// the length modulo the window, below `head_planes`, around it and past
/// two inner iterations; and three stream divisions, with halos at both
/// ends, clipped at the grid faces and shorter than the halo.
fn cases(bt: usize, rad: usize) -> Vec<Stream> {
    let schedule = KernelSchedule::build(&config(bt, None), rad);
    let (head, unroll) = (schedule.head_planes(), schedule.unroll());
    let mut extents: Vec<usize> = (1..=unroll).collect();
    // Streams of `head_planes − 1` and `head_planes` planes.
    extents.extend([head.saturating_sub(2 * rad + 1).max(1), head - 2 * rad]);
    extents.extend((0..unroll).map(|r| head + 2 * unroll + r));
    let mut cases: Vec<Stream> = extents
        .into_iter()
        .flat_map(|extent| streams(bt, rad, extent, None))
        .collect();
    let halo = bt * rad;
    for hsn in [halo + unroll + 1, halo.div_ceil(2), 2 * head + 1] {
        cases.extend(streams(bt, rad, 3 * hsn + 2, Some(hsn)));
    }
    cases
}

/// `SearchSpace::paper`'s `bT` values: 1–16 in 2D, 1–8 in 3D.
const BTS: std::ops::RangeInclusive<usize> = 1..=16;

#[test]
fn every_walk_computes_the_stencil_on_every_stream() {
    let mut checked = 0;
    for rad in 1..=4 {
        for bt in BTS {
            let walk = Walk::of(&KernelSchedule::build(&config(bt, None), rad), bt);
            for stream in cases(bt, rad) {
                if let Err(e) = walk.replay(&stream) {
                    panic!("bT={bt} rad={rad} {stream:?}: {e}");
                }
                checked += 1;
            }
        }
    }
    assert!(checked > 1_500, "only {checked} streams");
}

/// The oracle refuses a walk with one `srcs` window rotated by a slot or
/// one STORE plane shifted by one anywhere in the inner loop, or with any
/// one head LOAD dropped.
#[test]
fn the_oracle_refuses_a_wrong_walk() {
    for (bt, rad) in [(1, 1), (2, 1), (4, 2), (5, 3), (3, 4)] {
        let schedule = KernelSchedule::build(&config(bt, None), rad);
        let unroll = schedule.unroll();
        let streams = cases(bt, rad);
        let refused = |walk: &Walk| streams.iter().any(|stream| walk.replay(stream).is_err());
        assert!(!refused(&Walk::of(&schedule, bt)), "bT={bt} rad={rad}");
        let mut mutants = 0;
        for (phase, at) in
            (0..2).flat_map(|p| (0..Walk::of(&schedule, bt).phases[p].len()).map(move |at| (p, at)))
        {
            let mut walk = Walk::of(&schedule, bt);
            match (phase, &mut walk.phases[phase][at]) {
                (1, MacroOp::Calc { srcs, .. }) => srcs.first = (srcs.first + 1) % unroll,
                (1, MacroOp::Store { plane, .. }) => *plane += 1,
                (0, MacroOp::Load { .. }) => {
                    walk.phases[0].remove(at);
                }
                _ => continue,
            }
            assert!(
                refused(&walk),
                "bT={bt} rad={rad}: mutant of phase {phase} op {at} passes"
            );
            mutants += 1;
        }
        let head_loads = schedule.head_planes() + (bt - 1) * rad;
        assert_eq!(mutants, head_loads + bt * unroll, "bT={bt} rad={rad}");
    }
}
