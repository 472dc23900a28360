//! A fixed reference loop that tracks how fast the host runs right now.
//!
//! Neighbours on a shared host slow this program's simulator by up to
//! 2.5× for minutes at a time; a CPU-time clock slows with it. How much
//! a piece of code slows depends on what it does: an ALU loop hardly
//! slows, and a random walk over a 1 MiB table slowed 1.7× while the
//! simulator slowed 2.4×. So the reference is code of the simulator's
//! own kind: a small cache hierarchy model (TLB, three set-associative
//! levels with next-line prefetch, a gshare branch predictor) fed,
//! through a trait object, a convolution-shaped stream of loads, stores
//! and branches after a cold start. In a five-minute probe on the
//! benchmark host, over 20-s windows, an MNIST measurement's time moved
//! 48% while its ratio to this loop moved 8% (xeon-like) and 7%
//! (mobile-like); its ratio to the 1 MiB walk moved 26%.
//!
//! Set-ups (dataset synthesis and training) slow far less than the
//! simulator: three set-ups took 7.9–8.8 s by wall clock while this loop
//! ran at 1.2–2.1× its uncontended cost. They are scaled by
//! [`SetupReference`], a random read-modify-write walk over a 1 MiB
//! table, which slows about as much as they do.
//!
//! Timings are expressed in reference units and converted back to
//! seconds with each loop's cost on an uncontended core of the
//! benchmark host. The references are the benchmark's own code — the
//! model shares nothing with `scnn-uarch` — so a change to the program
//! moves the ratio one for one.

use std::time::Instant;

/// Events (loads, stores, branches, ALU batches) per reference run.
const EVENTS: usize = 60_000;
/// Seconds one reference run takes on an uncontended core of the
/// benchmark host (2-vCPU Xeon VM, 2.0 GHz; a measurement that takes
/// 18.5 ms there costs 37–39 reference runs in any phase): the scale
/// that turns reference units back into seconds.
pub const NOMINAL_S: f64 = 0.5e-3;

/// What the modelled core observes: the reference stream goes through a
/// trait object, as the simulator's probe calls do.
trait Sink {
    fn load(&mut self, addr: u64, pc: u64);
    fn store(&mut self, addr: u64, pc: u64);
    fn branch(&mut self, pc: u64, taken: bool);
    fn alu(&mut self, n: u64);
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// One set-associative LRU level.
struct Level {
    sets: Vec<Vec<Line>>,
    shift: u32,
    mask: u64,
    clock: u64,
    misses: u64,
}

impl Level {
    fn new(bytes: usize, ways: usize, line: usize) -> Level {
        let sets = bytes / line / ways;
        Level {
            sets: vec![vec![Line::default(); ways]; sets],
            shift: line.trailing_zeros(),
            mask: sets as u64 - 1,
            clock: 0,
            misses: 0,
        }
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            for line in set {
                *line = Line::default();
            }
        }
    }

    /// Accesses `addr`; returns whether it hit.
    fn access(&mut self, addr: u64, write: bool) -> bool {
        self.clock += 1;
        let line = addr >> self.shift;
        let set = &mut self.sets[(line & self.mask) as usize];
        let tag = line >> self.mask.count_ones();
        if let Some(l) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            l.stamp = self.clock;
            l.dirty |= write;
            return true;
        }
        self.misses += 1;
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.stamp } else { 0 })
            .expect("a set has ways");
        *victim = Line {
            tag,
            valid: true,
            dirty: write,
            stamp: self.clock,
        };
        false
    }
}

/// TLB, L1, L2 and L3 of a phone-sized core, and a gshare predictor.
struct Core {
    tlb: Level,
    levels: [Level; 3],
    counters: Vec<u8>,
    history: u64,
    mispredicts: u64,
    alu: u64,
}

impl Core {
    fn new() -> Core {
        Core {
            tlb: Level::new(32 << 12, 4, 1 << 12),
            levels: [
                Level::new(32 << 10, 4, 64),
                Level::new(512 << 10, 8, 64),
                Level::new(2 << 20, 16, 64),
            ],
            counters: vec![1; 1 << 12],
            history: 0,
            mispredicts: 0,
            alu: 0,
        }
    }

    fn cold_start(&mut self) {
        self.tlb.flush();
        for level in &mut self.levels {
            level.flush();
        }
    }

    fn access(&mut self, addr: u64, write: bool) {
        self.tlb.access(addr, false);
        if !self.levels[0].access(addr, write) && !self.levels[1].access(addr, false) {
            self.levels[2].access(addr, false);
        }
        // Next-line prefetch into L2 and L3.
        let next = (addr | 63) + 1;
        self.levels[2].access(next, false);
        self.levels[1].access(next, false);
    }
}

impl Sink for Core {
    fn load(&mut self, addr: u64, _pc: u64) {
        self.access(addr, false);
    }

    fn store(&mut self, addr: u64, _pc: u64) {
        self.access(addr, true);
    }

    fn branch(&mut self, pc: u64, taken: bool) {
        let mask = self.counters.len() as u64 - 1;
        let slot = &mut self.counters[((pc >> 2 ^ self.history) & mask) as usize];
        if (*slot >= 2) != taken {
            self.mispredicts += 1;
        }
        *slot = if taken {
            (*slot + 1).min(3)
        } else {
            slot.saturating_sub(1)
        };
        self.history = (self.history << 1 | u64::from(taken)) & mask;
    }

    fn alu(&mut self, n: u64) {
        self.alu += n;
    }
}

/// The reference loop and its model.
pub struct Reference {
    core: Core,
    state: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            core: Core::new(),
            state: 0x2545_F491_4F6C_DD1D,
        }
    }
}

impl Reference {
    /// Runs the loop once and returns its wall seconds.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        self.core.cold_start();
        let sink: &mut dyn Sink = &mut self.core;
        // A 5×5 convolution over a 28×28 input, output channel by output
        // channel, with a data-dependent branch per output (the ReLU).
        let (weights, input, output) = (0x10_0000u64, 0x40_0000u64, 0x80_0000u64);
        let mut x = self.state;
        let mut events = 0;
        let mut channel = 0u64;
        'stream: loop {
            for pos in 0..576u64 {
                let (row, col) = (pos / 24, pos % 24);
                for k in 0..25u64 {
                    sink.load(weights + (channel * 25 + k) * 4, 0x400);
                    sink.load(input + ((row + k / 5) * 28 + col + k % 5) * 4, 0x408);
                    sink.alu(2);
                    sink.branch(0x410, k != 24);
                }
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                sink.branch(0x420, x & 3 != 0);
                sink.store(output + (channel * 576 + pos) * 4, 0x428);
                events += 102;
                if events >= EVENTS {
                    break 'stream;
                }
            }
            channel += 1;
        }
        self.state = x;
        std::hint::black_box((self.core.mispredicts, self.core.levels[2].misses));
        start.elapsed().as_secs_f64()
    }

    /// `secs` measured while the reference took `reference` seconds,
    /// in nominal seconds.
    pub fn scale(secs: f64, reference: f64) -> f64 {
        secs / reference * NOMINAL_S
    }
}

/// Table entries (`u64`) of the set-up reference: 1 MiB.
const WALK_TABLE: usize = 1 << 17;
/// Read-modify-write steps per set-up reference run.
const WALK_STEPS: usize = 100_000;
/// Seconds one set-up reference run takes on an uncontended core of the
/// benchmark host (the fastest runs seen there take 0.84–1.1 ms).
pub const WALK_NOMINAL_S: f64 = 1.0e-3;

/// The set-up reference: a random read-modify-write walk over a 1 MiB
/// table.
pub struct SetupReference {
    table: Vec<u64>,
    state: u64,
}

impl Default for SetupReference {
    fn default() -> Self {
        SetupReference {
            table: vec![1; WALK_TABLE],
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl SetupReference {
    /// Runs the walk once and returns its wall seconds.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        let mask = self.table.len() - 1;
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..WALK_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            acc ^= self.table[i];
            if acc & 1 == 1 {
                self.table[i] = self.table[i].wrapping_add(x);
            }
        }
        self.state = std::hint::black_box(x ^ acc);
        start.elapsed().as_secs_f64()
    }

    /// The median of `n` runs.
    pub fn median_time(&mut self, n: usize) -> f64 {
        let times: Vec<f64> = (0..n).map(|_| self.time()).collect();
        crate::cost::median(&times)
    }

    /// `secs` measured while the walk took `reference` seconds, in
    /// nominal seconds.
    pub fn scale(secs: f64, reference: f64) -> f64 {
        secs / reference * WALK_NOMINAL_S
    }
}
