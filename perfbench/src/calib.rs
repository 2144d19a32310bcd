//! Host-speed adjustment.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of percent
//! over minutes: neighbours share the cores' caches and memory, and the
//! same instructions take longer, while the process is not descheduled
//! (its wall time and CPU time agree).  No workload design hides that drift
//! from a wall-clock latency, so every timed phase also times a fixed
//! reference kernel, independent of the code under test, in short slices
//! interleaved with its operations, and reports its timings adjusted to the
//! host's nominal speed:
//!
//! ```text
//! speed    = NOMINAL_SLICE_MS / mean slice time of the phase
//! busy     = CPU time of the process / wall time of the phase   (at most 1)
//! factor   = 1 - busy + busy * speed
//! adjusted = measured time * factor
//! ```
//!
//! Only the share of a phase the process spends on the CPU scales with the
//! host's speed; time spent waiting on timers, the network or the disk does
//! not.  An in-process CPU-bound loop has `busy` near 1 and is scaled by the
//! full speed factor; the TCP round trip, which waits ~88 ms on the kernel's
//! delayed-ACK timer for well under a millisecond of work, is left almost as
//! measured.  The measured values, the speed and the CPU shares are
//! printed next to the adjusted values.

use crate::report::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Mean time of one reference slice on the nominal host, a 2-vCPU x86-64
/// VM (Xeon, family 6 model 143), at its typical speed.
pub const NOMINAL_SLICE_MS: f64 = 0.44;

/// Interval between slices in a measured phase (about 1% of its time).
const EVERY: Duration = Duration::from_millis(100);

/// Entries of the read buffer (64 KiB of `u32`: beyond the L1 data cache,
/// well within the L2).
const NEAR: usize = 1 << 14;

/// The reference kernel: the engine's kinds of work on the core's private
/// caches — dense floating-point elimination (the LP solver), small
/// allocations (the CellTree) and dependent reads of a buffer in the L2
/// (the R-tree).  It tracks most, not all, of the host's drift: over eight
/// 10 s runs of one `adhoc-lpcta` seed on the nominal host, the measured
/// query p50 spread by 22% (range over median) and the adjusted one by 10%;
/// the workload moves about 1.2 times as far as the kernel.  A part reading
/// a buffer in the shared last-level cache tracked the drift more closely,
/// but its time depended on what the operations before it had evicted,
/// which the code under test decides, so it is left out.
struct Kernel {
    near: Vec<u32>,
    cursor: u32,
    state: u64,
}

impl Kernel {
    fn new() -> Self {
        // A single cycle through all entries (Sattolo's shuffle), so the
        // dependent reads never settle into a short loop.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut near: Vec<u32> = (0..NEAR as u32).collect();
        for i in (1..NEAR).rev() {
            state = xorshift(state);
            near.swap(i, (state % i as u64) as usize);
        }
        let mut kernel = Self {
            near,
            cursor: 0,
            state,
        };
        for _ in 0..8 {
            kernel.slice();
        }
        kernel
    }

    /// One slice of fixed work; returns its wall time in ms.  The work is
    /// run once untimed first, to bring its code and data back into the
    /// caches: otherwise the slice would time how much of them the
    /// operations before it evicted, which the code under test decides.
    fn slice(&mut self) -> f64 {
        self.private();
        let t = Instant::now();
        self.private();
        t.elapsed().as_secs_f64() * 1e3
    }

    fn private(&mut self) {
        const M: usize = 20;
        let mut a = [[0.0f64; M]; M];
        for _ in 0..40 {
            for row in a.iter_mut() {
                for v in row.iter_mut() {
                    self.state = xorshift(self.state);
                    *v = (self.state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                }
            }
            for col in 0..M {
                let pivot = (col..M)
                    .max_by(|&x, &y| a[x][col].abs().total_cmp(&a[y][col].abs()))
                    .unwrap_or(col);
                a.swap(col, pivot);
                let p = a[col][col];
                if p.abs() < 1e-12 {
                    continue;
                }
                let (upper, lower) = a.split_at_mut(col + 1);
                let pivot_row = &upper[col];
                for row in lower.iter_mut() {
                    let f = row[col] / p;
                    for (x, &y) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                        *x -= f * y;
                    }
                }
            }
            black_box(&a);
        }
        let mut held: Vec<Vec<f64>> = Vec::with_capacity(64);
        for i in 0..3_000 {
            self.state = xorshift(self.state);
            held.push(vec![i as f64; 2 + (self.state % 14) as usize]);
            if held.len() == 64 {
                held.clear();
            }
        }
        black_box(&held);
        let mut at = self.cursor;
        for _ in 0..20_000 {
            at = self.near[at as usize];
        }
        self.cursor = black_box(at);
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// CPU time (user + system) of the whole process so far, in seconds.
fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks of 1/100 s; the
    // command name (field 2) may hold spaces, so count from its ')'.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            let rest = &stat[stat.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(f64::NAN)
}

/// What the adjustment of a phase is computed from; phases measured in
/// parts (episodes) add their parts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Adjust {
    /// Reference slices run, and their total time in ms.
    pub slices: usize,
    slices_ms: f64,
    /// CPU time of the process over the phase, without the slices, s.
    cpu_s: f64,
    /// Wall time of the phase, without interleaved slices, s.
    wall_s: f64,
}

impl Adjust {
    /// Nominal over mean measured slice time: above 1 on a faster host.
    pub fn speed(&self) -> f64 {
        if self.slices == 0 {
            1.0
        } else {
            NOMINAL_SLICE_MS * self.slices as f64 / self.slices_ms
        }
    }

    /// Share of the phase's wall time the process was on a CPU.
    pub fn busy(&self) -> f64 {
        if self.wall_s > 0.0 {
            (self.cpu_s / self.wall_s).clamp(0.0, 1.0)
        } else {
            1.0
        }
    }

    /// Multiplier from measured to nominal-speed time.
    pub fn factor(&self) -> f64 {
        1.0 - self.busy() + self.busy() * self.speed()
    }

    /// A measured time (any unit) at nominal speed.
    pub fn time(&self, measured: f64) -> f64 {
        measured * self.factor()
    }

    /// A measured rate at nominal speed.
    pub fn rate(&self, measured: f64) -> f64 {
        measured / self.factor()
    }

    /// Adds another part of the same phase.
    pub fn add(&mut self, other: &Adjust) {
        self.slices += other.slices;
        self.slices_ms += other.slices_ms;
        self.cpu_s += other.cpu_s;
        self.wall_s += other.wall_s;
    }
}

/// Times reference slices during a phase and the process's CPU time over
/// it.
pub struct Meter {
    kernel: Kernel,
    slices_ms: Vec<f64>,
    /// Wall time spent in slices, to leave out of the phase.
    in_slices: Duration,
    last: Instant,
    start: Instant,
    cpu_start: f64,
}

impl Meter {
    pub fn start() -> Self {
        let kernel = Kernel::new();
        Self {
            kernel,
            slices_ms: Vec::new(),
            in_slices: Duration::ZERO,
            last: Instant::now(),
            start: Instant::now(),
            cpu_start: process_cpu_s(),
        }
    }

    /// Runs a slice if one is due.  Call between operations of the phase:
    /// the slice's time is not the operations', see [`Meter::elapsed`].
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            let t = Instant::now();
            let ms = self.kernel.slice();
            self.slices_ms.push(ms);
            self.in_slices += t.elapsed();
            self.last = Instant::now();
        }
    }

    /// Runs slices until `until`, one every [`EVERY`]: for a phase whose
    /// operations run on other threads while this one waits.
    pub fn tick_until(&mut self, until: Instant) {
        while Instant::now() < until {
            self.tick();
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Wall time of the phase so far, without the interleaved slices.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed().saturating_sub(self.in_slices)
    }

    /// The phase's adjustment.  `concurrent`: the slices ran beside the
    /// operations (on a thread of their own) rather than between them, so
    /// they took no wall time from the phase.
    pub fn finish(&self, concurrent: bool) -> Adjust {
        let slices_ms: f64 = self.slices_ms.iter().sum();
        let wall = if concurrent {
            self.start.elapsed()
        } else {
            self.elapsed()
        };
        Adjust {
            slices: self.slices_ms.len(),
            slices_ms,
            cpu_s: process_cpu_s() - self.cpu_start - slices_ms / 1e3,
            wall_s: wall.as_secs_f64(),
        }
    }
}

/// Runs `setup` `times` times, keeping the last result; `setup_s` is the
/// median.  Each instance is dropped before the next is built, so two never
/// coexist and each start pays the same allocation costs.
pub fn repeat_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, Setups) {
    let mut busy = Adjust::default();
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let cpu_start = process_cpu_s();
        let start = Instant::now();
        last = Some(setup());
        let s = start.elapsed().as_secs_f64();
        secs.push(s);
        busy.wall_s += s;
        busy.cpu_s += process_cpu_s() - cpu_start;
    }
    (
        last.expect("at least one set-up"),
        Setups {
            measured: median(&secs),
            count: secs.len(),
            busy,
        },
    )
}

/// The set-up times of a run.
pub struct Setups {
    /// Median measured set-up time, s.
    pub measured: f64,
    pub count: usize,
    /// The set-ups' CPU and wall time (no slices).
    busy: Adjust,
}

impl Setups {
    /// The set-ups' adjustment: the host speed of the measured loop that
    /// follows them, the CPU share of the set-ups themselves.  Set-ups last
    /// a fraction of a second each, too short for slices beside them to
    /// average out the host's second-to-second jitter.
    pub fn adjust(&self, run: &Adjust) -> Adjust {
        Adjust {
            slices: run.slices,
            slices_ms: run.slices_ms,
            ..self.busy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(slices: usize, slice_ms: f64, cpu_s: f64, wall_s: f64) -> Adjust {
        Adjust {
            slices,
            slices_ms: slices as f64 * slice_ms,
            cpu_s,
            wall_s,
        }
    }

    #[test]
    fn only_the_busy_share_scales() {
        // Host twice as slow as nominal.
        let slow = NOMINAL_SLICE_MS * 2.0;
        let cpu_bound = phase(10, slow, 3.0, 3.0);
        assert!((cpu_bound.speed() - 0.5).abs() < 1e-12);
        assert!((cpu_bound.time(20.0) - 10.0).abs() < 1e-9);
        assert!((cpu_bound.rate(50.0) - 100.0).abs() < 1e-9);
        // A phase that waits 90% of its time is scaled on its busy 10% only.
        let waiting = phase(10, slow, 0.3, 3.0);
        assert!((waiting.factor() - 0.95).abs() < 1e-12);
        // No slices: as measured.
        assert_eq!(phase(0, 0.0, 1.0, 1.0).factor(), 1.0);
    }

    #[test]
    fn parts_of_a_phase_add_up() {
        let mut whole = phase(2, NOMINAL_SLICE_MS, 1.0, 1.0);
        whole.add(&phase(2, NOMINAL_SLICE_MS * 3.0, 1.0, 1.0));
        assert!((whole.speed() - 0.5).abs() < 1e-12);
        assert_eq!(whole.busy(), 1.0);
    }

    #[test]
    fn setups_take_the_loop_speed_and_their_own_busy_share() {
        let setups = Setups {
            measured: 1.0,
            count: 5,
            busy: phase(0, 0.0, 0.5, 1.0),
        };
        let run = phase(10, NOMINAL_SLICE_MS / 2.0, 30.0, 30.0);
        let adjust = setups.adjust(&run);
        assert!((adjust.speed() - 2.0).abs() < 1e-12);
        assert!((adjust.busy() - 0.5).abs() < 1e-12);
        assert!((adjust.time(setups.measured) - 1.5).abs() < 1e-12);
    }
}
