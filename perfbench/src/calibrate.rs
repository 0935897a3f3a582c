//! Host-speed calibration. On a shared host the processor's speed drifts
//! by tens of percent over seconds to minutes (other guests' load on the
//! same cores, caches and memory), which no statistic over one process's
//! runs can remove. Each timed run is therefore bracketed by a fixed,
//! allocation-free kernel of two kinds of work the simulator does, in
//! about equal shares of time: block copies into a large buffer, as when
//! vector clocks are appended to the retained trace, and pushes and pops
//! on a binary heap, as on the event queue. Its time is converted to
//! *reference seconds*: wall time × [`REF_KERNEL_S`] ÷ the kernel's time
//! measured next to it. (A third part, dependent random loads over the
//! buffer, was tried and dropped: its time followed the simulator's run
//! times less closely than the other two parts did.)
//!
//! The kernel allocates nothing while it is timed, so the state the
//! program leaves in the heap does not change its time: a program change
//! moves the reference time of a run only through the run itself.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// The kernel's time on the reference host, a quiet 2-vCPU Intel Xeon
/// guest: a reference second is as long as a wall second there.
pub const REF_KERNEL_S: f64 = 0.030;

/// `u64` words of the kernel's buffer: 32 MiB, far beyond a core's own
/// caches, so that, like the simulator's retained trace, it lives in the
/// cache and memory that other guests share.
const WORDS: usize = 1 << 22;
/// The buffer's size in MiB. It is resident for the whole invocation, so
/// `peak_rss_mb` leaves it out.
pub const BUFFER_MB: f64 = (WORDS * 8) as f64 / (1 << 20) as f64;
/// 2 KiB block copies per kernel (a 256-member vector clock each).
const BLOCK: usize = 256;
const COPIES: usize = 60_000;
/// Priority-queue push/pop pairs per kernel, on a queue of `QUEUE` entries.
const QUEUE: usize = 4_096;
const QUEUE_OPS: usize = 200_000;

/// The kernel's preallocated state.
pub struct Calibrator {
    buf: Vec<u64>,
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    state: u64,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            buf: (0..WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            queue: BinaryHeap::with_capacity(QUEUE + 1),
            state: 1,
        };
        for i in 0..QUEUE as u64 {
            c.queue.push(Reverse((i * 7919 % QUEUE as u64, i as u32)));
        }
        c
    }

    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state >> 17
    }

    /// Runs the kernel once and returns its wall time in seconds.
    pub fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        let sum = self.kernel();
        let elapsed = t0.elapsed().as_secs_f64();
        std::hint::black_box(sum);
        elapsed
    }

    fn kernel(&mut self) -> u64 {
        let blocks = WORDS / BLOCK;
        for i in 0..COPIES {
            let from = (self.next() as usize % blocks) * BLOCK;
            let to = (i % blocks) * BLOCK;
            if from != to {
                let (src, dst) = if from < to {
                    let (a, b) = self.buf.split_at_mut(to);
                    (&a[from..from + BLOCK], &mut b[..BLOCK])
                } else {
                    let (a, b) = self.buf.split_at_mut(from);
                    (&b[..BLOCK], &mut a[to..to + BLOCK])
                };
                dst.copy_from_slice(src);
                dst[i % BLOCK] = dst[i % BLOCK].wrapping_add(1);
            }
        }
        let mut sum = 0u64;
        for i in 0..QUEUE_OPS {
            let Reverse((t, id)) = self.queue.pop().expect("the queue is never empty");
            sum = sum.wrapping_add(t ^ id as u64);
            let delay = 1 + self.next() % 64;
            self.queue.push(Reverse((t + delay, i as u32)));
        }
        let at = self.next() as usize % WORDS;
        sum ^ self.buf[at]
    }
}
