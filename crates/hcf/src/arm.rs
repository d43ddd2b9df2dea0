//! Cost-measuring arm selection: HCF picks between its configured
//! policies and its own flat-combining special case at run time.
//!
//! §2.4 leaves choosing a configuration at run time as future work ("no
//! single configuration of HCF fits all data structures and
//! workloads"). [`crate::adaptive`] answers with an abort-rate law, which
//! cannot see the case that matters on a software TM: speculation that
//! usually *commits* but costs more than applying the operation under the
//! lock. This selector measures cost instead.
//!
//! ## Arms, signal and schedule
//!
//! * **Arms.** [`Arm::Configured`] runs the per-array policies the engine
//!   was built with (or was given through `set_policy`); [`Arm::Fc`] runs
//!   [`PhasePolicy::fc_like`](crate::PhasePolicy::fc_like) on every array.
//!   §2.2 guarantees a policy change cannot affect correctness, so an arm
//!   switch needs no coordination with operations in flight.
//! * **Signal.** One `execute` in `SAMPLE_EVERY` per thread is timed with
//!   the runtime's clock. An epoch closes after `EPOCH_SAMPLES` samples
//!   (≈ `EPOCH_OPS` operations, across all arrays); its mean ns/op is the
//!   arm's cost. The thread whose sample completes the epoch closes it.
//! * **Schedule.** The closer keeps the cheaper arm and re-probes the
//!   other for one epoch after every `gap` epochs. A probed arm takes
//!   over only if it is cheaper by more than 1/`FLIP_MARGIN`. `gap`
//!   doubles (up to `MAX_GAP`) while the same arm keeps winning and
//!   resets when the winner flips.
//! * **Nothing to win.** An epoch of the configured arm in which at least
//!   99% of operations completed in TryPrivate keeps the configured arm
//!   and probes nothing: those operations never announce, so there is no
//!   combining for the FC arm to do better.
//!
//! The engine creates no selector on a simulated runtime (the lockstep
//! figures keep the paper's static policies) or for the FC and TLE+FC
//! baselines, which must stay what their names say.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use hcf_util::sync::Mutex;

/// Time one `execute` in this many, per thread.
const SAMPLE_EVERY: u32 = 8;
/// Operations per epoch.
const EPOCH_OPS: u64 = 4096;
/// Samples per epoch.
const EPOCH_SAMPLES: u64 = EPOCH_OPS / SAMPLE_EVERY as u64;
/// Exploit epochs between probes after the winner flips.
const FIRST_GAP: u32 = 2;
/// A probed arm must be cheaper than the incumbent by more than
/// 1/`FLIP_MARGIN` of its own cost to take over.
const FLIP_MARGIN: u64 = 16;
/// Longest run of exploit epochs between probes.
const MAX_GAP: u32 = 64;
/// Share of TryPrivate completions at or above which the configured arm
/// has nothing to lose to FC.
const ALL_PRIVATE: f64 = 0.99;

/// The accumulator packs the epoch's sample count above its summed ns.
const COUNT_SHIFT: u32 = 40;
/// One sample is clamped to ~1 s so 2^(40-30) of them cannot overflow
/// the sum.
const MAX_SAMPLE_NS: u64 = 1 << 30;

thread_local! {
    /// Per-thread op counter deciding which `execute` calls are timed.
    static TICK: Cell<u32> = const { Cell::new(0) };
}

/// One of the two configurations the selector chooses between.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Arm {
    /// The per-array policies the engine was configured with.
    #[default]
    Configured = 0,
    /// `PhasePolicy::fc_like()` on every array.
    Fc = 1,
}

impl Arm {
    /// Stable lower-case name, as it appears in the stats JSON.
    pub fn name(self) -> &'static str {
        match self {
            Arm::Configured => "configured",
            Arm::Fc => "fc",
        }
    }

    fn other(self) -> Arm {
        match self {
            Arm::Configured => Arm::Fc,
            Arm::Fc => Arm::Configured,
        }
    }

    fn from_u8(v: u8) -> Arm {
        if v == Arm::Fc as u8 {
            Arm::Fc
        } else {
            Arm::Configured
        }
    }
}

/// What the selector did so far; part of
/// [`ExecStatsSnapshot`](crate::ExecStatsSnapshot).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArmStats {
    /// Whether a selector runs at all (it does not on a simulated
    /// runtime, for the FC and TLE+FC baselines, or for executors that
    /// are not an HCF engine).
    pub selecting: bool,
    /// The arm in force.
    pub in_force: Arm,
    /// Arm switches, probes included.
    pub switches: u64,
    /// Mean sampled `execute` time per operation under each arm over all
    /// closed epochs, indexed by `Arm as usize` (0 when never measured).
    pub ns_per_op: [u64; 2],
}

impl ArmStats {
    /// Serializes as a JSON object with stable keys.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"selecting\":{},\"in_force\":\"{}\",\"switches\":{},",
                "\"ns_per_op\":{{\"configured\":{},\"fc\":{}}}}}"
            ),
            self.selecting,
            self.in_force.name(),
            self.switches,
            self.ns_per_op[0],
            self.ns_per_op[1],
        )
    }
}

/// The exploit/probe schedule: a pure function of the closed epochs, so
/// it can be tested without clocks or threads.
#[derive(Debug)]
struct Schedule {
    winner: Arm,
    /// The epoch that just ran was a probe of `winner.other()`.
    probing: bool,
    gap: u32,
    since_probe: u32,
    /// Latest epoch mean per arm (0 = never measured).
    last_ns: [u64; 2],
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule {
            winner: Arm::Configured,
            probing: false,
            gap: FIRST_GAP,
            since_probe: 0,
            last_ns: [0; 2],
        }
    }
}

impl Schedule {
    /// Closes an epoch that ran under `ran` at `mean_ns` per op, with
    /// `private_share` of its operations completed in TryPrivate, and
    /// returns the arm for the next epoch.
    fn close(&mut self, ran: Arm, mean_ns: u64, private_share: f64) -> Arm {
        self.last_ns[ran as usize] = mean_ns.max(1);
        if ran == Arm::Configured && private_share >= ALL_PRIVATE {
            *self = Schedule {
                last_ns: self.last_ns,
                ..Schedule::default()
            };
            return Arm::Configured;
        }
        if self.probing {
            self.probing = false;
            self.since_probe = 0;
            // The probed arm takes over only if clearly cheaper: a mean
            // over one epoch is noisy, and a flip costs probes.
            let (probed, incumbent) = (
                self.last_ns[ran as usize],
                self.last_ns[self.winner as usize],
            );
            let cheaper = if probed + probed / FLIP_MARGIN < incumbent {
                ran
            } else {
                self.winner
            };
            if cheaper == self.winner {
                self.gap = (self.gap * 2).min(MAX_GAP);
            } else {
                self.winner = cheaper;
                self.gap = FIRST_GAP;
            }
            return self.winner;
        }
        self.since_probe += 1;
        let loser = self.winner.other();
        if self.last_ns[loser as usize] == 0 || self.since_probe >= self.gap {
            self.probing = true;
            return loser;
        }
        self.winner
    }
}

/// Epoch bookkeeping only the closing thread touches.
#[derive(Debug, Default)]
struct Closer {
    schedule: Schedule,
    /// Engine completion counters `(private, total)` at the last close.
    last_completed: (u64, u64),
    switches: u64,
    /// Summed sample ns and sample count per arm, over closed epochs.
    total_ns: [u64; 2],
    total_samples: [u64; 2],
}

/// The per-engine selector. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct ArmSelector {
    arm: AtomicU8,
    /// This epoch's samples: count above `COUNT_SHIFT`, summed ns below.
    acc: AtomicU64,
    closer: Mutex<Closer>,
}

impl ArmSelector {
    /// The arm in force.
    pub(crate) fn arm(&self) -> Arm {
        Arm::from_u8(self.arm.load(Ordering::Relaxed))
    }

    /// Whether the calling thread's current `execute` should be timed.
    pub(crate) fn sample_this_op() -> bool {
        TICK.with(|t| {
            let n = t.get().wrapping_add(1);
            t.set(n);
            n % SAMPLE_EVERY == 0
        })
    }

    /// Records one timed `execute` that started under `ran` and took
    /// `ns`. If it completes the epoch, closes it: `completed` reads the
    /// engine's `(TryPrivate, total)` completion counters.
    pub(crate) fn record(&self, ran: Arm, ns: u64, completed: impl FnOnce() -> (u64, u64)) {
        // A sample that straddled a switch measures neither arm.
        if self.arm() != ran {
            return;
        }
        let prev = self.acc.fetch_add(
            (1 << COUNT_SHIFT) | ns.min(MAX_SAMPLE_NS),
            Ordering::Relaxed,
        );
        if prev >> COUNT_SHIFT == EPOCH_SAMPLES - 1 {
            self.close(ran, completed());
        }
    }

    fn close(&self, ran: Arm, completed: (u64, u64)) {
        let mut c = self.closer.lock();
        let acc = self.acc.swap(0, Ordering::Relaxed);
        let (samples, ns) = (acc >> COUNT_SHIFT, acc & ((1 << COUNT_SHIFT) - 1));
        let (private, total) = completed;
        let (last_private, last_total) = c.last_completed;
        c.last_completed = completed;
        let ops = total.saturating_sub(last_total);
        let private_share = if ops == 0 {
            0.0
        } else {
            private.saturating_sub(last_private) as f64 / ops as f64
        };
        c.total_ns[ran as usize] += ns;
        c.total_samples[ran as usize] += samples;
        let next = c.schedule.close(ran, ns / samples.max(1), private_share);
        if next != ran {
            c.switches += 1;
            self.arm.store(next as u8, Ordering::Relaxed);
        }
    }

    /// What the selector did so far.
    pub(crate) fn stats(&self) -> ArmStats {
        let c = self.closer.lock();
        ArmStats {
            selecting: true,
            in_force: self.arm(),
            switches: c.switches,
            ns_per_op: std::array::from_fn(|a| c.total_ns[a] / c.total_samples[a].max(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `epochs` epochs against fixed per-arm costs and returns the
    /// arm each one ran under.
    fn run(epochs: usize, cost: [u64; 2], private_share: [f64; 2]) -> Vec<Arm> {
        let mut s = Schedule::default();
        let mut arm = Arm::Configured;
        let mut seen = Vec::new();
        for _ in 0..epochs {
            seen.push(arm);
            arm = s.close(arm, cost[arm as usize], private_share[arm as usize]);
        }
        seen
    }

    fn arms(spec: &str) -> Vec<Arm> {
        spec.chars()
            .filter(|c| !c.is_whitespace())
            .map(|c| if c == 'F' { Arm::Fc } else { Arm::Configured })
            .collect()
    }

    #[test]
    fn a_cheaper_fc_arm_wins_and_probes_back_off_geometrically() {
        let got = run(40, [1800, 1000], [0.5, 0.0]);
        // Configured, FC probe, then gaps of 2, 4, 8 and 16 FC epochs
        // between single-epoch probes of the configured arm.
        let want = arms("C F FF C FFFF C FFFFFFFF C FFFFFFFFFFFFFFFF C FFFF");
        assert_eq!(got, want);
    }

    #[test]
    fn the_gap_is_capped() {
        let got = run(2000, [1800, 1000], [0.5, 0.0]);
        let probes: Vec<usize> = (0..got.len())
            .filter(|&i| i > 1 && got[i] == Arm::Configured)
            .collect();
        let widest = probes.windows(2).map(|w| w[1] - w[0] - 1).max().unwrap();
        assert_eq!(widest, MAX_GAP as usize);
    }

    #[test]
    fn a_cheaper_configured_arm_keeps_winning() {
        // The first probe confirms the incumbent, so the gap doubles.
        let got = run(12, [900, 1000], [0.5, 0.0]);
        assert_eq!(got, arms("C F CCCC F CCCCC"));
    }

    #[test]
    fn an_all_private_configured_arm_never_probes() {
        let got = run(100, [1000, 1], [1.0, 0.0]);
        assert!(got.iter().all(|&a| a == Arm::Configured));
    }

    #[test]
    fn a_flip_resets_the_gap() {
        let mut s = Schedule::default();
        let mut arm = Arm::Configured;
        let mut seen = Vec::new();
        for epoch in 0..30 {
            seen.push(arm);
            // FC is cheaper for the first 12 epochs, then dearer. The
            // next probe (epoch 18) flips the winner and resets the gap.
            let cost = if epoch < 12 {
                [1800, 1000]
            } else {
                [1000, 2000]
            };
            arm = s.close(arm, cost[arm as usize], 0.5);
        }
        assert_eq!(seen, arms("C F FF C FFFF C FFFFFFFF C CC F CCCC F CCC"));
    }

    #[test]
    fn a_probe_within_the_margin_does_not_flip() {
        // FC is 5% cheaper: inside the 1/16 margin, so the incumbent
        // configured arm keeps winning and the gap keeps doubling.
        let got = run(9, [1050, 1000], [0.5, 0.0]);
        assert_eq!(got, arms("C F CCCC F CC"));
    }

    #[test]
    fn stats_json_has_stable_keys() {
        let j = ArmStats {
            selecting: true,
            in_force: Arm::Fc,
            switches: 3,
            ns_per_op: [1800, 1000],
        }
        .to_json();
        assert_eq!(
            j,
            concat!(
                "{\"selecting\":true,\"in_force\":\"fc\",\"switches\":3,",
                "\"ns_per_op\":{\"configured\":1800,\"fc\":1000}}"
            )
        );
    }
}
