//! The single-CPU preemptive scheduler.
//!
//! [`Cpu`] is an event-driven state machine: the orchestrator calls
//! [`Cpu::wake`] to hand a thread a burst of CPU work and
//! [`Cpu::slice_end`] when a previously returned slice boundary arrives.
//! Both return at most one `(time, token)` pair for the orchestrator to
//! schedule; stale tokens (invalidated by preemption) are ignored, which
//! is the standard trick for preemption in discrete-event models.
//!
//! Fixed-priority threads preempt anything with lower effective priority
//! the instant they wake — this is what lets CRAS's request-scheduler
//! thread meet its interval deadlines in Figure 10. Round-robin threads
//! share their level in quantum-sized slices, which is exactly what
//! produces the large delay jitter the paper measures under round-robin.

use std::collections::VecDeque;

use cras_sim::{Duration, Instant};

use crate::thread::{Burst, SchedPolicy, ThreadId, ThreadRec, ThreadState};

/// Identifies one scheduled slice; stale tokens are ignored.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SliceToken(u64);

impl SliceToken {
    /// The token's raw issue number (monotone per CPU). Used by the
    /// orchestrator's canonical same-tick event ordering.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// What the orchestrator must do after a scheduler operation: schedule the
/// next slice-boundary event, if any.
pub type Resched = Option<(Instant, SliceToken)>;

/// A completed burst report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BurstDone {
    /// The thread whose burst finished.
    pub tid: ThreadId,
    /// The tag given at [`Cpu::wake`].
    pub tag: u64,
}

/// Outcome of a [`Cpu::slice_end`] call.
#[derive(Clone, Debug, Default)]
pub struct SliceOutcome {
    /// Burst that completed at this boundary (empty for quantum expiry or
    /// a stale token).
    pub completed: Option<BurstDone>,
    /// Next slice boundary to schedule.
    pub resched: Resched,
}

#[derive(Clone, Copy, Debug)]
struct Current {
    tid: ThreadId,
    token: SliceToken,
    started: Instant,
    ends: Instant,
    burst_ends: bool,
}

/// Aggregate CPU statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Total time the CPU executed any thread.
    pub busy: Duration,
    /// Number of dispatches.
    pub dispatches: u64,
    /// Number of preemptions.
    pub preemptions: u64,
}

/// A ready-queue entry. Stamps order entries as one dispatch list
/// would: tail pushes count up from zero, head pushes count down.
#[derive(Clone, Copy, Debug)]
struct Queued {
    stamp: i64,
    tid: ThreadId,
}

/// The ready threads: one FIFO per effective priority plus a bitmap of
/// the non-empty levels, so dispatch costs the same however many
/// threads are ready.
struct ReadyQueues {
    levels: Vec<VecDeque<Queued>>,
    nonempty: [u64; 4],
    next_tail: i64,
    next_head: i64,
}

impl ReadyQueues {
    fn new() -> ReadyQueues {
        ReadyQueues {
            levels: (0..=u8::MAX).map(|_| VecDeque::new()).collect(),
            nonempty: [0; 4],
            next_tail: 0,
            next_head: -1,
        }
    }

    fn mark(&mut self, prio: u8) {
        self.nonempty[prio as usize / 64] |= 1 << (prio % 64);
    }

    fn unmark_if_empty(&mut self, prio: u8) {
        if self.levels[prio as usize].is_empty() {
            self.nonempty[prio as usize / 64] &= !(1 << (prio % 64));
        }
    }

    /// Queues `tid` behind every ready thread of its level.
    fn push_back(&mut self, prio: u8, tid: ThreadId) {
        let stamp = self.next_tail;
        self.next_tail += 1;
        self.levels[prio as usize].push_back(Queued { stamp, tid });
        self.mark(prio);
    }

    /// Queues `tid` ahead of every ready thread of its level.
    fn push_front(&mut self, prio: u8, tid: ThreadId) {
        let stamp = self.next_head;
        self.next_head -= 1;
        self.levels[prio as usize].push_front(Queued { stamp, tid });
        self.mark(prio);
    }

    /// Takes the head of the highest non-empty level.
    fn pop_highest(&mut self) -> Option<ThreadId> {
        let word = self.nonempty.iter().rposition(|&w| w != 0)?;
        let prio = (word * 64 + 63 - self.nonempty[word].leading_zeros() as usize) as u8;
        let q = self.levels[prio as usize]
            .pop_front()
            .expect("marked level");
        self.unmark_if_empty(prio);
        Some(q.tid)
    }

    /// Moves a ready thread whose effective priority changed to the
    /// place its stamp gives it among the new level's threads.
    fn requeue(&mut self, tid: ThreadId, from: u8, to: u8) {
        let level = &mut self.levels[from as usize];
        let at = level
            .iter()
            .position(|q| q.tid == tid)
            .expect("ready thread not queued");
        let q = level.remove(at).expect("position in range");
        self.unmark_if_empty(from);
        let level = &mut self.levels[to as usize];
        let at = level.partition_point(|o| o.stamp < q.stamp);
        level.insert(at, q);
        self.mark(to);
    }
}

/// The simulated CPU.
pub struct Cpu {
    threads: Vec<ThreadRec>,
    /// Ready threads by effective priority. Dispatch takes the head of
    /// the highest level: FIFO among equals, except that a preempted
    /// thread goes back to the head of its level.
    ready: ReadyQueues,
    current: Option<Current>,
    next_token: u64,
    stats: CpuStats,
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu::new()
    }
}

impl Cpu {
    /// Creates an empty CPU.
    pub fn new() -> Cpu {
        Cpu {
            threads: Vec::new(),
            ready: ReadyQueues::new(),
            current: None,
            next_token: 0,
            stats: CpuStats::default(),
        }
    }

    /// Creates a thread; it starts [`ThreadState::Blocked`].
    pub fn create(&mut self, name: &str, policy: SchedPolicy) -> ThreadId {
        let tid = ThreadId(self.threads.len() as u32);
        self.threads.push(ThreadRec::new(name.to_string(), policy));
        tid
    }

    /// Current state of a thread.
    pub fn state(&self, tid: ThreadId) -> ThreadState {
        self.threads[tid.0 as usize].state
    }

    /// Name of a thread.
    pub fn name(&self, tid: ThreadId) -> &str {
        &self.threads[tid.0 as usize].name
    }

    /// Total CPU time consumed by a thread so far (not counting the
    /// currently running slice).
    pub fn runtime(&self, tid: ThreadId) -> Duration {
        self.threads[tid.0 as usize].total_cpu
    }

    /// Number of bursts a thread has completed.
    pub fn bursts_completed(&self, tid: ThreadId) -> u64 {
        self.threads[tid.0 as usize].bursts_completed
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// The running thread, if any.
    pub fn running(&self) -> Option<ThreadId> {
        self.current.map(|c| c.tid)
    }

    /// Whether the CPU is idle.
    pub fn is_idle(&self) -> bool {
        self.current.is_none()
    }

    /// Sets (or clears) a priority-inheritance boost on a thread.
    ///
    /// A raised boost on a *ready* thread can preempt the running thread;
    /// the caller must treat the returned [`Resched`] like any other.
    pub fn set_boost(&mut self, tid: ThreadId, boost: Option<u8>, now: Instant) -> Resched {
        let t = &mut self.threads[tid.0 as usize];
        let old_prio = t.effective_prio();
        t.boost = boost;
        let new_prio = t.effective_prio();
        // Re-evaluate only if the boosted thread is ready and would now
        // outrank the running thread.
        if t.state == ThreadState::Ready {
            if new_prio != old_prio {
                self.ready.requeue(tid, old_prio, new_prio);
            }
            if let Some(cur) = self.current {
                let cur_prio = self.threads[cur.tid.0 as usize].effective_prio();
                if new_prio > cur_prio {
                    return self.preempt_and_dispatch(now);
                }
            }
        }
        None
    }

    /// Gives `tid` a burst of `work` CPU time tagged `tag`. The thread
    /// becomes ready (bursts queue FIFO if it already has work).
    ///
    /// Returns the next slice boundary to schedule, when this wake changed
    /// the dispatch decision (idle CPU or preemption).
    ///
    /// # Panics
    ///
    /// Panics if `work` is zero — zero-length bursts would complete
    /// "instantly" and are almost always an orchestrator bug; model cheap
    /// operations with a small positive cost instead.
    pub fn wake(&mut self, tid: ThreadId, work: Duration, tag: u64, now: Instant) -> Resched {
        assert!(!work.is_zero(), "zero-length CPU burst");
        let t = &mut self.threads[tid.0 as usize];
        t.work.push_back(Burst {
            remaining: work,
            tag,
        });
        match t.state {
            ThreadState::Blocked => {
                t.state = ThreadState::Ready;
                self.ready.push_back(t.effective_prio(), tid);
            }
            ThreadState::Ready | ThreadState::Running => {
                // Extra work queued behind the current burst(s).
                return None;
            }
        }
        match self.current {
            None => self.dispatch(now),
            Some(cur) => {
                let cur_prio = self.threads[cur.tid.0 as usize].effective_prio();
                let new_prio = self.threads[tid.0 as usize].effective_prio();
                if new_prio > cur_prio && now < cur.ends {
                    self.preempt_and_dispatch(now)
                } else {
                    // Equal/lower priority waits; if `now == cur.ends` the
                    // already-scheduled slice event will re-dispatch.
                    None
                }
            }
        }
    }

    /// Handles a slice-boundary event for `token`.
    ///
    /// A stale token (the slice was preempted away) yields an empty
    /// outcome. Otherwise the running thread either completed its burst or
    /// exhausted its quantum, and the next thread is dispatched.
    pub fn slice_end(&mut self, token: SliceToken, now: Instant) -> SliceOutcome {
        let Some(cur) = self.current else {
            return SliceOutcome::default();
        };
        if cur.token != token {
            return SliceOutcome::default();
        }
        assert_eq!(cur.ends, now, "slice event fired at the wrong time");
        self.current = None;
        let elapsed = now.since(cur.started);
        let t = &mut self.threads[cur.tid.0 as usize];
        t.total_cpu += elapsed;
        self.stats.busy += elapsed;

        let mut completed = None;
        if cur.burst_ends {
            let burst = t.work.pop_front().expect("running thread without work");
            t.bursts_completed += 1;
            completed = Some(BurstDone {
                tid: cur.tid,
                tag: burst.tag,
            });
            if t.work.is_empty() {
                t.state = ThreadState::Blocked;
            } else {
                t.state = ThreadState::Ready;
                self.ready.push_back(t.effective_prio(), cur.tid);
            }
        } else {
            // Quantum expiry: charge the slice against the burst and
            // requeue at the tail of its level.
            let burst = t.work.front_mut().expect("running thread without work");
            burst.remaining = burst.remaining.saturating_sub(elapsed);
            t.state = ThreadState::Ready;
            self.ready.push_back(t.effective_prio(), cur.tid);
        }

        SliceOutcome {
            completed,
            resched: self.dispatch(now),
        }
    }

    fn preempt_and_dispatch(&mut self, now: Instant) -> Resched {
        let cur = self.current.take().expect("preempt with idle CPU");
        let elapsed = now.since(cur.started);
        let t = &mut self.threads[cur.tid.0 as usize];
        t.total_cpu += elapsed;
        self.stats.busy += elapsed;
        self.stats.preemptions += 1;
        let burst = t.work.front_mut().expect("running thread without work");
        burst.remaining = burst.remaining.saturating_sub(elapsed);
        t.state = ThreadState::Ready;
        // A preempted thread resumes ahead of equal-priority peers.
        self.ready.push_front(t.effective_prio(), cur.tid);
        self.dispatch(now)
    }

    fn dispatch(&mut self, now: Instant) -> Resched {
        debug_assert!(self.current.is_none());
        let tid = self.ready.pop_highest()?;
        let t = &mut self.threads[tid.0 as usize];
        t.state = ThreadState::Running;
        let burst = t.work.front().expect("ready thread without work");
        let quantum = t.policy.quantum();
        let (slice, burst_ends) = match quantum {
            Some(q) if q < burst.remaining => (q, false),
            _ => (burst.remaining, true),
        };
        self.next_token += 1;
        let token = SliceToken(self.next_token);
        let ends = now + slice;
        self.current = Some(Current {
            tid,
            token,
            started: now,
            ends,
            burst_ends,
        });
        self.stats.dispatches += 1;
        Some((ends, token))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1;
    fn ms(v: u64) -> Duration {
        Duration::from_millis(v * MS)
    }
    fn at(v: u64) -> Instant {
        Instant::ZERO + ms(v)
    }

    fn fp(prio: u8) -> SchedPolicy {
        SchedPolicy::FixedPriority { prio }
    }
    fn rr(prio: u8, q: u64) -> SchedPolicy {
        SchedPolicy::RoundRobin {
            prio,
            quantum: ms(q),
        }
    }

    /// Drives the CPU to completion from a list of initial wakes,
    /// returning (finish_time_ms, tid, tag) triples in completion order.
    fn drive(cpu: &mut Cpu, wakes: Vec<(u64, ThreadId, u64, u64)>) -> Vec<(u64, ThreadId, u64)> {
        // wakes: (time_ms, tid, work_ms, tag)
        let mut events: Vec<(Instant, SliceToken)> = Vec::new();
        let mut done = Vec::new();
        let mut wakes = wakes;
        wakes.sort_by_key(|w| w.0);
        let mut wi = 0;
        loop {
            // Find next event: earliest of pending wake or slice event.
            let next_wake = wakes.get(wi).map(|w| at(w.0));
            events.sort_by_key(|e| e.0);
            let next_slice = events.first().map(|e| e.0);
            let take_wake = match (next_wake, next_slice) {
                (None, None) => break,
                (Some(tw), Some(ts)) => tw <= ts,
                (Some(_), None) => true,
                (None, Some(_)) => false,
            };
            if take_wake {
                let (tms, tid, work, tag) = wakes[wi];
                wi += 1;
                if let Some(r) = cpu.wake(tid, ms(work), tag, at(tms)) {
                    events.push(r);
                }
            } else {
                let (t, tok) = events.remove(0);
                let out = cpu.slice_end(tok, t);
                if let Some(b) = out.completed {
                    done.push((t.since(Instant::ZERO).as_millis(), b.tid, b.tag));
                }
                if let Some(r) = out.resched {
                    events.push(r);
                }
            }
        }
        done
    }

    #[test]
    fn single_thread_runs_to_completion() {
        let mut cpu = Cpu::new();
        let a = cpu.create("a", fp(5));
        let done = drive(&mut cpu, vec![(0, a, 10, 1)]);
        assert_eq!(done, vec![(10, a, 1)]);
        assert_eq!(cpu.runtime(a), ms(10));
        assert_eq!(cpu.state(a), ThreadState::Blocked);
    }

    #[test]
    fn higher_priority_preempts() {
        let mut cpu = Cpu::new();
        let lo = cpu.create("lo", fp(1));
        let hi = cpu.create("hi", fp(9));
        // lo starts at 0 (20 ms work); hi wakes at 5 (3 ms work).
        let done = drive(&mut cpu, vec![(0, lo, 20, 1), (5, hi, 3, 2)]);
        assert_eq!(done, vec![(8, hi, 2), (23, lo, 1)]);
        assert_eq!(cpu.stats().preemptions, 1);
    }

    #[test]
    fn equal_priority_fifo_no_preemption() {
        let mut cpu = Cpu::new();
        let a = cpu.create("a", fp(5));
        let b = cpu.create("b", fp(5));
        let done = drive(&mut cpu, vec![(0, a, 10, 1), (2, b, 5, 2)]);
        assert_eq!(done, vec![(10, a, 1), (15, b, 2)]);
    }

    #[test]
    fn round_robin_interleaves() {
        let mut cpu = Cpu::new();
        let a = cpu.create("a", rr(5, 10));
        let b = cpu.create("b", rr(5, 10));
        // Both have 20 ms of work; quantum 10 ms: a(0-10) b(10-20)
        // a(20-30 done) b(30-40 done).
        let done = drive(&mut cpu, vec![(0, a, 20, 1), (0, b, 20, 2)]);
        assert_eq!(done, vec![(30, a, 1), (40, b, 2)]);
    }

    #[test]
    fn round_robin_quantum_delays_short_job() {
        // The Figure 10 mechanism: under RR, a short periodic job waits
        // behind hog quanta; under FP it preempts instantly.
        let mut cpu = Cpu::new();
        let hog1 = cpu.create("hog1", rr(5, 100));
        let hog2 = cpu.create("hog2", rr(5, 100));
        let job = cpu.create("job", rr(5, 100));
        let done = drive(
            &mut cpu,
            vec![(0, hog1, 300, 1), (0, hog2, 300, 2), (50, job, 5, 3)],
        );
        let job_done = done.iter().find(|d| d.1 == job).unwrap();
        // job arrives at 50; hog1 runs til 100, hog2 til 200, job at 205.
        assert_eq!(job_done.0, 205);
    }

    #[test]
    fn fixed_priority_job_unaffected_by_hogs() {
        let mut cpu = Cpu::new();
        let hog1 = cpu.create("hog1", fp(1));
        let hog2 = cpu.create("hog2", fp(1));
        let job = cpu.create("job", fp(9));
        let done = drive(
            &mut cpu,
            vec![(0, hog1, 300, 1), (0, hog2, 300, 2), (50, job, 5, 3)],
        );
        let job_done = done.iter().find(|d| d.1 == job).unwrap();
        assert_eq!(job_done.0, 55);
    }

    #[test]
    fn queued_bursts_complete_in_order() {
        let mut cpu = Cpu::new();
        let a = cpu.create("a", fp(5));
        let done = drive(&mut cpu, vec![(0, a, 5, 1), (0, a, 5, 2), (0, a, 5, 3)]);
        assert_eq!(done, vec![(5, a, 1), (10, a, 2), (15, a, 3)]);
        assert_eq!(cpu.bursts_completed(a), 3);
    }

    #[test]
    fn stale_token_is_ignored() {
        let mut cpu = Cpu::new();
        let lo = cpu.create("lo", fp(1));
        let hi = cpu.create("hi", fp(9));
        let first = cpu.wake(lo, ms(20), 1, at(0)).unwrap();
        // Preemption invalidates `first`.
        let second = cpu.wake(hi, ms(3), 2, at(5)).unwrap();
        let stale = cpu.slice_end(first.1, first.0);
        assert!(stale.completed.is_none());
        assert!(stale.resched.is_none());
        let out = cpu.slice_end(second.1, second.0);
        assert_eq!(out.completed.unwrap().tid, hi);
    }

    #[test]
    fn preempted_thread_resumes_before_equal_peers() {
        let mut cpu = Cpu::new();
        let a = cpu.create("a", fp(5));
        let b = cpu.create("b", fp(5));
        let hi = cpu.create("hi", fp(9));
        // a runs 0-10 (work 10), b ready at 1. hi preempts a at 2 for 3 ms.
        // After hi, a should resume (not b), finishing its remaining 8 ms.
        let done = drive(&mut cpu, vec![(0, a, 10, 1), (1, b, 5, 2), (2, hi, 3, 3)]);
        assert_eq!(done, vec![(5, hi, 3), (13, a, 1), (18, b, 2)]);
    }

    #[test]
    fn boost_triggers_preemption() {
        let mut cpu = Cpu::new();
        let running = cpu.create("running", fp(5));
        let waiter = cpu.create("waiter", fp(1));
        let r1 = cpu.wake(running, ms(100), 1, at(0)).unwrap();
        assert!(cpu.wake(waiter, ms(10), 2, at(1)).is_none());
        // Boost the low-priority waiter above the runner.
        let r2 = cpu.set_boost(waiter, Some(9), at(2));
        let (t2, tok2) = r2.expect("boost should preempt");
        assert_eq!(cpu.running(), Some(waiter));
        let out = cpu.slice_end(tok2, t2);
        assert_eq!(out.completed.unwrap().tid, waiter);
        // Original token is stale.
        let stale = cpu.slice_end(r1.1, r1.0);
        assert!(stale.completed.is_none());
    }

    #[test]
    fn busy_time_accounts_everything() {
        let mut cpu = Cpu::new();
        let a = cpu.create("a", fp(5));
        let b = cpu.create("b", fp(7));
        drive(&mut cpu, vec![(0, a, 10, 1), (3, b, 4, 2)]);
        assert_eq!(cpu.stats().busy, ms(14));
        assert_eq!(cpu.runtime(a), ms(10));
        assert_eq!(cpu.runtime(b), ms(4));
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_burst_panics() {
        let mut cpu = Cpu::new();
        let a = cpu.create("a", fp(5));
        cpu.wake(a, Duration::ZERO, 1, at(0));
    }

    #[test]
    fn nested_preemption_unwinds_in_priority_order() {
        let mut cpu = Cpu::new();
        let lo = cpu.create("lo", fp(1));
        let mid = cpu.create("mid", fp(5));
        let hi = cpu.create("hi", fp(9));
        // lo starts (30 ms); mid preempts at 5 (10 ms, 3 done by 8); hi
        // preempts mid at 8 (2 ms). Unwind: hi@10, mid resumes 10..17,
        // lo resumes 17..42.
        let done = drive(
            &mut cpu,
            vec![(0, lo, 30, 1), (5, mid, 10, 2), (8, hi, 2, 3)],
        );
        assert_eq!(done, vec![(10, hi, 3), (17, mid, 2), (42, lo, 1)]);
        assert_eq!(cpu.stats().preemptions, 2);
    }

    #[test]
    fn fixed_priority_thread_preempts_round_robin_level() {
        let mut cpu = Cpu::new();
        let rr1 = cpu.create("rr1", rr(5, 50));
        let rr2 = cpu.create("rr2", rr(5, 50));
        let fp_hi = cpu.create("fp", fp(9));
        let done = drive(
            &mut cpu,
            vec![(0, rr1, 100, 1), (0, rr2, 100, 2), (10, fp_hi, 5, 3)],
        );
        let fp_done = done.iter().find(|d| d.1 == fp_hi).unwrap();
        assert_eq!(fp_done.0, 15, "FP preempts the RR level instantly");
        // RR threads still complete all their work afterwards.
        assert_eq!(done.len(), 3);
    }

    /// The reference dispatcher for the differential test: one ready
    /// list, scanned in full for the highest effective priority (the
    /// first wins among equals), with a preempted thread inserted at its
    /// head. `Cpu` must reproduce it exactly.
    struct ListCpu {
        threads: Vec<ThreadRec>,
        ready: Vec<ThreadId>,
        current: Option<Current>,
        next_token: u64,
        stats: CpuStats,
    }

    impl ListCpu {
        fn new() -> ListCpu {
            ListCpu {
                threads: Vec::new(),
                ready: Vec::new(),
                current: None,
                next_token: 0,
                stats: CpuStats::default(),
            }
        }

        fn create(&mut self, policy: SchedPolicy) {
            self.threads.push(ThreadRec::new(String::new(), policy));
        }

        fn prio(&self, tid: ThreadId) -> u8 {
            self.threads[tid.0 as usize].effective_prio()
        }

        fn set_boost(&mut self, tid: ThreadId, boost: Option<u8>, now: Instant) -> Resched {
            self.threads[tid.0 as usize].boost = boost;
            if self.threads[tid.0 as usize].state == ThreadState::Ready {
                if let Some(cur) = self.current {
                    if self.prio(tid) > self.prio(cur.tid) {
                        return self.preempt_and_dispatch(now);
                    }
                }
            }
            None
        }

        fn wake(&mut self, tid: ThreadId, work: Duration, tag: u64, now: Instant) -> Resched {
            let t = &mut self.threads[tid.0 as usize];
            t.work.push_back(Burst {
                remaining: work,
                tag,
            });
            if t.state != ThreadState::Blocked {
                return None;
            }
            t.state = ThreadState::Ready;
            self.ready.push(tid);
            match self.current {
                None => self.dispatch(now),
                Some(cur) if self.prio(tid) > self.prio(cur.tid) && now < cur.ends => {
                    self.preempt_and_dispatch(now)
                }
                Some(_) => None,
            }
        }

        fn slice_end(&mut self, token: SliceToken, now: Instant) -> SliceOutcome {
            let Some(cur) = self.current.filter(|c| c.token == token) else {
                return SliceOutcome::default();
            };
            assert_eq!(cur.ends, now);
            self.current = None;
            let elapsed = now.since(cur.started);
            let t = &mut self.threads[cur.tid.0 as usize];
            t.total_cpu += elapsed;
            self.stats.busy += elapsed;
            let mut completed = None;
            if cur.burst_ends {
                let burst = t.work.pop_front().unwrap();
                t.bursts_completed += 1;
                completed = Some(BurstDone {
                    tid: cur.tid,
                    tag: burst.tag,
                });
            } else {
                let burst = t.work.front_mut().unwrap();
                burst.remaining = burst.remaining.saturating_sub(elapsed);
            }
            if t.work.is_empty() {
                t.state = ThreadState::Blocked;
            } else {
                t.state = ThreadState::Ready;
                self.ready.push(cur.tid);
            }
            SliceOutcome {
                completed,
                resched: self.dispatch(now),
            }
        }

        fn preempt_and_dispatch(&mut self, now: Instant) -> Resched {
            let cur = self.current.take().unwrap();
            let elapsed = now.since(cur.started);
            let t = &mut self.threads[cur.tid.0 as usize];
            t.total_cpu += elapsed;
            self.stats.busy += elapsed;
            self.stats.preemptions += 1;
            let burst = t.work.front_mut().unwrap();
            burst.remaining = burst.remaining.saturating_sub(elapsed);
            t.state = ThreadState::Ready;
            self.ready.insert(0, cur.tid);
            self.dispatch(now)
        }

        fn dispatch(&mut self, now: Instant) -> Resched {
            let mut best: Option<(usize, u8)> = None;
            for (i, &tid) in self.ready.iter().enumerate() {
                let p = self.prio(tid);
                if best.is_none_or(|(_, b)| p > b) {
                    best = Some((i, p));
                }
            }
            let tid = self.ready.remove(best?.0);
            let t = &mut self.threads[tid.0 as usize];
            t.state = ThreadState::Running;
            let remaining = t.work.front().unwrap().remaining;
            let (slice, burst_ends) = match t.policy.quantum() {
                Some(q) if q < remaining => (q, false),
                _ => (remaining, true),
            };
            self.next_token += 1;
            let token = SliceToken(self.next_token);
            let ends = now + slice;
            self.current = Some(Current {
                tid,
                token,
                started: now,
                ends,
                burst_ends,
            });
            self.stats.dispatches += 1;
            Some((ends, token))
        }
    }

    /// Randomized sequences of wakes, slice ends and boost changes give
    /// the same completions, slice tokens and statistics on the
    /// per-level queues as on the reference single list.
    #[test]
    fn ready_queues_match_the_single_list() {
        let mut totals = CpuStats::default();
        let mut requeues = 0;
        for seed in 0..200 {
            let mut rng = cras_sim::Rng::new(seed);
            let mut cpu = Cpu::new();
            let mut model = ListCpu::new();
            let n = 3 + rng.below(8) as u32;
            for _ in 0..n {
                let prio = [1, 3, 5, 9][rng.below(4) as usize];
                let policy = if rng.chance(0.5) {
                    fp(prio)
                } else {
                    rr(prio, 1 + rng.below(4))
                };
                cpu.create("t", policy);
                model.create(policy);
            }
            let mut events: Vec<(Instant, SliceToken)> = Vec::new();
            let mut now = Instant::ZERO;
            for step in 0..400u64 {
                events.sort();
                let horizon = events.first().map(|e| e.0);
                if horizon.is_some() && rng.chance(0.4) {
                    let (t, tok) = events.remove(0);
                    now = t;
                    let got = cpu.slice_end(tok, t);
                    let want = model.slice_end(tok, t);
                    assert_eq!(got.completed, want.completed, "seed {seed} step {step}");
                    assert_eq!(got.resched, want.resched, "seed {seed} step {step}");
                    events.extend(got.resched);
                } else {
                    // Any instant up to the next slice boundary, that
                    // boundary included.
                    let limit = horizon.map_or(now + ms(5), |h| h.min(now + ms(5)));
                    now = now + Duration::from_micros(rng.below(limit.since(now).as_micros() + 1));
                    let tid = ThreadId(rng.below(n as u64) as u32);
                    let (got, want) = if rng.chance(0.25) {
                        let boost = rng.chance(0.6).then(|| rng.below(11) as u8);
                        let base = model.threads[tid.0 as usize].policy.prio();
                        if cpu.state(tid) == ThreadState::Ready
                            && boost.map_or(base, |b| b.max(base)) != model.prio(tid)
                        {
                            requeues += 1;
                        }
                        (
                            cpu.set_boost(tid, boost, now),
                            model.set_boost(tid, boost, now),
                        )
                    } else {
                        let work = ms(1 + rng.below(12));
                        (
                            cpu.wake(tid, work, step, now),
                            model.wake(tid, work, step, now),
                        )
                    };
                    assert_eq!(got, want, "seed {seed} step {step}");
                    events.extend(got);
                }
                assert_eq!(cpu.running(), model.current.map(|c| c.tid));
            }
            // Drain: every queued burst completes identically.
            for b in 0..n {
                let tid = ThreadId(b);
                let (got, want) = (
                    cpu.set_boost(tid, None, now),
                    model.set_boost(tid, None, now),
                );
                assert_eq!(got, want);
                events.extend(got);
            }
            while !events.is_empty() {
                events.sort();
                let (t, tok) = events.remove(0);
                let got = cpu.slice_end(tok, t);
                let want = model.slice_end(tok, t);
                assert_eq!(got.completed, want.completed, "seed {seed} drain");
                assert_eq!(got.resched, want.resched, "seed {seed} drain");
                events.extend(got.resched);
            }
            assert_eq!(cpu.stats(), model.stats, "seed {seed}");
            for (i, t) in model.threads.iter().enumerate() {
                let tid = ThreadId(i as u32);
                assert_eq!(cpu.state(tid), ThreadState::Blocked);
                assert_eq!(cpu.runtime(tid), t.total_cpu);
                assert_eq!(cpu.bursts_completed(tid), t.bursts_completed);
            }
            totals.dispatches += model.stats.dispatches;
            totals.preemptions += model.stats.preemptions;
        }
        // The sequences really exercised preemption and level moves.
        assert!(totals.preemptions > 1000, "{totals:?}");
        assert!(requeues > 500, "{requeues}");
    }

    #[test]
    fn wake_at_slice_end_does_not_double_dispatch() {
        let mut cpu = Cpu::new();
        let a = cpu.create("a", fp(5));
        let b = cpu.create("b", fp(9));
        let (t1, tok1) = cpu.wake(a, ms(10), 1, at(0)).unwrap();
        // b wakes exactly when a's slice ends: no preemption (the slice
        // event handles the switch).
        let r = cpu.wake(b, ms(5), 2, t1);
        assert!(r.is_none());
        let out = cpu.slice_end(tok1, t1);
        assert_eq!(out.completed.unwrap().tid, a);
        let (t2, tok2) = out.resched.unwrap();
        assert_eq!(cpu.running(), Some(b));
        let out2 = cpu.slice_end(tok2, t2);
        assert_eq!(out2.completed.unwrap().tid, b);
        assert_eq!(t2, at(15));
    }
}
