//! `cras-rtmach` — the Real-Time Mach substrate.
//!
//! CRAS is a user-level server whose predictability comes from the
//! microkernel underneath: preemptive fixed-priority scheduling, deadline
//! notification, and priority-inversion management. This crate models
//! exactly those mechanisms on one simulated CPU:
//!
//! * [`sched`] — the event-driven preemptive scheduler
//!   ([`sched::Cpu`]) with fixed-priority and round-robin policies
//!   (Figure 10 contrasts the two).
//! * [`sync`] — mutexes with and without priority inheritance (the Unix
//!   server's missing inheritance is the paper's explanation for UFS's
//!   collapse under background load).
//! * [`port`] — Mach-style bounded message ports (deadline notification,
//!   client requests).
//! * [`thread`] — thread ids, policies and states.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod port;
pub mod sched;
pub mod sync;
pub mod thread;

pub use port::{FullPolicy, Message, Port, SendOutcome};
pub use sched::{BurstDone, Cpu, CpuStats, Resched, SliceOutcome, SliceToken};
pub use sync::{Acquire, InheritancePolicy, MutexSim, Release};
pub use thread::{SchedPolicy, ThreadId, ThreadState};
