//! Spans around the benchmark's calls into the program's public API.
//!
//! Tracing never reaches inside the program: a span covers one call the
//! driver makes (`Cluster::open`, `System::run_until`, a setup call, …)
//! and is recorded by the driver itself. Spans are kept in memory and
//! written out when the run ends; a disabled tracer costs one branch per
//! call.

use std::io::Write;
use std::time::Instant;

/// Span names, one per traced call. The layer is the part before the
/// first dot.
pub mod name {
    /// The whole measured run (driver root span).
    pub const RUN: &str = "driver.run";
    /// `System::new` / `Cluster::new` (with its calibration).
    pub const BUILD: &str = "setup.build";
    /// `System::record_movie` / `Cluster::add_title`.
    pub const RECORD: &str = "setup.record";
    /// `Cluster::open`.
    pub const OPEN: &str = "cluster.open";
    /// `Cluster::close`.
    pub const CLOSE: &str = "cluster.close";
    /// `Cluster::run_until`, one barrier step.
    pub const BARRIER: &str = "cluster.barrier";
    /// `System::add_cras_player` (admission).
    pub const ADMIT: &str = "core.admit";
    /// `System::start_playback`.
    pub const START: &str = "sys.start_playback";
    /// `System::close_playback`.
    pub const STOP: &str = "sys.close_playback";
    /// `System::run_until`.
    pub const RUN_UNTIL: &str = "sys.run_until";
}

/// One recorded span. Times are host nanoseconds since the tracer was
/// created.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Viewer session the call served (0 = none).
    pub session: u64,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer; a disabled one records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, session: u64) {
        if !self.enabled {
            return;
        }
        let idx = self.spans.len() as u32;
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            session,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit without enter");
        let end = self.now_ns();
        self.spans[idx as usize].end = end;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, session: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, session);
        let r = f();
        self.exit();
        r
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Writes spans as tab-separated lines:
/// `index name session start_ns end_ns parent` (parent -1 = none).
pub fn write_tsv(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    writeln!(out, "index\tname\tsession\tstart_ns\tend_ns\tparent")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, i64::from);
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{}\t{parent}",
            s.name, s.session, s.start, s.end
        )?;
    }
    Ok(())
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur());
        }
    }
    own
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: name::RUN,
                session: 0,
                start: 0,
                end: 100,
                parent: None,
            },
            Span {
                name: name::OPEN,
                session: 7,
                start: 10,
                end: 40,
                parent: Some(0),
            },
            Span {
                name: name::BARRIER,
                session: 0,
                start: 50,
                end: 90,
                parent: Some(0),
            },
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 40]);
        assert_eq!(durations(&spans, name::OPEN), vec![30.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span(name::OPEN, 1, || 5), 5);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        t.enter(name::RUN, 0);
        t.span(name::OPEN, 3, || ());
        t.exit();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].session, 3);
    }
}
