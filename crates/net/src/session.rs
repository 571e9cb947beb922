//! Per-client delivery sessions with bounded playout buffers.
//!
//! A session tracks every frame the server handed to the network in
//! send order (`ord` 0, 1, 2, …), whether it has arrived, and a playout
//! cursor that consumes frames strictly in order at deadline instants.
//! The playout anchor is set at the session's first transmission —
//! playout of that frame happens `playout_delay` later, and every
//! subsequent frame at its media timestamp scaled by `drain_scale`
//! (a scale above 1.0 models a client that consumes slower than the
//! presentation rate — the classic misbehaving receiver).
//!
//! The buffer gauge counts arrived-but-unplayed bytes. Crossing the
//! high watermark asks the sys layer to *park* the feeding stream
//! (credit exhausted); draining below the low watermark while parked
//! asks it to resume (credit restored). Between the two, the client's
//! slack is exactly the buffered data — which is also the window the
//! NAK/retransmit machinery has to repair a loss in.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use cras_sim::{Duration, Instant};

/// Configuration of one delivery session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionCfg {
    /// Startup buffering: playout of the first transmitted frame
    /// happens this long after the transmission.
    pub playout_delay: Duration,
    /// Park the feeding stream when the playout buffer exceeds this
    /// many bytes.
    pub high_watermark: u64,
    /// Resume a parked stream when the buffer drains below this.
    pub low_watermark: u64,
    /// Real seconds per media second of the client's consumption
    /// (1.0 = nominal; 1.25 = a client playing 25% slow).
    pub drain_scale: f64,
}

impl Default for SessionCfg {
    fn default() -> SessionCfg {
        SessionCfg {
            playout_delay: Duration::from_millis(500),
            high_watermark: u64::MAX,
            low_watermark: 0,
            drain_scale: 1.0,
        }
    }
}

/// One frame handed to the network, at its send ordinal.
#[derive(Clone, Copy, Debug)]
pub struct SentFrame {
    /// Frame index in the movie's chunk table.
    pub frame: u32,
    /// Frame size in bytes.
    pub bytes: u64,
    /// Media timestamp of the frame.
    pub ts: Duration,
    /// Whether a copy has arrived at the client.
    pub arrived: bool,
}

/// Per-session delivery counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionStats {
    /// Frames this session transmitted itself (packets enqueued,
    /// retransmits not counted).
    pub frames_sent: u64,
    /// Frames suppressed because a multicast group packet carries them.
    pub frames_suppressed: u64,
    /// Frames played on time.
    pub frames_played: u64,
    /// Bytes played.
    pub bytes_played: u64,
    /// Frames that missed their playout deadline — the counted drops.
    pub late_frames: u64,
    /// Frames that arrived after their playout deadline but before the
    /// cursor passed them (played late by the chain's catch-up).
    pub arrived_late: u64,
    /// Total arrival lateness of those frames, nanoseconds.
    pub lateness_ns: u64,
    /// Arrivals discarded because playout had already skipped the frame.
    pub discarded_late: u64,
    /// Duplicate arrivals ignored.
    pub dup_arrivals: u64,
    /// NAKs issued on gap detection.
    pub naks_sent: u64,
    /// Retransmissions enqueued for this session.
    pub retransmits: u64,
    /// Backpressure parks of the feeding stream.
    pub parks: u64,
    /// Resumes after a backpressure park.
    pub resumes: u64,
    /// High-water mark of buffered bytes.
    pub max_buffered: u64,
    /// `(frame, playout instant ns, late)` per playout event, in order —
    /// the delivery fingerprint the equivalence property tests compare.
    pub playout_log: Vec<(u32, u64, bool)>,
}

/// One client's delivery session.
#[derive(Clone, Debug)]
pub struct Session {
    /// Client id (equal to the sys layer's `ClientId`).
    pub id: u32,
    /// Link this session transmits on.
    pub link: u32,
    /// Configuration.
    pub cfg: SessionCfg,
    /// Playout anchor: real time of media time zero under the drain
    /// scale. `None` until the first transmission (and again after a
    /// rebuffer — the next transmission re-anchors).
    pub anchor: Option<Instant>,
    /// Next send ordinal.
    pub next_ord: u32,
    /// Next ordinal to play.
    pub cursor: u32,
    /// Whether a playout event for `cursor` is outstanding.
    pub chain_armed: bool,
    /// Whether a net-initiated park of the feeding stream is in force.
    pub paused: bool,
    /// Arrived-but-unplayed bytes.
    pub buffered: u64,
    /// Frames handed to the network and not yet played: exactly the
    /// ordinals `cursor..next_ord`, ordinal `o` at index `o - cursor`.
    /// Registration pushes at the back; playout pops the front. Read it
    /// through [`Session::frame`].
    pub(crate) sent: VecDeque<SentFrame>,
    /// Frame index → ordinal, for delivering group packets. Never
    /// pruned: a copy that lands after its ordinal played must still
    /// resolve here, so it counts as `discarded_late` instead of being
    /// parked in `early` as a payload that outran decode.
    pub ord_of_frame: BTreeMap<u32, u32>,
    /// Group-packet payloads that arrived before this member's own
    /// transition registered the frame (decode still in flight).
    pub early: BTreeSet<u32>,
    /// NAK watermark: every ordinal in `cursor..nak_hi` has arrived or
    /// has already been NAK'd, so gap detection only scans above it
    /// (one NAK per loss).
    pub(crate) nak_hi: u32,
    /// Whether a resume-retry timer is outstanding.
    pub retry_armed: bool,
    /// Counters.
    pub stats: SessionStats,
}

impl Session {
    /// Creates an idle session on `link`.
    pub fn new(id: u32, link: u32, cfg: SessionCfg) -> Session {
        assert!(cfg.drain_scale > 0.0, "non-positive drain scale");
        assert!(
            cfg.low_watermark <= cfg.high_watermark,
            "watermarks inverted"
        );
        Session {
            id,
            link,
            cfg,
            anchor: None,
            next_ord: 0,
            cursor: 0,
            chain_armed: false,
            paused: false,
            buffered: 0,
            sent: VecDeque::new(),
            ord_of_frame: BTreeMap::new(),
            early: BTreeSet::new(),
            nak_hi: 0,
            retry_armed: false,
            stats: SessionStats::default(),
        }
    }

    /// Playout deadline of a frame at media timestamp `ts` under the
    /// current anchor.
    ///
    /// # Panics
    ///
    /// Panics if the session has no anchor yet.
    pub fn deadline(&self, ts: Duration) -> Instant {
        self.anchor.expect("session has no playout anchor") + ts.mul_f64(self.cfg.drain_scale)
    }

    /// The unplayed frame at ordinal `ord`, or `None` once playout has
    /// passed it (or before it is registered).
    pub fn frame(&self, ord: u32) -> Option<&SentFrame> {
        let i = ord.checked_sub(self.cursor)?;
        self.sent.get(i as usize)
    }

    /// Mutable access to the unplayed frame at ordinal `ord`.
    pub(crate) fn frame_mut(&mut self, ord: u32) -> Option<&mut SentFrame> {
        let i = ord.checked_sub(self.cursor)?;
        self.sent.get_mut(i as usize)
    }

    /// Registers a frame handed to the network, assigning the next
    /// ordinal. Sets the anchor on the first registration (and after a
    /// rebuffer) so this frame's playout lands `playout_delay` ahead.
    pub fn register(&mut self, frame: u32, bytes: u64, ts: Duration, now: Instant) -> u32 {
        if self.anchor.is_none() {
            // Anchor so this frame plays `playout_delay` from now. A
            // mid-stream (re-)anchor whose scaled lead exceeds the
            // elapsed sim time clamps at time zero rather than
            // underflowing — the chain simply starts as early as the
            // timeline allows.
            let base = now + self.cfg.playout_delay;
            let lead = ts.mul_f64(self.cfg.drain_scale);
            self.anchor = Some(if base.since(Instant::ZERO) >= lead {
                base - lead
            } else {
                Instant::ZERO
            });
        }
        let ord = self.next_ord;
        self.next_ord += 1;
        self.sent.push_back(SentFrame {
            frame,
            bytes,
            ts,
            arrived: false,
        });
        self.ord_of_frame.insert(frame, ord);
        // Frames below this one can no longer register (sends are in
        // frame order), so any early group-packet payloads for them
        // belong to server-side drops and will never be claimed.
        self.early.retain(|&f| f >= frame);
        ord
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_registration_anchors_playout_delay_ahead() {
        let mut s = Session::new(1, 0, SessionCfg::default());
        let now = Instant::ZERO + Duration::from_secs(3);
        s.register(0, 1000, Duration::ZERO, now);
        assert_eq!(s.deadline(Duration::ZERO), now + Duration::from_millis(500));
        assert_eq!(
            s.deadline(Duration::from_secs(1)),
            now + Duration::from_millis(1500)
        );
    }

    #[test]
    fn drain_scale_stretches_deadlines() {
        let cfg = SessionCfg {
            drain_scale: 2.0,
            ..SessionCfg::default()
        };
        let mut s = Session::new(1, 0, cfg);
        let now = Instant::ZERO;
        s.register(0, 1000, Duration::ZERO, now);
        // Media second 1 plays at real second 2 (plus the delay).
        assert_eq!(
            s.deadline(Duration::from_secs(1)),
            now + Duration::from_millis(500) + Duration::from_secs(2)
        );
    }

    #[test]
    fn mid_stream_anchor_accounts_for_the_first_ts() {
        let mut s = Session::new(1, 0, SessionCfg::default());
        let now = Instant::ZERO + Duration::from_secs(10);
        // First transmission is frame 90 at media ts 3 s (a resume).
        s.register(90, 1000, Duration::from_secs(3), now);
        assert_eq!(
            s.deadline(Duration::from_secs(3)),
            now + Duration::from_millis(500)
        );
    }

    #[test]
    fn anchor_clamps_at_time_zero_instead_of_underflowing() {
        let cfg = SessionCfg {
            drain_scale: 2.0,
            ..SessionCfg::default()
        };
        let mut s = Session::new(1, 0, cfg);
        // A 20 s scaled lead with only 1 s elapsed cannot anchor in
        // negative time.
        let now = Instant::ZERO + Duration::from_secs(1);
        s.register(300, 1000, Duration::from_secs(10), now);
        assert_eq!(s.anchor, Some(Instant::ZERO));
    }

    #[test]
    fn frames_are_indexed_by_ordinal_from_the_cursor() {
        let mut s = Session::new(1, 0, SessionCfg::default());
        for f in 10..13 {
            s.register(f, 1000, Duration::from_millis(33 * f as u64), Instant::ZERO);
        }
        assert_eq!(s.frame(1).map(|f| f.frame), Some(11));
        // Playout pops the front and advances the cursor.
        s.sent.pop_front();
        s.cursor += 1;
        assert!(s.frame(0).is_none());
        assert_eq!(s.frame(1).map(|f| f.frame), Some(11));
        assert_eq!(s.frame(2).map(|f| f.frame), Some(12));
        assert!(s.frame(3).is_none());
        s.frame_mut(2).unwrap().arrived = true;
        assert!(s.sent[1].arrived);
    }

    #[test]
    #[should_panic(expected = "watermarks inverted")]
    fn inverted_watermarks_panic() {
        let cfg = SessionCfg {
            high_watermark: 10,
            low_watermark: 20,
            ..SessionCfg::default()
        };
        Session::new(1, 0, cfg);
    }
}
