//! Differential test of the delivery state machine against a reference
//! model of its previous data structures.
//!
//! [`RefDelivery`] keeps each session's unplayed frames in an ordered
//! map keyed by ordinal, remembers every NAK'd ordinal in a set, and
//! rescans the whole range `cursor..ord` for gaps on every arrival.
//! [`NetDelivery`] keeps the frames in a ring indexed by `ord - cursor`
//! and scans only above its NAK watermark. Randomized scenarios drive
//! both in lockstep and require identical effects after every call and
//! identical session and link counters at the end.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use cras_sim::{Duration, Instant, Rng};

use crate::delivery::{NetDelivery, NetEffect};
use crate::faults::{NetFault, NetFaultInjector, NetFaults};
use crate::link::{LinkParams, PacedLink};
use crate::session::{SentFrame, SessionCfg, SessionStats};

/// Reference session: the ordinal map, the NAK'd set, no watermark.
struct RefSession {
    id: u32,
    link: u32,
    cfg: SessionCfg,
    anchor: Option<Instant>,
    next_ord: u32,
    cursor: u32,
    chain_armed: bool,
    paused: bool,
    buffered: u64,
    sent: BTreeMap<u32, SentFrame>,
    ord_of_frame: BTreeMap<u32, u32>,
    early: BTreeSet<u32>,
    naked: BTreeSet<u32>,
    retry_armed: bool,
    stats: SessionStats,
}

impl RefSession {
    fn deadline(&self, ts: Duration) -> Instant {
        self.anchor.expect("anchored") + ts.mul_f64(self.cfg.drain_scale)
    }

    fn register(&mut self, frame: u32, bytes: u64, ts: Duration, now: Instant) -> u32 {
        if self.anchor.is_none() {
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
        self.sent.insert(
            ord,
            SentFrame {
                frame,
                bytes,
                ts,
                arrived: false,
            },
        );
        self.ord_of_frame.insert(frame, ord);
        self.early.retain(|&f| f >= frame);
        ord
    }
}

struct RefPacket {
    frame: u32,
    bytes: u64,
    members: Vec<u32>,
    retransmit: bool,
    enqueued_at: Instant,
    remaining_arrivals: u32,
}

/// Reference delivery machine with the full gap rescan.
#[derive(Default)]
struct RefDelivery {
    links: Vec<PacedLink>,
    sessions: BTreeMap<u32, RefSession>,
    groups: BTreeMap<u32, BTreeSet<u32>>,
    member_of: BTreeMap<u32, u32>,
    multicast: bool,
    packets: BTreeMap<u64, RefPacket>,
    next_pkt: u64,
}

impl RefDelivery {
    fn attach(&mut self, client: u32, link: u32, cfg: SessionCfg) {
        self.sessions.insert(
            client,
            RefSession {
                id: client,
                link,
                cfg,
                anchor: None,
                next_ord: 0,
                cursor: 0,
                chain_armed: false,
                paused: false,
                buffered: 0,
                sent: BTreeMap::new(),
                ord_of_frame: BTreeMap::new(),
                early: BTreeSet::new(),
                naked: BTreeSet::new(),
                retry_armed: false,
                stats: SessionStats::default(),
            },
        );
    }

    fn sync_membership(&mut self, member: u32, leader: Option<u32>) {
        let current = self.member_of.get(&member).copied();
        let target = leader.filter(|&l| {
            l != member
                && match (self.sessions.get(&l), self.sessions.get(&member)) {
                    (Some(ls), Some(ms)) => ls.link == ms.link,
                    _ => false,
                }
        });
        if current == target {
            return;
        }
        if let Some(old) = current {
            self.member_of.remove(&member);
            if let Some(g) = self.groups.get_mut(&old) {
                g.remove(&member);
                if g.is_empty() {
                    self.groups.remove(&old);
                }
            }
        }
        if let Some(new) = target {
            self.member_of.insert(member, new);
            self.groups.entry(new).or_default().insert(member);
        }
    }

    fn send_frame(
        &mut self,
        client: u32,
        frame: u32,
        bytes: u64,
        ts: Duration,
        now: Instant,
        out: &mut Vec<NetEffect>,
    ) {
        if !self.sessions.contains_key(&client) {
            return;
        }
        let suppressed = self.multicast && self.member_of.contains_key(&client);
        let (ord, link_id, claimed_early) = {
            let s = self.sessions.get_mut(&client).unwrap();
            let ord = s.register(frame, bytes, ts, now);
            if suppressed {
                s.stats.frames_suppressed += 1;
            } else {
                s.stats.frames_sent += 1;
            }
            (ord, s.link, s.early.remove(&frame))
        };
        if claimed_early {
            self.note_arrival(client, ord, now, out);
        }
        if !suppressed {
            let mut members = vec![client];
            if self.multicast {
                if let Some(g) = self.groups.get(&client) {
                    members.extend(g.iter().copied());
                }
            }
            let deadline = self.sessions[&client].deadline(ts);
            if members.len() > 1 {
                self.links[link_id as usize].stats.multicast_saved_bytes +=
                    bytes * (members.len() as u64 - 1);
            }
            let pkt = self.next_pkt;
            self.next_pkt += 1;
            self.packets.insert(
                pkt,
                RefPacket {
                    frame,
                    bytes,
                    members,
                    retransmit: false,
                    enqueued_at: now,
                    remaining_arrivals: 0,
                },
            );
            self.links[link_id as usize].push(deadline, pkt, bytes);
            self.start_link(link_id, now, out);
        }
        let s = self.sessions.get_mut(&client).unwrap();
        ref_arm(s, now, out);
    }

    fn on_link_free(&mut self, link: u32, now: Instant, out: &mut Vec<NetEffect>) {
        self.links[link as usize].end_send();
        self.start_link(link, now, out);
    }

    fn on_arrive(&mut self, pkt: u64, now: Instant, out: &mut Vec<NetEffect>) {
        let Some(p) = self.packets.get_mut(&pkt) else {
            return;
        };
        p.remaining_arrivals -= 1;
        let frame = p.frame;
        let members = p.members.clone();
        if p.remaining_arrivals == 0 {
            self.packets.remove(&pkt);
        }
        for m in members {
            let ord = {
                let Some(s) = self.sessions.get_mut(&m) else {
                    continue;
                };
                match s.ord_of_frame.get(&frame) {
                    Some(&o) => o,
                    None => {
                        s.early.insert(frame);
                        continue;
                    }
                }
            };
            self.note_arrival(m, ord, now, out);
        }
    }

    fn on_nak(&mut self, client: u32, ord: u32, now: Instant, out: &mut Vec<NetEffect>) {
        let (frame, bytes, link_id, deadline) = {
            let Some(s) = self.sessions.get_mut(&client) else {
                return;
            };
            let Some(f) = s.sent.get(&ord).copied() else {
                return;
            };
            if f.arrived {
                return;
            }
            s.stats.retransmits += 1;
            (f.frame, f.bytes, s.link, s.deadline(f.ts))
        };
        let pkt = self.next_pkt;
        self.next_pkt += 1;
        self.packets.insert(
            pkt,
            RefPacket {
                frame,
                bytes,
                members: vec![client],
                retransmit: true,
                enqueued_at: now,
                remaining_arrivals: 0,
            },
        );
        self.links[link_id as usize].push(deadline, pkt, bytes);
        self.start_link(link_id, now, out);
    }

    fn on_playout(&mut self, client: u32, ord: u32, now: Instant, out: &mut Vec<NetEffect>) {
        let Some(s) = self.sessions.get_mut(&client) else {
            return;
        };
        if !s.chain_armed || ord != s.cursor {
            return;
        }
        s.chain_armed = false;
        let f = s.sent.remove(&s.cursor).expect("armed playout lost frame");
        s.naked.remove(&s.cursor);
        let late = !f.arrived;
        if late {
            s.stats.late_frames += 1;
        } else {
            s.buffered -= f.bytes;
            s.stats.frames_played += 1;
            s.stats.bytes_played += f.bytes;
        }
        s.stats.playout_log.push((f.frame, now.as_nanos(), late));
        s.cursor += 1;
        if s.paused && s.buffered <= s.cfg.low_watermark && !s.retry_armed {
            s.retry_armed = true;
            out.push(NetEffect::Resume { session: client });
        }
        ref_arm(s, now, out);
    }

    fn mark_resumed(&mut self, client: u32) {
        if let Some(s) = self.sessions.get_mut(&client) {
            s.retry_armed = false;
            if s.paused {
                s.paused = false;
                s.stats.resumes += 1;
            }
        }
    }

    fn note_arrival(&mut self, client: u32, ord: u32, now: Instant, out: &mut Vec<NetEffect>) {
        let latency = self.links[self.sessions[&client].link as usize]
            .params
            .latency;
        let s = self.sessions.get_mut(&client).unwrap();
        let Some(f) = s.sent.get_mut(&ord) else {
            s.stats.discarded_late += 1;
            return;
        };
        if f.arrived {
            s.stats.dup_arrivals += 1;
            return;
        }
        f.arrived = true;
        let (bytes, ts) = (f.bytes, f.ts);
        s.buffered += bytes;
        s.stats.max_buffered = s.stats.max_buffered.max(s.buffered);
        let deadline = s.deadline(ts);
        if now > deadline {
            s.stats.arrived_late += 1;
            s.stats.lateness_ns += now.since(deadline).as_nanos();
        }
        let gaps: Vec<u32> = (s.cursor..ord)
            .filter(|o| s.sent.get(o).is_some_and(|g| !g.arrived) && !s.naked.contains(o))
            .collect();
        for o in gaps {
            s.naked.insert(o);
            s.stats.naks_sent += 1;
            out.push(NetEffect::Nak {
                at: now + latency,
                session: client,
                ord: o,
            });
        }
        if s.buffered > s.cfg.high_watermark && !s.paused {
            s.paused = true;
            s.stats.parks += 1;
            out.push(NetEffect::Park { session: client });
        }
        ref_arm(s, now, out);
    }

    fn start_link(&mut self, link: u32, now: Instant, out: &mut Vec<NetEffect>) {
        let l = &mut self.links[link as usize];
        if l.is_busy() {
            return;
        }
        let Some(pkt) = l.pop() else {
            return;
        };
        let p = self.packets.get_mut(&pkt).expect("queued packet missing");
        let done = l.begin_send(now, p.bytes, p.enqueued_at);
        if p.retransmit {
            l.stats.retransmit_bytes += p.bytes;
        }
        out.push(NetEffect::LinkFree { at: done, link });
        let fault = match &mut l.faults {
            Some(fi) => fi.decide(),
            None => NetFault {
                arrivals: 1,
                extra_delay: Duration::ZERO,
            },
        };
        if fault.arrivals == 0 {
            self.packets.remove(&pkt);
            return;
        }
        p.remaining_arrivals = fault.arrivals;
        let at = done + l.params.latency + fault.extra_delay;
        for _ in 0..fault.arrivals {
            out.push(NetEffect::Arrive { at, link, pkt });
        }
    }
}

fn ref_arm(s: &mut RefSession, now: Instant, out: &mut Vec<NetEffect>) {
    if s.chain_armed {
        return;
    }
    if let Some(f) = s.sent.get(&s.cursor) {
        let at = now.max(s.deadline(f.ts));
        s.chain_armed = true;
        out.push(NetEffect::Playout {
            at,
            session: s.id,
            ord: s.cursor,
        });
    } else if s.cursor == s.next_ord && s.buffered == 0 {
        s.anchor = None;
    }
}

/// A scheduled step of a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Fx(NetEffect),
    /// The client's decode hands frame `frame` to the network.
    Send {
        client: u32,
        frame: u32,
        bytes: u64,
        ts: Duration,
    },
    /// The stream layer re-aligns `member`'s multicast membership.
    Sync {
        member: u32,
        leader: Option<u32>,
    },
    /// The stream layer reports the client's feed running again.
    Resumed(u32),
    /// A NAK for an arbitrary (possibly stale or unsent) ordinal.
    StrayNak {
        client: u32,
        ord: u32,
    },
}

fn at_ms(ms: u64) -> Instant {
    Instant::ZERO + Duration::from_millis(ms)
}

/// One generated scenario.
struct Scenario {
    /// Link parameters and fault profiles, by link index.
    links: Vec<(LinkParams, Option<NetFaults>)>,
    multicast: bool,
    /// `(client, link, cfg)` per session.
    sessions: Vec<(u32, u32, SessionCfg)>,
    /// Scheduled sends, membership changes and stray NAKs.
    evs: Vec<(Instant, Ev)>,
}

/// A random scenario: links with loss, duplicate and delay faults;
/// audiences of one leader plus members on its link that decode each
/// frame a little after it (sometimes after its group packet landed);
/// membership churn; slow-draining clients behind tight watermarks;
/// stray NAKs; and playout delays short enough for retransmits to lose
/// the race.
fn scenario(seed: u64) -> Scenario {
    let mut rng = Rng::new(seed);
    let nlinks = rng.range_inclusive(1, 3) as u32;
    let links: Vec<(LinkParams, Option<NetFaults>)> = (0..nlinks)
        .map(|_| {
            let params = LinkParams {
                bandwidth: rng.f64_range(0.6e6, 4e6),
                latency: Duration::from_micros(rng.range_inclusive(100, 6_000)),
                per_packet: Duration::from_micros(rng.below(60)),
            };
            let faults = rng.chance(0.85).then(|| NetFaults {
                drop_prob: rng.f64_range(0.0, 0.2),
                dup_prob: rng.f64_range(0.0, 0.12),
                delay_prob: rng.f64_range(0.0, 0.25),
                delay: Duration::from_millis(rng.range_inclusive(1, 60)),
                seed: rng.next_u64(),
            });
            (params, faults)
        })
        .collect();
    let multicast = rng.chance(0.75);
    let mut sessions = Vec::new();
    let mut evs = Vec::new();
    let naud = rng.range_inclusive(1, 3) as u32;
    let mut client = 0u32;
    let mut all = Vec::new();
    for _ in 0..naud {
        let link = rng.below(nlinks as u64) as u32;
        let leader = client;
        let size = rng.range_inclusive(1, 4) as u32;
        let frames = rng.range_inclusive(40, 120) as u32;
        let start = rng.below(300);
        let period = rng.range_inclusive(20, 40);
        // Shared per-frame decisions: sizes, server-side drops, stalls.
        let mut plan = Vec::new();
        let mut t = start;
        for f in 0..frames {
            t += period;
            if rng.chance(0.03) {
                // A rebuffer-length stall: the chain drains and re-anchors.
                t += rng.range_inclusive(300, 1_500);
            }
            if rng.chance(0.05) {
                continue; // dropped at the server: never sent
            }
            plan.push((t, f, rng.range_inclusive(800, 9_000)));
        }
        for k in 0..size {
            let c = client + k;
            // A member on another link cannot join (no shared segment).
            let clink = if k > 0 && rng.chance(0.15) {
                rng.below(nlinks as u64) as u32
            } else {
                link
            };
            let slow = rng.chance(0.35);
            let mean = plan.iter().map(|p| p.2).sum::<u64>() / plan.len().max(1) as u64;
            let (high, low) = if slow {
                let high = mean * rng.range_inclusive(2, 8);
                (high, rng.below(high))
            } else {
                (u64::MAX, 0)
            };
            let cfg = SessionCfg {
                playout_delay: Duration::from_millis(rng.range_inclusive(5, 600)),
                high_watermark: high,
                low_watermark: low,
                drain_scale: if slow { rng.f64_range(1.0, 1.6) } else { 1.0 },
            };
            sessions.push((c, clink, cfg));
            let lag_max = rng.range_inclusive(0, 25_000);
            for &(t, f, bytes) in &plan {
                let lag = if k == 0 { 0 } else { rng.below(lag_max + 1) };
                evs.push((
                    at_ms(t) + Duration::from_micros(lag),
                    Ev::Send {
                        client: c,
                        frame: f,
                        bytes,
                        ts: Duration::from_millis(f as u64 * period),
                    },
                ));
            }
            if k > 0 {
                evs.push((
                    Instant::ZERO,
                    Ev::Sync {
                        member: c,
                        leader: Some(leader),
                    },
                ));
            }
        }
        all.extend(client..client + size);
        client += size;
    }
    let horizon = evs.iter().map(|e| e.0).max().unwrap_or(Instant::ZERO);
    let span = horizon.since(Instant::ZERO).as_nanos().max(1);
    for _ in 0..rng.range_inclusive(0, 8) {
        let at = Instant::ZERO + Duration::from_nanos(rng.below(span));
        let member = *rng.pick(&all);
        let leader = rng.chance(0.6).then(|| *rng.pick(&all));
        evs.push((at, Ev::Sync { member, leader }));
    }
    for _ in 0..rng.range_inclusive(0, 6) {
        let at = Instant::ZERO + Duration::from_nanos(rng.below(span));
        let client = *rng.pick(&all);
        let ord = rng.below(130) as u32;
        evs.push((at, Ev::StrayNak { client, ord }));
    }
    Scenario {
        links,
        multicast,
        sessions,
        evs,
    }
}

/// Runs one scenario through both machines in lockstep. Panics on the
/// first divergence; returns the reference's total NAKs, retransmits,
/// late-discards, parks and early claims seen, so the caller can check
/// the paths were exercised.
fn differential(seed: u64) -> [u64; 5] {
    let Scenario {
        links,
        multicast,
        sessions,
        evs,
    } = scenario(seed);
    let mut nd = NetDelivery::new();
    let mut rd = RefDelivery::default();
    for &(params, faults) in &links {
        let l = nd.add_link(params);
        nd.set_link_faults(l, faults);
        let mut pl = PacedLink::new(params);
        pl.faults = faults.map(NetFaultInjector::new);
        rd.links.push(pl);
    }
    nd.set_multicast(multicast);
    rd.multicast = multicast;
    for &(c, link, cfg) in &sessions {
        nd.attach(c, link, cfg);
        rd.attach(c, link, cfg);
    }
    let mut rng = Rng::new(seed ^ 0xD1FF);
    let mut q: BTreeSet<(Instant, u64, Ev)> = BTreeSet::new();
    let mut seq = 0u64;
    for (at, ev) in evs {
        q.insert((at, seq, ev));
        seq += 1;
    }
    // Sends held back while the client's stream is parked.
    let mut held: BTreeMap<u32, VecDeque<Ev>> = BTreeMap::new();
    let mut early_claims = 0u64;
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut step = 0u64;
    while let Some((now, _, ev)) = q.pop_first() {
        step += 1;
        a.clear();
        b.clear();
        match ev {
            Ev::Send {
                client,
                frame,
                bytes,
                ts,
            } => {
                if let Some(h) = held.get_mut(&client) {
                    h.push_back(ev);
                    continue;
                }
                if rd.sessions[&client].early.contains(&frame) {
                    early_claims += 1;
                }
                nd.send_frame(client, frame, bytes, ts, now, &mut a);
                rd.send_frame(client, frame, bytes, ts, now, &mut b);
            }
            Ev::Sync { member, leader } => {
                nd.sync_membership(member, leader);
                rd.sync_membership(member, leader);
            }
            Ev::Resumed(c) => {
                nd.mark_resumed(c);
                rd.mark_resumed(c);
                // The stream feeds again: release the held decodes at
                // the frame cadence.
                if let Some(h) = held.remove(&c) {
                    for (i, e) in h.into_iter().enumerate() {
                        q.insert((now + Duration::from_millis(33 * i as u64), seq, e));
                        seq += 1;
                    }
                }
            }
            Ev::StrayNak { client, ord } => {
                nd.on_nak(client, ord, now, &mut a);
                rd.on_nak(client, ord, now, &mut b);
            }
            Ev::Fx(NetEffect::LinkFree { link, .. }) => {
                nd.on_link_free(link, now, &mut a);
                rd.on_link_free(link, now, &mut b);
            }
            Ev::Fx(NetEffect::Arrive { link, pkt, .. }) => {
                nd.on_arrive(link, pkt, now, &mut a);
                rd.on_arrive(pkt, now, &mut b);
            }
            Ev::Fx(NetEffect::Nak { session, ord, .. }) => {
                nd.on_nak(session, ord, now, &mut a);
                rd.on_nak(session, ord, now, &mut b);
            }
            Ev::Fx(NetEffect::Playout { session, ord, .. }) => {
                nd.on_playout(session, ord, now, &mut a);
                rd.on_playout(session, ord, now, &mut b);
            }
            Ev::Fx(NetEffect::Park { session }) => {
                held.entry(session).or_default();
            }
            Ev::Fx(NetEffect::Resume { session }) => {
                // The feed ladder may take a while to find capacity.
                let wait = Duration::from_millis(rng.below(80));
                q.insert((now + wait, seq, Ev::Resumed(session)));
                seq += 1;
            }
        }
        assert_eq!(a, b, "seed {seed} step {step} ({ev:?}): effects diverged");
        for &e in &a {
            let at = match e {
                NetEffect::LinkFree { at, .. }
                | NetEffect::Arrive { at, .. }
                | NetEffect::Nak { at, .. }
                | NetEffect::Playout { at, .. } => at,
                NetEffect::Park { .. } | NetEffect::Resume { .. } => now,
            };
            q.insert((at, seq, Ev::Fx(e)));
            seq += 1;
        }
    }
    let mut seen = [0u64, 0, 0, 0, early_claims];
    for (id, r) in &rd.sessions {
        let s = nd.session(*id).expect("session exists");
        assert_eq!(s.stats, r.stats, "seed {seed} client {id}: stats diverged");
        assert_eq!(
            (s.cursor, s.next_ord, s.buffered, s.anchor, s.paused),
            (r.cursor, r.next_ord, r.buffered, r.anchor, r.paused),
            "seed {seed} client {id}: session state diverged"
        );
        seen[0] += r.stats.naks_sent;
        seen[1] += r.stats.retransmits;
        seen[2] += r.stats.discarded_late;
        seen[3] += r.stats.parks;
    }
    for (i, r) in rd.links.iter().enumerate() {
        let l = nd.link(i as u32);
        let counters = |f: &Option<NetFaultInjector>| {
            f.as_ref()
                .map(|f| (f.packets_seen, f.drops, f.dups, f.delays))
        };
        assert_eq!(
            (&l.stats, counters(&l.faults)),
            (&r.stats, counters(&r.faults)),
            "seed {seed} link {i}: link stats diverged"
        );
    }
    seen
}

#[test]
fn delivery_matches_the_reference_model_on_random_scenarios() {
    let mut seen = [0u64; 5];
    for seed in 0..300u64 {
        let s = differential(seed);
        for (t, x) in seen.iter_mut().zip(s) {
            *t += x;
        }
    }
    let [naks, retransmits, discarded, parks, early] = seen;
    // The scenarios must reach every path the watermark and ring touch.
    assert!(naks > 5_000, "too few NAKs: {naks}");
    assert!(retransmits > 5_000, "too few retransmits: {retransmits}");
    assert!(discarded > 2_000, "too few late discards: {discarded}");
    assert!(parks > 1_000, "too few parks: {parks}");
    assert!(early > 2_000, "too few early claims: {early}");
}
