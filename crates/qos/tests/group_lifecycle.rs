//! The shared connection-group lifecycle is all-or-nothing: when an
//! in-band open fails at any edge of a group, every admission handed to
//! the driver — opened before the failure, failing, or never reached —
//! goes back into the budgets, and the connection manager holds nothing.
//! Churn (groups of one) and serving (one group per app instance) both
//! rely on this one rollback; a leak here silently shrinks capacity for
//! the rest of a run. Its transitions reach the workload at the acks'
//! own instants, not on a clock of the driver's.

use mango_core::{RouterId, VcId};
use mango_net::ScenarioSpec;
use mango_qos::driver::{ArrivalSpec, ControlPlane, Event, Lifecycle};
use mango_qos::ConnRequest;
use mango_sim::SimDuration;
use proptest::prelude::*;

fn node(i: u32) -> RouterId {
    RouterId::new((i % 4) as u8, (i / 4 % 4) as u8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Groups of 1..=6 edges on a 4×4 mesh, with every GS VC of one
    /// chosen edge's first link quarantined behind the admission
    /// controller's back, so the open pass fails at that edge (or at an
    /// earlier one sharing the link).
    #[test]
    fn failed_open_returns_every_budget(
        seed in 0u64..1000,
        size in 1usize..7,
        victim in 0usize..6,
        pairs in prop::collection::vec((0u32..16, 0u32..16), 6..7),
    ) {
        let base = ScenarioSpec::mesh(4, 4, seed).measure_for(SimDuration::from_us(50));
        let (mut prepared, cp) = ControlPlane::prepare(&base, None);
        let arrivals = ArrivalSpec {
            seed,
            gap: SimDuration::from_us(1),
            holding_mean: SimDuration::from_us(10),
            holding_min: SimDuration::from_us(4),
            drain_margin: SimDuration::from_us(1),
            max: 1,
        };
        let mut lc = Lifecycle::start(cp, &mut prepared, arrivals);
        let Some(Event::Arrive(arrival)) = lc.next_event(&mut prepared) else {
            panic!("the first request arrives inside the window");
        };

        let mut admissions = Vec::new();
        for &(a, b) in pairs.iter().take(size) {
            let req = ConnRequest {
                src: node(a),
                dst: node(b),
                period: SimDuration::from_ns(15),
            };
            if let Ok(adm) = lc.cp.admission.request(&req) {
                admissions.push(adm);
            }
        }
        prop_assume!(!admissions.is_empty());

        let failing = &admissions[victim % admissions.len()];
        let gs_vcs = prepared.sim().network().router_cfg().gs_vcs();
        let grid = prepared.sim().network().grid().clone();
        let conns = prepared.sim_mut().network_mut().connections_mut();
        for vc in 0..gs_vcs {
            conns.quarantine_vc(&grid, failing.src, failing.dirs[0], VcId(vc as u8));
        }

        prop_assert!(lc.open_group(&mut prepared, admissions, &arrival).is_none());
        prop_assert!(lc.cp.budgets_clean(), "admission budgets leaked");
        prop_assert!(lc.cp.admission.nothing_reserved());
        prop_assert!(
            prepared.sim().network().connections().nothing_reserved(),
            "the connection manager still holds VCs or interfaces"
        );
        // The rolled-back group left nothing to drive: the run ends
        // cleanly with no further event.
        lc.schedule_arrival(prepared.sim().now());
        prop_assert_eq!(lc.next_event(&mut prepared), None);
        let end = lc.finish(&mut prepared);
        prop_assert!(end.groups.is_empty());
        prop_assert!(end.run.budgets_clean);
    }

    /// Every transition is handed out at the instant of the ack that
    /// completes it — `Opened` at the group's last open ack, `Closed` at
    /// its last close ack with the budgets already back — for groups of
    /// 1..=6 edges whose holding time is shorter than their setup (the
    /// Close is held) or longer. The first request of each run opens a
    /// group without connections, which is Opened at its arrival.
    #[test]
    fn transitions_are_handed_out_at_their_ack_instants(
        seed in 0u64..1000,
        size in 1usize..7,
        hold_shorter_than_setup in 0u8..2,
        pairs in prop::collection::vec((0u32..16, 0u32..16), 6..7),
    ) {
        const REQUESTS: u64 = 3;
        let base = ScenarioSpec::mesh(4, 4, seed).measure_for(SimDuration::from_us(40));
        let (mut prepared, cp) = ControlPlane::prepare(&base, None);
        let ns = SimDuration::from_ns;
        let (holding_mean, holding_min, drain_margin) = if hold_shorter_than_setup == 1 {
            (ns(30), ns(25), ns(10))
        } else {
            (ns(8_000), ns(4_000), ns(1_000))
        };
        let arrivals = ArrivalSpec {
            seed,
            gap: SimDuration::from_us(2),
            holding_mean,
            holding_min,
            drain_margin,
            max: REQUESTS,
        };
        let mut lc = Lifecycle::start(cp, &mut prepared, arrivals);
        let mut arrived_at = Vec::new();
        let (mut opened, mut closed) = (0, 0);
        while let Some(event) = lc.next_event(&mut prepared) {
            let now = prepared.sim().now();
            let table = prepared.sim().network().connections();
            let last = |i: usize, closing: bool| {
                let conns = lc.group(i).conns.iter().map(|c| table.get(c.conn).expect("known"));
                conns.map(|r| if closing { r.closed_at } else { r.opened_at }).max().flatten()
            };
            match event {
                Event::Arrive(arrival) => {
                    let mut admissions = Vec::new();
                    if arrival.ordinal > 0 {
                        for &(a, b) in pairs.iter().take(size) {
                            let period = SimDuration::from_ns(15);
                            let req = ConnRequest { src: node(a), dst: node(b), period };
                            admissions.extend(lc.cp.admission.request(&req).ok());
                        }
                    }
                    let group = lc.open_group(&mut prepared, admissions, &arrival);
                    arrived_at.push((group, now));
                    lc.schedule_arrival(now);
                }
                Event::Opened(i) => {
                    opened += 1;
                    if lc.group(i).conns.is_empty() {
                        prop_assert!(arrived_at.contains(&(Some(i), now)), "opened at arrival");
                    } else {
                        prop_assert!(Some(now) == last(i, false), "Opened at {now:?}, not at the last open ack");
                    }
                }
                Event::Closed(i) => {
                    closed += 1;
                    if !lc.group(i).conns.is_empty() {
                        prop_assert!(Some(now) == last(i, true), "Closed at {now:?}, not at the last close ack");
                    }
                    let groups = arrived_at.iter().filter(|(g, _)| g.is_some()).count();
                    if closed == groups && arrived_at.len() as u64 == REQUESTS {
                        prop_assert!(lc.cp.budgets_clean(), "budgets back at the last close");
                    }
                }
            }
        }
        prop_assert_eq!(arrived_at.len() as u64, REQUESTS);
        let groups = arrived_at.iter().filter(|(g, _)| g.is_some()).count();
        prop_assert!((opened, closed) == (groups, groups), "the window did not drain");
        prop_assert!(lc.finish(&mut prepared).run.budgets_clean);
    }
}
