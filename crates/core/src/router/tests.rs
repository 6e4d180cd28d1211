//! Router semantics tests: single-router behavior driven standalone
//! through a private arena (timing behavior is tested at the network
//! level).

use super::*;
use crate::events::{Handshake, RouterAction as A};
use crate::ids::UpstreamRef;
use crate::packet::{build_be_packet, BeHeader};
use crate::prog::{self, ProgWrite};

fn router() -> (Router, GsArena, BeArena) {
    Router::standalone(RouterId::new(1, 1), RouterConfig::paper())
}

/// Programs a pass-through hop: flits arriving from `from` on VC `vc`
/// leave on `out` with steering `next`, and the unlock wire maps back
/// across `from`.
fn program_hop(r: &mut Router, from: Direction, out: Direction, vc: VcId, next: Steer) {
    r.program(&[
        ProgWrite::SetSteer {
            dir: out,
            vc,
            steer: next,
        },
        ProgWrite::SetUnlock {
            buffer: GsBufferRef::Net { dir: out, vc },
            upstream: UpstreamRef::Link {
                in_dir: from,
                wire: vc,
            },
        },
    ]);
}

/// Drives the router standalone: internal actions are executed
/// immediately in time order (delays collapsed), external actions are
/// collected. Good enough for single-router semantics tests; timing
/// behaviour is tested at the network level.
fn drain(
    r: &mut Router,
    bufs: &mut GsArena,
    be: &mut BeArena,
    mut pending: Vec<RouterAction>,
) -> Vec<RouterAction> {
    let mut external = Vec::new();
    let mut guard = 0;
    while let Some(action) = pending.first().cloned() {
        pending.remove(0);
        guard += 1;
        assert!(guard < 10_000, "router action storm");
        match action {
            A::Internal { event, .. } => {
                let mut out = Vec::new();
                r.on_internal(bufs, be, Slot::MIN, event, &mut out);
                pending.extend(out);
            }
            other => external.push(other),
        }
    }
    external
}

#[test]
fn gs_flit_forwards_with_new_steering_and_unlocks_upstream() {
    let (mut r, mut bufs, mut be) = router();
    let next = Steer::GsBuffer {
        dir: Direction::East,
        vc: VcId(4),
    };
    program_hop(&mut r, Direction::West, Direction::East, VcId(2), next);

    let mut act = Vec::new();
    r.on_link_flit(
        &mut bufs,
        &mut be,
        SimTime::ZERO,
        Direction::West,
        LinkFlit {
            steer: Steer::GsBuffer {
                dir: Direction::East,
                vc: VcId(2),
            },
            flit: Flit::gs(0xAB),
        },
        &mut act,
    );
    let external = drain(&mut r, &mut bufs, &mut be, act);

    // Expect: an unlock back toward West (wire 2) and the flit out East
    // with the next-hop steering.
    assert!(external.iter().any(|a| matches!(
        a,
        A::SendUnlock {
            dir: Direction::West,
            wire: VcId(2),
            ..
        }
    )));
    let sent: Vec<_> = external
        .iter()
        .filter_map(|a| match a {
            A::SendFlit { dir, lf, .. } => Some((*dir, *lf)),
            _ => None,
        })
        .collect();
    assert_eq!(sent.len(), 1);
    assert_eq!(sent[0].0, Direction::East);
    assert_eq!(sent[0].1.steer, next);
    assert_eq!(sent[0].1.flit.data, 0xAB);
    assert_eq!(r.stats().grants[Direction::East.index()], 1);
}

#[test]
fn second_flit_waits_for_unlock() {
    let (mut r, mut bufs, mut be) = router();
    let next = Steer::GsBuffer {
        dir: Direction::East,
        vc: VcId(0),
    };
    program_hop(&mut r, Direction::West, Direction::East, VcId(0), next);
    let arrival = LinkFlit {
        steer: Steer::GsBuffer {
            dir: Direction::East,
            vc: VcId(0),
        },
        flit: Flit::gs(1),
    };

    let mut act = Vec::new();
    r.on_link_flit(
        &mut bufs,
        &mut be,
        SimTime::ZERO,
        Direction::West,
        arrival,
        &mut act,
    );
    let ext1 = drain(&mut r, &mut bufs, &mut be, act);
    assert_eq!(
        ext1.iter()
            .filter(|a| matches!(a, A::SendFlit { .. }))
            .count(),
        1
    );

    // Second flit arrives; the sharebox is locked, so it advances to
    // the buffer (unlock upstream) but is NOT sent.
    let mut act = Vec::new();
    r.on_link_flit(
        &mut bufs,
        &mut be,
        SimTime::ZERO,
        Direction::West,
        LinkFlit {
            steer: arrival.steer,
            flit: Flit::gs(2),
        },
        &mut act,
    );
    let ext2 = drain(&mut r, &mut bufs, &mut be, act);
    assert!(ext2.iter().all(|a| !matches!(a, A::SendFlit { .. })));
    assert!(ext2.iter().any(|a| matches!(
        a,
        A::SendUnlock {
            dir: Direction::West,
            ..
        }
    )));

    // Unlock arrives: flit 2 goes out.
    let mut act = Vec::new();
    r.on_unlock(
        &mut bufs,
        &mut be,
        Slot::MIN,
        Direction::East,
        VcId(0),
        &mut act,
    );
    let ext3 = drain(&mut r, &mut bufs, &mut be, act);
    let sent: Vec<_> = ext3
        .iter()
        .filter_map(|a| match a {
            A::SendFlit { lf, .. } => Some(lf.flit.data),
            _ => None,
        })
        .collect();
    assert_eq!(sent, vec![2]);
}

#[test]
fn local_delivery_and_end_to_end_backpressure() {
    let (mut r, mut bufs, mut be) = router();
    // Deliver to local iface 1; connection enters from North.
    r.program(&[ProgWrite::SetUnlock {
        buffer: GsBufferRef::Local { iface: 1 },
        upstream: UpstreamRef::Link {
            in_dir: Direction::North,
            wire: VcId(3),
        },
    }]);
    let lf = |n: u32| LinkFlit {
        steer: Steer::LocalGs { iface: 1 },
        flit: Flit::gs(n),
    };

    let mut act = Vec::new();
    r.on_link_flit(
        &mut bufs,
        &mut be,
        SimTime::ZERO,
        Direction::North,
        lf(1),
        &mut act,
    );
    let ext = drain(&mut r, &mut bufs, &mut be, act);
    assert!(ext
        .iter()
        .any(|a| matches!(a, A::DeliverGs { iface: 1, flit } if flit.data == 1)));

    // NA has one rx slot (paper default) and has not consumed: flit 2
    // advances into the buffer (unlock) but is not delivered.
    let mut act = Vec::new();
    r.on_link_flit(
        &mut bufs,
        &mut be,
        SimTime::ZERO,
        Direction::North,
        lf(2),
        &mut act,
    );
    let ext = drain(&mut r, &mut bufs, &mut be, act);
    assert!(ext.iter().all(|a| !matches!(a, A::DeliverGs { .. })));

    // Flit 3 parks in the unsharebox: no unlock goes upstream — the
    // stall propagates back, which is the inherent end-to-end flow
    // control of Sec. 6.
    let mut act = Vec::new();
    r.on_link_flit(
        &mut bufs,
        &mut be,
        SimTime::ZERO,
        Direction::North,
        lf(3),
        &mut act,
    );
    let ext = drain(&mut r, &mut bufs, &mut be, act);
    assert!(ext.iter().all(|a| !matches!(a, A::SendUnlock { .. })));

    // NA consumes: flit 2 delivers, flit 3 advances, unlock resumes.
    let mut act = Vec::new();
    r.on_local_gs_consume(&mut bufs, &mut be, SimTime::ZERO, 1, &mut act);
    let ext = drain(&mut r, &mut bufs, &mut be, act);
    assert!(ext
        .iter()
        .any(|a| matches!(a, A::DeliverGs { flit, .. } if flit.data == 2)));
    assert!(ext.iter().any(|a| matches!(a, A::SendUnlock { .. })));
}

#[test]
fn na_injection_flows_to_link() {
    let (mut r, mut bufs, mut be) = router();
    r.program(&[
        ProgWrite::SetSteer {
            dir: Direction::South,
            vc: VcId(5),
            steer: Steer::LocalGs { iface: 0 },
        },
        ProgWrite::SetUnlock {
            buffer: GsBufferRef::Net {
                dir: Direction::South,
                vc: VcId(5),
            },
            upstream: UpstreamRef::Na { iface: 2 },
        },
    ]);
    let mut act = Vec::new();
    r.on_local_gs_inject(
        &mut bufs,
        &mut be,
        SimTime::ZERO,
        Steer::GsBuffer {
            dir: Direction::South,
            vc: VcId(5),
        },
        Flit::gs(0x77),
        &mut act,
    );
    let ext = drain(&mut r, &mut bufs, &mut be, act);
    assert!(ext.iter().any(|a| matches!(a, A::NaUnlock { iface: 2 })));
    assert!(ext.iter().any(
        |a| matches!(a, A::SendFlit { dir: Direction::South, lf, .. } if lf.flit.data == 0x77)
    ));
}

#[test]
#[should_panic(expected = "unprogrammed GS buffer")]
fn flit_on_unprogrammed_vc_panics() {
    let (mut r, mut bufs, mut be) = router();
    let mut act = Vec::new();
    r.on_link_flit(
        &mut bufs,
        &mut be,
        SimTime::ZERO,
        Direction::West,
        LinkFlit {
            steer: Steer::GsBuffer {
                dir: Direction::East,
                vc: VcId(0),
            },
            flit: Flit::gs(0),
        },
        &mut act,
    );
    drain(&mut r, &mut bufs, &mut be, act);
}

/// Drains actions like [`drain`], additionally acting as an
/// always-ready downstream neighbor: every `SendFlit` on a network port
/// is answered with a BE credit (as the real neighbor would once the
/// flit leaves its BE input latch).
fn drain_with_credits(
    r: &mut Router,
    bufs: &mut GsArena,
    be: &mut BeArena,
    pending: Vec<RouterAction>,
) -> Vec<RouterAction> {
    let mut external = Vec::new();
    let mut todo = pending;
    let mut guard = 0;
    while !todo.is_empty() {
        guard += 1;
        assert!(guard < 10_000, "router action storm");
        let ext = drain(r, bufs, be, todo);
        todo = Vec::new();
        for a in ext {
            if let A::SendFlit { dir, .. } = &a {
                let mut act = Vec::new();
                r.on_credit(bufs, be, Slot::MIN, *dir, &mut act);
                todo.extend(act);
            }
            external.push(a);
        }
    }
    external
}

#[test]
fn be_packet_forwards_toward_header_direction() {
    let (mut r, mut bufs, mut be) = router();
    // Two-link route: East, East (delivery code appended by builder).
    let header = BeHeader::from_route(&[Direction::East, Direction::East]).unwrap();
    let flits = build_be_packet(header, &[0x11, 0x22], false);

    let mut external = Vec::new();
    for f in flits {
        let mut act = Vec::new();
        r.on_link_flit(
            &mut bufs,
            &mut be,
            SimTime::ZERO,
            Direction::West,
            LinkFlit {
                steer: Steer::BeUnit,
                flit: f,
            },
            &mut act,
        );
        external.extend(drain_with_credits(&mut r, &mut bufs, &mut be, act));
    }
    let sent: Vec<_> = external
        .iter()
        .filter_map(|a| match a {
            A::SendFlit { dir, lf, .. } => Some((*dir, lf.steer, lf.flit.data)),
            _ => None,
        })
        .collect();
    assert_eq!(sent.len(), 3, "header + 2 payload flits forwarded");
    for (dir, steer, _) in &sent {
        assert_eq!(*dir, Direction::East);
        assert_eq!(*steer, Steer::BeUnit);
    }
    // Header was rotated: next hop's code (East) now in the MSBs.
    assert_eq!(sent[0].2 >> 30, Direction::East.index() as u32);
    // Credits returned upstream for all three flits.
    let credits = external
        .iter()
        .filter(|a| {
            matches!(
                a,
                A::SendCredit {
                    dir: Direction::West,
                    ..
                }
            )
        })
        .count();
    assert_eq!(credits, 3);
}

/// Telemetry's link utilisation reads one grant count per port: a GS
/// and a BE flit leaving on the same port both count.
#[test]
fn grants_count_both_classes_per_port() {
    let (mut r, mut bufs, mut be) = router();
    let east = Steer::GsBuffer {
        dir: Direction::East,
        vc: VcId(1),
    };
    program_hop(&mut r, Direction::West, Direction::East, VcId(1), east);
    // A header-only BE packet is one flit.
    let header = BeHeader::from_route(&[Direction::East, Direction::East]).unwrap();
    let arrivals = [
        LinkFlit {
            steer: east,
            flit: Flit::gs(0x1),
        },
        LinkFlit {
            steer: Steer::BeUnit,
            flit: build_be_packet(header, &[], false)[0],
        },
    ];
    let mut sent = Vec::new();
    for lf in arrivals {
        let mut act = Vec::new();
        r.on_link_flit(
            &mut bufs,
            &mut be,
            SimTime::ZERO,
            Direction::West,
            lf,
            &mut act,
        );
        let external = drain(&mut r, &mut bufs, &mut be, act);
        sent.extend(external.into_iter().filter_map(|a| match a {
            A::SendFlit { dir, .. } => Some(dir),
            _ => None,
        }));
    }
    assert_eq!(sent, [Direction::East; 2]);
    assert_eq!(r.stats().grants, [0, 2, 0, 0]);
}

#[test]
fn be_uturn_code_delivers_locally() {
    let (mut r, mut bufs, mut be) = router();
    let header = BeHeader::from_route(&[Direction::East]).unwrap();
    let flits = build_be_packet(header, &[0xAA], false);
    let mut external = Vec::new();
    // Arrives on the East port one hop later: the next code is West
    // — wait, from_route(&[East]) appends delivery code West, consumed
    // at the *neighbor*. Simulate the neighbor: flits arrive on its
    // West port with the header already rotated once.
    let mut rotated = flits;
    rotated[0].data = BeHeader(rotated[0].data).rotate().0;
    for f in rotated {
        let mut act = Vec::new();
        r.on_link_flit(
            &mut bufs,
            &mut be,
            SimTime::ZERO,
            Direction::West,
            LinkFlit {
                steer: Steer::BeUnit,
                flit: f,
            },
            &mut act,
        );
        external.extend(drain(&mut r, &mut bufs, &mut be, act));
    }
    let delivered: Vec<u32> = external
        .iter()
        .filter_map(|a| match a {
            A::DeliverBe { flit } => Some(flit.data),
            _ => None,
        })
        .collect();
    assert_eq!(delivered.len(), 2, "header + payload delivered locally");
    assert_eq!(delivered[1], 0xAA);
}

#[test]
fn config_packet_programs_table_and_acks() {
    let (mut r, mut bufs, mut be) = router();
    let writes = vec![ProgWrite::SetSteer {
        dir: Direction::North,
        vc: VcId(1),
        steer: Steer::BeUnit,
    }];
    let payload = prog::encode_payload(
        &writes,
        Some(prog::AckPlan {
            token: 42,
            return_header: BeHeader::from_route(&[Direction::West]).unwrap(),
        }),
    );
    // Build a config packet as if it arrived with its route consumed:
    // header flit (already used for routing) + payload, all marked
    // be_vc. Deliver via the BE local path: arrive on East port with a
    // U-turn code (East) in the header MSBs.
    let mut header_word = 0u32;
    header_word |= (Direction::East.index() as u32) << 30;
    let mut flits = vec![Flit::be(header_word, false).with_be_vc(true)];
    for (i, w) in payload.iter().enumerate() {
        flits.push(Flit::be(*w, i + 1 == payload.len()).with_be_vc(true));
    }

    let mut external = Vec::new();
    for f in flits {
        let mut act = Vec::new();
        r.on_link_flit(
            &mut bufs,
            &mut be,
            SimTime::ZERO,
            Direction::East,
            LinkFlit {
                steer: Steer::BeUnit,
                flit: f,
            },
            &mut act,
        );
        external.extend(drain(&mut r, &mut bufs, &mut be, act));
    }
    // Table programmed.
    assert_eq!(
        r.table().steer(Direction::North, VcId(1)),
        Some(Steer::BeUnit)
    );
    assert_eq!(r.stats().prog_packets, 1);
    assert_eq!(r.stats().prog_errors, 0);
    // Ack packet left toward West carrying the token.
    let acks: Vec<_> = external
        .iter()
        .filter_map(|a| match a {
            A::SendFlit {
                dir: Direction::West,
                lf,
                ..
            } => Some(lf.flit),
            _ => None,
        })
        .collect();
    assert_eq!(acks.len(), 2, "ack header + token word");
    assert_eq!(prog::parse_ack_word(acks[1].data), Some(42));
    // Nothing was delivered to the NA.
    assert!(external.iter().all(|a| !matches!(a, A::DeliverBe { .. })));
}

#[test]
fn malformed_config_packet_counts_error_and_is_dropped() {
    let (mut r, mut bufs, mut be) = router();
    let mut act = Vec::new();
    r.prog_inject(&mut be, SimTime::ZERO, &[0xF000_0000], &mut act);
    assert_eq!(r.stats().prog_errors, 1);
    assert!(drain(&mut r, &mut bufs, &mut be, act).is_empty());
}

#[test]
fn be_credit_exhaustion_throttles_link() {
    let (mut r, mut bufs, mut be) = router();
    // Fill the East BE output: credits = 2 by default.
    let header = BeHeader::from_route(&[Direction::East; 3]).unwrap();
    let flits = build_be_packet(header, &[1, 2, 3, 4, 5], false);
    let mut external = Vec::new();
    for f in &flits[..4] {
        let mut act = Vec::new();
        r.on_local_be_inject(&mut bufs, &mut be, SimTime::ZERO, *f, &mut act);
        external.extend(drain(&mut r, &mut bufs, &mut be, act));
    }
    let sent = external
        .iter()
        .filter(|a| matches!(a, A::SendFlit { .. }))
        .count();
    assert_eq!(sent, 2, "only two credits available");

    // A credit from downstream releases the next flit.
    let mut act = Vec::new();
    r.on_credit(&mut bufs, &mut be, Slot::MIN, Direction::East, &mut act);
    let ext = drain(&mut r, &mut bufs, &mut be, act);
    assert_eq!(
        ext.iter()
            .filter(|a| matches!(a, A::SendFlit { .. }))
            .count(),
        1
    );
}

#[test]
fn be_outputs_arbitrate_fairly_and_keep_packet_coherency() {
    let (mut r, mut bufs, mut be) = router();
    // Two 2-flit packets from North and South, both heading East, with
    // interleaved arrival.
    let header = BeHeader::from_route(&[Direction::East, Direction::East]).unwrap();
    let p1 = build_be_packet(header, &[0xA1], false);
    let p2 = build_be_packet(header, &[0xB2], false);
    let mut external = Vec::new();
    for i in 0..2 {
        for (src, p) in [(Direction::North, &p1), (Direction::South, &p2)] {
            let mut act = Vec::new();
            r.on_link_flit(
                &mut bufs,
                &mut be,
                SimTime::ZERO,
                src,
                LinkFlit {
                    steer: Steer::BeUnit,
                    flit: p[i],
                },
                &mut act,
            );
            external.extend(drain_with_credits(&mut r, &mut bufs, &mut be, act));
        }
    }
    let sent: Vec<(u32, bool)> = external
        .iter()
        .filter_map(|a| match a {
            A::SendFlit { lf, .. } => Some((lf.flit.data, lf.flit.eop())),
            _ => None,
        })
        .collect();
    assert_eq!(sent.len(), 4);
    // Coherency: header/payload pairs stay adjacent — EOP alternates.
    let eops: Vec<bool> = sent.iter().map(|(_, e)| *e).collect();
    assert_eq!(eops, vec![false, true, false, true], "packets interleaved");
    // Both payloads made it out.
    let payloads: std::collections::HashSet<u32> = [sent[1].0, sent[3].0].into();
    assert_eq!(payloads, [0xA1u32, 0xB2].into());
}

#[test]
fn quiescence_reflects_stored_flits() {
    let (mut r, mut bufs, mut be) = router();
    assert!(r.is_quiescent(&bufs, &be));
    program_hop(
        &mut r,
        Direction::West,
        Direction::East,
        VcId(0),
        Steer::LocalGs { iface: 0 },
    );
    let mut act = Vec::new();
    r.on_link_flit(
        &mut bufs,
        &mut be,
        SimTime::ZERO,
        Direction::West,
        LinkFlit {
            steer: Steer::GsBuffer {
                dir: Direction::East,
                vc: VcId(0),
            },
            flit: Flit::gs(1),
        },
        &mut act,
    );
    // Flit now in flight inside the router.
    assert!(!r.is_quiescent(&bufs, &be));
}

#[test]
fn standalone_router_and_shared_arena_agree() {
    // Two routers in one shared arena behave independently: driving one
    // must not disturb the other's slots.
    let cfg = RouterConfig::paper();
    let mut arena = GsArena::new(cfg.gs_vcs(), cfg.local_gs_ifaces(), cfg.buffer_depth());
    let mut be_arena = BeArena::default();
    let mut r0 = Router::new_in(RouterId::new(0, 0), cfg.clone(), &mut arena, &mut be_arena);
    let r1 = Router::new_in(RouterId::new(1, 0), cfg, &mut arena, &mut be_arena);
    let next = Steer::LocalGs { iface: 0 };
    program_hop(&mut r0, Direction::West, Direction::East, VcId(0), next);
    let mut act = Vec::new();
    r0.on_link_flit(
        &mut arena,
        &mut be_arena,
        SimTime::ZERO,
        Direction::West,
        LinkFlit {
            steer: Steer::GsBuffer {
                dir: Direction::East,
                vc: VcId(0),
            },
            flit: Flit::gs(9),
        },
        &mut act,
    );
    // Flit sits in r0's unsharebox; r1's slots are untouched.
    assert!(!r0.is_quiescent(&arena, &be_arena), "flit stored in r0");
    assert!(
        r1.is_quiescent(&arena, &be_arena),
        "neighbor slots untouched"
    );
}

// ----------------------------------------------------------------------
// Parked handshakes
// ----------------------------------------------------------------------

/// A slot at `ps` (the tests need no tie-breaks).
fn at(ps: u64) -> Slot {
    Slot::end_of(SimTime::from_ps(ps))
}

/// Delivers the deferred events of `act` at `stamp` until none is left,
/// parking every `LinkFree` at `free_at`; returns everything else.
fn run_parking(
    r: &mut Router,
    bufs: &mut GsArena,
    be: &mut BeArena,
    stamp: Slot,
    free_at: Slot,
    mut act: Vec<RouterAction>,
) -> Vec<RouterAction> {
    let mut external = Vec::new();
    while !act.is_empty() {
        for a in std::mem::take(&mut act) {
            match a {
                A::Internal {
                    event: InternalEvent::LinkFree { dir },
                    ..
                } => {
                    if r.park_link_free(dir, free_at) {
                        let what = Handshake::LinkFree { dir };
                        external.push(A::Wake { at: free_at, what });
                    }
                }
                A::Internal { event, .. } => r.on_internal(bufs, be, stamp, event, &mut act),
                other => external.push(other),
            }
        }
    }
    external
}

fn gs_arrival(r: &mut Router, bufs: &mut GsArena, be: &mut BeArena, data: u32) -> Vec<A> {
    let mut act = Vec::new();
    let lf = LinkFlit {
        steer: Steer::GsBuffer {
            dir: Direction::East,
            vc: VcId(0),
        },
        flit: Flit::gs(data),
    };
    r.on_link_flit(bufs, be, SimTime::ZERO, Direction::West, lf, &mut act);
    act
}

fn sent(actions: &[A]) -> Vec<u32> {
    actions
        .iter()
        .filter_map(|a| match a {
            A::SendFlit { lf, .. } => Some(lf.flit.data),
            _ => None,
        })
        .collect()
}

fn wakes(actions: &[A]) -> Vec<(Slot, Handshake)> {
    actions
        .iter()
        .filter_map(|a| match a {
            A::Wake { at, what } => Some((*at, *what)),
            _ => None,
        })
        .collect()
}

/// A parked unlock toggle and a parked link-free tick are absorbed by
/// the first reader past their slots: the second flit goes out with no
/// `Unlock` and no `LinkFree` event ever delivered.
#[test]
fn parked_unlock_and_link_free_are_absorbed_by_the_next_reader() {
    let (mut r, mut bufs, mut be) = router();
    let next = Steer::LocalGs { iface: 0 };
    program_hop(&mut r, Direction::West, Direction::East, VcId(0), next);

    let act = gs_arrival(&mut r, &mut bufs, &mut be, 1);
    let ext = run_parking(&mut r, &mut bufs, &mut be, at(100), at(200), act);
    assert_eq!(sent(&ext), [1]);
    assert!(wakes(&ext).is_empty(), "nobody waits on the busy link");
    assert!(!r.park_unlock(&mut bufs, Direction::East, VcId(0), at(300)));
    assert!(!r.handshakes_at_rest(&bufs, &be));

    // Past both slots: link idle again, sharebox open.
    let act = gs_arrival(&mut r, &mut bufs, &mut be, 2);
    let ext = run_parking(&mut r, &mut bufs, &mut be, at(400), at(500), act);
    assert_eq!(sent(&ext), [2]);
    assert!(wakes(&ext).is_empty());
}

/// A flit that completes its advance while the toggle is still on its
/// way wakes it — at the slot it was parked with — and goes out when the
/// event is delivered; one that is already waiting when the toggle is
/// sent makes `park_unlock` ask for the event at once.
#[test]
fn a_flit_behind_a_locked_sharebox_wakes_the_parked_unlock() {
    let (mut r, mut bufs, mut be) = router();
    let next = Steer::LocalGs { iface: 0 };
    program_hop(&mut r, Direction::West, Direction::East, VcId(0), next);
    let act = gs_arrival(&mut r, &mut bufs, &mut be, 1);
    run_parking(&mut r, &mut bufs, &mut be, at(100), at(200), act);
    assert!(!r.park_unlock(&mut bufs, Direction::East, VcId(0), at(300)));

    let act = gs_arrival(&mut r, &mut bufs, &mut be, 2);
    let ext = run_parking(&mut r, &mut bufs, &mut be, at(250), at(999), act);
    assert!(sent(&ext).is_empty(), "sharebox still locked at 250");
    let wire = VcId(0);
    let dir = Direction::East;
    assert_eq!(wakes(&ext), [(at(300), Handshake::Unlock { dir, wire })]);

    let mut act = Vec::new();
    r.on_unlock(&mut bufs, &mut be, at(300), dir, wire, &mut act);
    let ext = run_parking(&mut r, &mut bufs, &mut be, at(300), at(400), act);
    assert_eq!(sent(&ext), [2]);

    // Flit 3 waits behind the lock before flit 2's toggle is even sent.
    let act = gs_arrival(&mut r, &mut bufs, &mut be, 3);
    let ext = run_parking(&mut r, &mut bufs, &mut be, at(350), at(999), act);
    assert!(sent(&ext).is_empty() && wakes(&ext).is_empty());
    assert!(r.park_unlock(&mut bufs, dir, wire, at(450)), "a flit waits");
}

/// A VC turning ready behind a busy link wakes the parked `LinkFree`
/// once; delivered, it grants without a fresh arbitration delay.
#[test]
fn a_ready_vc_behind_a_busy_link_wakes_the_parked_link_free() {
    let (mut r, mut bufs, mut be) = router();
    let next = Steer::LocalGs { iface: 0 };
    for vc in [VcId(0), VcId(1)] {
        program_hop(&mut r, Direction::West, Direction::East, vc, next);
    }
    let act = gs_arrival(&mut r, &mut bufs, &mut be, 1);
    run_parking(&mut r, &mut bufs, &mut be, at(100), at(200), act);

    let mut act = Vec::new();
    let lf = LinkFlit {
        steer: Steer::GsBuffer {
            dir: Direction::East,
            vc: VcId(1),
        },
        flit: Flit::gs(2),
    };
    r.on_link_flit(
        &mut bufs,
        &mut be,
        SimTime::ZERO,
        Direction::West,
        lf,
        &mut act,
    );
    let ext = run_parking(&mut r, &mut bufs, &mut be, at(150), at(999), act);
    assert!(sent(&ext).is_empty(), "link busy until 200");
    let dir = Direction::East;
    assert_eq!(wakes(&ext), [(at(200), Handshake::LinkFree { dir })]);

    let mut act = Vec::new();
    let free = InternalEvent::LinkFree { dir };
    r.on_internal(&mut bufs, &mut be, at(200), free, &mut act);
    assert!(
        !act.iter().any(|a| matches!(
            a,
            A::Internal {
                event: InternalEvent::ArbDecide { .. },
                ..
            }
        )),
        "the decision overlapped the link cycle"
    );
    let ext = run_parking(&mut r, &mut bufs, &mut be, at(200), at(300), act);
    assert_eq!(sent(&ext), [2]);
}

/// Credits parked at an output that is not blocked are absorbed when it
/// next looks; an output that blocks wakes what is parked for it, and a
/// credit sent to a blocked output is asked for as an event at once.
#[test]
fn parked_credits_are_absorbed_or_woken_by_the_blocked_output() {
    let (mut r, mut bufs, mut be) = router();
    let header = BeHeader::from_route(&[Direction::East; 3]).unwrap();
    let flits = build_be_packet(header, &[1, 2, 3, 4, 5, 6], false);
    let dir = Direction::East;
    let inject = |r: &mut Router, bufs: &mut GsArena, be: &mut BeArena, f: Flit, stamp, free| {
        let mut act = Vec::new();
        r.on_local_be_inject(bufs, be, SimTime::ZERO, f, &mut act);
        run_parking(r, bufs, be, stamp, free, act)
    };
    // Two flits out on the two credits; their credits come back parked.
    let ext = inject(&mut r, &mut bufs, &mut be, flits[0], at(10), at(20));
    assert_eq!(sent(&ext).len(), 1);
    let ext = inject(&mut r, &mut bufs, &mut be, flits[1], at(30), at(40));
    assert_eq!(sent(&ext).len(), 1);
    assert!(!r.park_credit(&mut be, dir, at(50)));
    assert!(!r.park_credit(&mut be, dir, at(500)));

    // At 60 the first has landed: the third flit goes; the fourth blocks
    // and wakes the one still on its way.
    let ext = inject(&mut r, &mut bufs, &mut be, flits[2], at(60), at(70));
    assert_eq!(sent(&ext).len(), 1);
    assert!(wakes(&ext).is_empty());
    let ext = inject(&mut r, &mut bufs, &mut be, flits[3], at(80), at(90));
    assert!(sent(&ext).is_empty());
    assert_eq!(wakes(&ext), [(at(500), Handshake::Credit { dir })]);
    assert!(
        r.park_credit(&mut be, dir, at(600)),
        "the output is blocked"
    );

    let mut act = Vec::new();
    r.on_credit(&mut bufs, &mut be, at(500), dir, &mut act);
    let ext = run_parking(&mut r, &mut bufs, &mut be, at(500), at(510), act);
    assert_eq!(sent(&ext).len(), 1);
}

/// Settling absorbs what is due and leaves the rest; a drained router
/// is at rest, and a fail-stop drops what is still on its way.
#[test]
fn settle_and_drop_parked() {
    let (mut r, mut bufs, mut be) = router();
    let next = Steer::LocalGs { iface: 0 };
    program_hop(&mut r, Direction::West, Direction::East, VcId(0), next);
    assert!(r.handshakes_at_rest(&bufs, &be));
    let act = gs_arrival(&mut r, &mut bufs, &mut be, 1);
    run_parking(&mut r, &mut bufs, &mut be, at(100), at(200), act);
    assert!(!r.park_unlock(&mut bufs, Direction::East, VcId(0), at(300)));
    let slot = bufs.vc_slot(r.slots(), Direction::East.index(), 0);

    r.settle(&mut bufs, &mut be, at(250));
    assert!(bufs.vc_is_locked(slot) && !r.handshakes_at_rest(&bufs, &be));
    r.settle(&mut bufs, &mut be, at(300));
    assert!(!bufs.vc_is_locked(slot) && r.handshakes_at_rest(&bufs, &be));

    let act = gs_arrival(&mut r, &mut bufs, &mut be, 2);
    run_parking(&mut r, &mut bufs, &mut be, at(400), at(500), act);
    assert!(!r.park_unlock(&mut bufs, Direction::East, VcId(0), at(600)));
    r.drop_parked(&mut bufs, &mut be, at(450));
    assert_eq!(bufs.vc_parked_unlock(slot), None);
    r.settle(&mut bufs, &mut be, at(10_000));
    assert!(bufs.vc_is_locked(slot), "the toggle died with the router");
}
