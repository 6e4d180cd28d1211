//! Placer byte-identity golden: a 64-arrival VOPD/MWD planner loop on
//! the chiplet grid (`Anneal{32}`, each instance held for 8 arrivals),
//! digested over every admitted placement. The digest was recorded
//! before the placer's scorer went from a budget scan per trial to one
//! per `place`; a speed-up of the placer or of the admission decision
//! must leave it — every chosen router of every instance — unchanged.

use mango_apps::{graph, PlacerKind, TaskGraph};
use mango_core::RouterConfig;
use mango_net::{Grid, NaConfig, TopologySpec};
use mango_qos::{Admission, AdmissionController, ConnRequest};
use std::collections::VecDeque;

const ARRIVALS: u64 = 64;
const HOLD: usize = 8;
const GOLDEN_ADMITTED: u32 = 26;
const GOLDEN_DIGEST: u64 = 4_218_198_804_982_291_047;

/// FNV-1a, 64 bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn release_all(ctl: &mut AdmissionController, held: &[Admission]) {
    for adm in held {
        ctl.release(adm);
    }
}

#[test]
fn planner_loop_placements_match_the_recorded_digest() {
    let mut ctl = AdmissionController::new(
        Grid::from_spec(&TopologySpec::chiplet(2, 2, 4, 4)),
        &RouterConfig::paper(),
        &NaConfig::paper(),
        0.875,
    );
    let graphs = [graph::vopd(), graph::mwd()];
    let placer = PlacerKind::Anneal { iters: 32 };
    let mut live: VecDeque<Vec<Admission>> = VecDeque::new();
    let mut placed: Vec<u8> = Vec::new();
    let mut admitted = 0u32;
    for i in 0..ARRIVALS {
        let g = &graphs[(i % 2) as usize];
        let seed = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let placement = placer.place(g, &mut ctl, seed);
        let mut held = Vec::new();
        if placement.admissible() {
            for e in &g.edges {
                let (src, dst) = (placement.assign[e.from], placement.assign[e.to]);
                if src == dst {
                    continue;
                }
                let period = TaskGraph::period(e.rate_fps);
                let adm = ctl
                    .request(&ConnRequest { src, dst, period })
                    .expect("a zero-failure dry run is an admission proof");
                held.push(adm);
            }
            admitted += 1;
            placed.push(i as u8);
            placed.extend(placement.assign.iter().flat_map(|r| [r.x, r.y]));
        }
        live.push_back(held);
        if live.len() > HOLD {
            release_all(&mut ctl, &live.pop_front().expect("just checked"));
        }
    }
    for held in &live {
        release_all(&mut ctl, held);
    }
    assert!(ctl.nothing_reserved(), "every instance was released");
    assert_eq!(
        (admitted, fnv64(&placed)),
        (GOLDEN_ADMITTED, GOLDEN_DIGEST),
        "admitted placements moved"
    );
}
