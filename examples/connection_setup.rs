//! Connection setup walkthrough: watch the programming interface at work.
//!
//! Opening a GS connection sends BE configuration packets (marked with the
//! spare header bit) to every router on the path; each router writes its
//! connection table — steering bits for the *next* hop, unlock-wire
//! mapping for the *previous* hop, the two places the paper stores setup
//! state — and returns an acknowledgment packet. This example traces the
//! lifecycle: Opening → Open → traffic → Closing → Closed, and shows the
//! reserved VCs being recycled.
//!
//! Run with: `cargo run --release -p mango --example connection_setup`

use mango::core::RouterId;
use mango::net::{ConnState, EmitWindow, NocSim, TemporalSpec};
use mango::sim::SimDuration;

fn main() {
    let mut sim = NocSim::paper_mesh(3, 3, 99);
    let src = RouterId::new(0, 0);
    let dst = RouterId::new(2, 1);

    println!("== opening {} -> {} ==", src, dst);
    let conn = sim.open_connection(src, dst).expect("VCs available");
    println!(
        "state after open(): {:?}",
        sim.connection_state(conn).unwrap()
    );
    assert_eq!(sim.connection_state(conn), Some(ConnState::Opening));

    sim.wait_connections_settled()
        .expect("programming completes");
    println!(
        "state after programming settled: {:?} (t = {})",
        sim.connection_state(conn).unwrap(),
        sim.now()
    );

    let record = sim.network().connections().get(conn).unwrap().clone();
    println!(
        "path: {} links {:?}, reserved VCs {:?}, NA tx iface {}, dst iface {}",
        record.hops(),
        record.dirs,
        record.vcs,
        record.tx_iface,
        record.rx_iface
    );

    // Inspect the programmed tables along the path.
    println!("\nper-router programming state:");
    for r in sim.network().routers() {
        let s = r.stats();
        if s.prog_packets > 0 || r.table().steer_entries() > 0 || r.table().unlock_entries() > 0 {
            println!(
                "  router {}: {} config packets, {} steer + {} unlock entries",
                r.id(),
                s.prog_packets,
                r.table().steer_entries(),
                r.table().unlock_entries()
            );
        }
    }

    // Use the connection.
    sim.begin_measurement();
    let flow = sim.add_gs_source(
        conn,
        TemporalSpec::cbr(SimDuration::from_ns(10)),
        "payload",
        EmitWindow {
            limit: Some(1000),
            ..Default::default()
        },
    );
    sim.run_to_quiescence();
    println!(
        "\nstreamed {} flits, mean latency {}",
        sim.flow(flow).delivered,
        sim.flow(flow).latency.mean().unwrap()
    );

    // Tear down and reopen: the same VCs come back.
    println!("\n== closing ==");
    sim.close_connection(conn).expect("open connection");
    println!(
        "state after close(): {:?}",
        sim.connection_state(conn).unwrap()
    );
    sim.wait_connections_settled().expect("teardown completes");
    println!(
        "state after teardown settled: {:?}",
        sim.connection_state(conn).unwrap()
    );
    assert_eq!(sim.connection_state(conn), Some(ConnState::Closed));

    let conn2 = sim.open_connection(src, dst).expect("resources recycled");
    sim.wait_connections_settled()
        .expect("programming completes");
    let record2 = sim.network().connections().get(conn2).unwrap().clone();
    println!(
        "\nreopened as {} with VCs {:?} (recycled: {})",
        conn2,
        record2.vcs,
        record2.vcs == record.vcs
    );
    assert_eq!(record2.vcs, record.vcs, "freed VCs are reused first-fit");
}
