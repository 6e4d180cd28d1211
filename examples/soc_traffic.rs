//! A heterogeneous SoC scenario (the paper's Fig. 1 motivation): CPU, DSP,
//! video-out and memory-controller cores on one clockless mesh, mixing
//! OCP-lite request/response traffic over BE with hard-guaranteed GS
//! streams.
//!
//! * The **memory controller** at (2,2) is an OCP slave: it answers read
//!   and write bursts arriving as BE packets.
//! * The **CPU** at (0,0) issues OCP writes then reads and checks the data
//!   round-trips through the mesh.
//! * The **DSP → video-out** path (0,2) → (2,0) holds a GS connection
//!   carrying a constant 80 Mflit/s sample stream while all the OCP
//!   traffic flies around it.
//!
//! Run with: `cargo run --release -p mango --example soc_traffic`

use mango::core::RouterId;
use mango::net::{EmitWindow, NocSim, OcpMessage, OcpSlave, TemporalSpec};
use mango::sim::SimDuration;

fn main() {
    let mut sim = NocSim::paper_mesh(3, 3, 2024);
    let cpu = RouterId::new(0, 0);
    let dsp = RouterId::new(0, 2);
    let video = RouterId::new(2, 0);
    let mem = RouterId::new(2, 2);

    // Attach the memory-controller model to the NA at (2,2).
    let resp_flow = sim.network_mut().stats_mut().register_flow("ocp-responses");
    let mut slave = OcpSlave::new();
    slave.response_flow = Some(resp_flow);
    sim.network_mut().set_app(mem, Box::new(slave));

    // DSP → video GS stream.
    let stream = sim.open_connection(dsp, video).expect("VCs available");
    sim.wait_connections_settled()
        .expect("programming completes");
    sim.begin_measurement();
    let stream_flow = sim.add_gs_source(
        stream,
        TemporalSpec::cbr(SimDuration::from_ps(12_500)), // 80 Mflit/s
        "dsp-video",
        EmitWindow::default(),
    );

    // CPU issues OCP writes: 64 bursts of 4 words.
    let req_flow = sim.network_mut().stats_mut().register_flow("ocp-requests");
    for i in 0..64u32 {
        let write = OcpMessage::WriteReq {
            tag: i as u16,
            requester: cpu,
            addr: 0x1000 + i * 4,
            data: vec![i, i + 1, i + 2, i + 3],
        };
        sim.send_be(cpu, mem, &write.encode(), Some(req_flow));
    }
    sim.run_for(SimDuration::from_us(50));

    // ...then reads everything back.
    for i in 0..64u32 {
        let read = OcpMessage::ReadReq {
            tag: 0x100 + i as u16,
            requester: cpu,
            addr: 0x1000 + i * 4,
            burst: 4,
        };
        sim.send_be(cpu, mem, &read.encode(), Some(req_flow));
    }
    sim.run_for(SimDuration::from_us(100));

    // Report.
    let req = sim.flow(req_flow);
    let resp = sim.flow(resp_flow);
    let stream_stats = sim.flow(stream_flow);
    println!("SoC scenario on a 3x3 clockless mesh\n");
    println!(
        "OCP requests:  {:>4} sent, {:>4} delivered to the memory controller",
        req.injected, req.delivered
    );
    println!(
        "OCP responses: {:>4} sent, {:>4} delivered back to the CPU",
        resp.injected, resp.delivered
    );
    println!(
        "request one-way latency: mean {} max {}",
        req.latency.mean().unwrap(),
        req.latency.max().unwrap()
    );
    println!(
        "response one-way latency: mean {} max {}",
        resp.latency.mean().unwrap(),
        resp.latency.max().unwrap()
    );
    println!(
        "\nDSP->video GS stream: {:.1} Mflit/s, mean latency {}, jitter {}",
        sim.flow_throughput_m(stream_flow),
        stream_stats.latency.mean().unwrap(),
        stream_stats.latency.jitter().unwrap()
    );

    println!("\nper-flow summary:\n{}", sim.flow_summary());
    assert_eq!(req.delivered, 128, "all OCP requests arrive");
    assert_eq!(resp.delivered, 128, "every request gets a response");
    assert_eq!(stream_stats.sequence_errors, 0);
    // The stream kept its rate despite the OCP chatter.
    let rate = sim.flow_throughput_m(stream_flow);
    assert!(
        (rate - 80.0).abs() < 2.0,
        "GS stream must hold 80 Mflit/s, got {rate:.1}"
    );
    println!("\nall checks passed");
}
