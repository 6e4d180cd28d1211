//! Criterion microbenchmarks of the link arbiters — the paper's point
//! that simple circuits implement GS (Sec. 2: "the circuits needed to
//! implement GS also turn out to be simpler than those needed for BE")
//! shows up as arbiter decision cost.

use criterion::{criterion_group, criterion_main, Criterion};
use mango::core::{ArbiterImpl, ArbiterKind};
use std::hint::black_box;

/// Ready bitmasks on a 7-VC link (bit 7 is BE): one requester, three,
/// and all eight.
const READY_MASKS: [u128; 3] = [1 << 3, 1 | 1 << 6 | 1 << 7, 0xff];

fn bench_arbiters(c: &mut Criterion) {
    let mut group = c.benchmark_group("arbiter_select");
    for kind in [
        ArbiterKind::FairShare,
        ArbiterKind::StaticPriority,
        ArbiterKind::Alg { age_bound: 7 },
    ] {
        let mut arb = ArbiterImpl::new(kind, 7);
        group.bench_function(arb.name(), |b| {
            let mut i = 0;
            b.iter(|| {
                let ready = READY_MASKS[i % READY_MASKS.len()];
                i += 1;
                black_box(arb.select_mask(black_box(ready), 7))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_arbiters);
criterion_main!(benches);
