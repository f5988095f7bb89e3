//! The detection study, pinned: a reduced `detect` sweep — every lossy
//! cell of the default grid, both policies, 200 runs a cell — must
//! reproduce its false-suspicion rate, detection latency and completion
//! time bit for bit.  The sweep drives the heartbeat monitors directly,
//! so no engine journal covers it; a change to the detectors' arithmetic
//! (the φ window statistics, the presumption margin) shows here.

use gridwfs_eval::detect_sweep::{
    evaluate, DetectParams, DetectorKind, LinkParams, DROP_GRID, JITTER_GRID,
};

const RUNS: usize = 200;

const POLICIES: [DetectorKind; 2] = [
    DetectorKind::FixedTimeout { tolerance: 3.0 },
    DetectorKind::Phi { threshold: 8.0 },
];

/// `(false_suspicion_rate, mean_detection_latency, mean_completion_time)`
/// as `f64::to_bits`, per policy, then per lossy cell in jitter-major
/// order (drop 0.1, 0.2, 0.3 at jitter 0, 0.5, 1).
const PINNED: [[(u64, u64, u64); 9]; 2] = [
    [
        (0x3fbc28f5c28f5c29, 0x4007878f84e863c6, 0x403e7f1a9fbe76ca),
        (0x3fe147ae147ae148, 0x4006b697bfd8854f, 0x40411ef9db22d0ea),
        (0x3fecf5c28f5c28f6, 0x40045bd7e270f4f3, 0x40456c9374bc6a83),
        (0x3fd947ae147ae148, 0x4009a0cec9818186, 0x40407c8e4041ec28),
        (0x3fec000000000000, 0x400848c656520437, 0x40458ba27135a7ae),
        (0x3ff0000000000000, 0x4006f615de4c19cf, 0x4050580e54a56f14),
        (0x3fdd70a3d70a3d71, 0x400b0b17e3ae5a57, 0x40409a912d45d0f6),
        (0x3fed99999999999a, 0x400a12eb516b7891, 0x404553fb4bf2c90c),
        (0x3ff0000000000000, 0x400827aec78c7604, 0x4050a85bd03b0264),
    ],
    [
        (0x3fe2e147ae147ae1, 0x400763872751abb9, 0x404121903611c647),
        (0x3fd70a3d70a3d70a, 0x400f6a1dff76be71, 0x403fe3ea37cd5181),
        (0x3fd3851eb851eb85, 0x40147db787efe417, 0x40400ae6c0d38c60),
        (0x3fd6147ae147ae14, 0x400baaba58e8a3c9, 0x403fd219eaa35557),
        (0x3fd1eb851eb851ec, 0x4011d463dbdbbad9, 0x403f6a18dcf5fd92),
        (0x3fc851eb851eb852, 0x4016218cd067c683, 0x403eea57aaed1a05),
        (0x3fb999999999999a, 0x40121fa7b2384885, 0x403eafc454c21481),
        (0x3fc28f5c28f5c28f, 0x40153006830c9d32, 0x403e3c132705771f),
        (0x3fbc28f5c28f5c29, 0x4018f54ca2d39324, 0x403ed066b2dbd523),
    ],
];

#[test]
fn the_lossy_cells_of_the_detection_sweep_are_pinned() {
    let p = DetectParams::default();
    let mut got = Vec::new();
    for kind in POLICIES {
        let mut row = Vec::new();
        for &jitter in &JITTER_GRID {
            for &drop_p in DROP_GRID.iter().filter(|&&d| d > 0.0) {
                let link = LinkParams { drop_p, jitter };
                // The seed the `detect` binary uses for this cell.
                let seed = 0xDE7EC7 ^ ((jitter * 64.0) as u64) << 8 ^ ((drop_p * 64.0) as u64);
                let point = evaluate(kind, link, &p, RUNS, seed);
                row.push((
                    point.false_suspicion_rate.to_bits(),
                    point.mean_detection_latency.to_bits(),
                    point.mean_completion_time.to_bits(),
                ));
            }
        }
        got.push(row);
    }
    let table: String = got
        .iter()
        .map(|row| {
            let cells: String = row
                .iter()
                .map(|(f, l, c)| format!("        ({f:#018x}, {l:#018x}, {c:#018x}),\n"))
                .collect();
            format!("    [\n{cells}    ],\n")
        })
        .collect();
    assert!(
        got.iter().zip(&PINNED).all(|(g, p)| g[..] == p[..]),
        "detection sweep moved; the table it now reads:\n[\n{table}]"
    );
}
