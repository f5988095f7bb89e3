//! A seeded mutation loop over the decoders of the records a job leaves in
//! storage: meta, dead-letter queue, lease and result (the record list is
//! in `gridwfs_serve::recover`'s module docs).  The inputs are valid
//! payloads built from the shipped grids, a paced grid, a grid whose
//! names need escaping, and labels with newlines, quotes and backslashes;
//! each one reads back to what was written.  Truncated, with bytes
//! flipped, or with a piece of another payload spliced in, every decoder
//! returns `Ok` or `Err` and never panics, and whatever it accepts
//! re-encodes to a payload that decodes back to the same value.

use std::path::Path;

use grid_wfs::DlqEntry;
use gridwfs_serve::recover::{self, Lease};
use gridwfs_serve::{
    DetectorSpec, ExecMode, GridSpec, JobId, JobState, LinkSpec, MemStorage, ProfileSpec,
    SchedulerSpec, Storage, Submission,
};
use gridwfs_sim::check::forall;
use gridwfs_sim::rng::Rng;

const LABELS: [&str; 5] = [
    "plain",
    "line\nbreak",
    "a \"quoted\" label",
    "back\\slash\\",
    "all\r\n\"\\\t of them",
];

const ID: JobId = JobId(7);

/// The three shipped grids, a paced grid, and one whose names need
/// escaping (a space, a tab, non-ASCII) with every optional field set.
fn grids() -> Vec<GridSpec> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workflows");
    let mut grids: Vec<GridSpec> = ["grid.example.json", "grid.flaky.json", "grid.lossy.json"]
        .iter()
        .map(|name| {
            let text = std::fs::read_to_string(dir.join(name)).unwrap();
            GridSpec::from_json(&text).unwrap().0
        })
        .collect();
    grids.push(GridSpec::paced_grid(0.05).with_host("local", 1.0));
    grids.push(
        GridSpec::virtual_grid()
            .with_host("h one", 1.5)
            .with_unreliable_host("tab\there", 0.75, 120.0, 3.5)
            .with_host("ünïcødé ✓", 1.0)
            .with_link_spec(LinkSpec {
                delay: 0.1,
                drop_p: 0.01,
                jitter: 0.2,
                dup_p: 0.02,
            })
            .with_host_link("h one", LinkSpec::constant(0.5, 0.25))
            .with_host_link("tab\there", LinkSpec::constant(0.0, 0.0))
            .with_detector(DetectorSpec::Timeout {
                tolerance: Some(2.5),
            })
            .with_scheduler(SchedulerSpec::Resilient)
            .with_profile(ProfileSpec {
                program: "z solver".into(),
                checkpoint_period: Some(8.0),
                soft_crash_mttf: Some(300.0),
                exception: Some(("out of \"memory\"".into(), 3, 0.25)),
            })
            .with_profile(ProfileSpec {
                program: "a\nmapper".into(),
                checkpoint_period: None,
                soft_crash_mttf: None,
                exception: None,
            }),
    );
    grids
}

/// `grid` as a decoder returns it: `host_links` and `profiles` come back
/// sorted by name (the simulator keeps both in maps keyed by name, so the
/// order never mattered).
fn sorted(mut grid: GridSpec) -> GridSpec {
    grid.host_links.sort_by(|a, b| a.0.cmp(&b.0));
    grid.profiles.sort_by(|a, b| a.program.cmp(&b.program));
    grid
}

/// The fields of a submission its meta record carries.
fn meta_fields(sub: &Submission) -> (String, u64, Option<f64>, GridSpec) {
    (sub.name.clone(), sub.seed, sub.deadline, sub.grid.clone())
}

fn dlq(label: &str) -> Vec<DlqEntry> {
    vec![
        DlqEntry {
            activity: "map".into(),
            index: 2,
            item: label.into(),
            attempts: 3,
            reason: "exception:transient".into(),
        },
        DlqEntry {
            activity: label.into(),
            index: 5,
            item: String::new(),
            attempts: 1,
            reason: "heartbeat-loss".into(),
        },
    ]
}

/// Which decoder a payload belongs to.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Meta,
    Dlq,
    Lease,
    Result,
}

/// Decodes `text` as a `kind` record through the service's own reader
/// and, if it is accepted, checks that its re-encoding decodes back to
/// the same value.  True when accepted.
fn decode_and_check(kind: Kind, text: &str) -> bool {
    let st = MemStorage::new();
    match kind {
        Kind::Meta => {
            st.put(&recover::workflow_name(ID), b"<Workflow name='w'/>")
                .unwrap();
            st.put(&recover::meta_name(ID), text.as_bytes()).unwrap();
            let Ok(sub) = recover::load_job(&st, ID) else {
                return false;
            };
            st.put(&recover::meta_name(ID), &recover::meta_payload(&sub))
                .unwrap();
            let again = recover::load_job(&st, ID).expect("re-encoded meta");
            assert_eq!(meta_fields(&again), meta_fields(&sub), "{text}");
        }
        Kind::Dlq => {
            let Ok(entries) = recover::parse_dlq(text) else {
                return false;
            };
            let again = recover::dlq_payload(&entries);
            let again = recover::parse_dlq(std::str::from_utf8(&again).unwrap());
            assert_eq!(again, Ok(entries), "{text}");
        }
        Kind::Lease => {
            let Ok(lease) = Lease::parse(text) else {
                return false;
            };
            let again = String::from_utf8(lease.payload()).unwrap();
            assert_eq!(Lease::parse(&again), Ok(lease), "{text}");
        }
        Kind::Result => {
            st.put(&recover::result_name(ID), text.as_bytes()).unwrap();
            let Ok(Some((state, detail))) = recover::read_result(&st, ID) else {
                return false;
            };
            recover::write_result(&st, ID, state, &detail).unwrap();
            assert_eq!(
                recover::read_result(&st, ID),
                Ok(Some((state, detail))),
                "{text}"
            );
        }
    }
    true
}

/// Every valid payload, checked to round-trip as it is built.
fn corpus() -> Vec<(Kind, String)> {
    let mut out = Vec::new();
    let st = MemStorage::new();
    for (i, grid) in grids().into_iter().enumerate() {
        let virtual_grid = GridSpec {
            mode: ExecMode::Virtual,
            ..grid.clone()
        };
        let (back, _) = GridSpec::from_json(&grid.to_json()).unwrap();
        assert_eq!(back, sorted(virtual_grid), "{}", grid.to_json());
        for (j, label) in LABELS.iter().enumerate() {
            let sub = Submission {
                name: label.to_string(),
                workflow_xml: "<Workflow name='w'/>".into(),
                grid: grid.clone(),
                seed: u64::MAX - (i * LABELS.len() + j) as u64,
                deadline: (j % 2 == 0).then_some(12.5 * j as f64),
            };
            recover::write_submission(&st, ID, &sub).unwrap();
            let back = recover::load_job(&st, ID).unwrap();
            let want = Submission {
                grid: sorted(sub.grid.clone()),
                ..sub.clone()
            };
            assert_eq!(meta_fields(&back), meta_fields(&want));
            let meta = st.read_to_string(&recover::meta_name(ID)).unwrap();
            out.push((Kind::Meta, meta));
        }
    }
    for label in LABELS {
        let entries = dlq(label);
        let payload = String::from_utf8(recover::dlq_payload(&entries)).unwrap();
        assert_eq!(recover::parse_dlq(&payload), Ok(entries));
        out.push((Kind::Dlq, payload));

        let lease = Lease {
            owner: label.into(),
            epoch: 31,
            expires_at: 1_760_000_000.25,
        };
        let payload = String::from_utf8(lease.payload()).unwrap();
        assert!(payload.starts_with(std::str::from_utf8(&Lease::fence_prefix(label, 31)).unwrap()));
        assert_eq!(Lease::parse(&payload), Ok(lease));
        out.push((Kind::Lease, payload));

        for state in [JobState::Done, JobState::Failed, JobState::Cancelled] {
            recover::write_result(&st, ID, state, label).unwrap();
            assert_eq!(
                recover::read_result(&st, ID),
                Ok(Some((state, label.to_string())))
            );
            let payload = st.read_to_string(&recover::result_name(ID)).unwrap();
            out.push((Kind::Result, payload));
        }
    }
    out.push((
        Kind::Dlq,
        String::from_utf8(recover::dlq_payload(&[])).unwrap(),
    ));
    out
}

/// Bytes a flip draws from: JSON syntax, digits, escapes and noise.
const POOL: &[u8] = b"{}[]\":,\\ \n-+.eE0159tnu\x01\xc3\xa9";

/// One seeded mutation of `payload`: truncate it, flip bytes, cut a
/// range, or splice in a piece of `donor`.
fn mutate(rng: &mut Rng, payload: &str, donor: &str) -> String {
    let mut bytes = payload.as_bytes().to_vec();
    match rng.index(4) {
        0 => bytes.truncate(rng.index(bytes.len())),
        1 => {
            for _ in 0..1 + rng.index(4) {
                let at = rng.index(bytes.len());
                bytes[at] = POOL[rng.index(POOL.len())];
            }
        }
        2 => {
            let at = rng.index(bytes.len());
            let len = rng.index(bytes.len() - at).min(32);
            bytes.drain(at..at + len);
        }
        _ => {
            let donor = donor.as_bytes();
            let from = rng.index(donor.len());
            let len = rng.index(donor.len() - from).min(48);
            let at = rng.index(bytes.len());
            let cut = rng.index(bytes.len() - at).min(48);
            bytes.splice(at..at + cut, donor[from..from + len].iter().copied());
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn record_decoders_round_trip_and_never_panic() {
    let corpus = corpus();
    // Per label: five metas, a DLQ, a lease and three results; plus an
    // empty DLQ.
    assert_eq!(corpus.len(), LABELS.len() * 10 + 1);
    for (kind, payload) in &corpus {
        assert!(decode_and_check(*kind, payload), "{kind:?}: {payload}");
    }
    let mut accepted = 0;
    forall(4000, &[], |rng| {
        let (kind, payload) = &corpus[rng.index(corpus.len())];
        let donor = &corpus[rng.index(corpus.len())].1;
        if decode_and_check(*kind, &mutate(rng, payload, donor)) {
            accepted += 1;
        }
    });
    // Both outcomes occur: the loop exercises acceptance and rejection.
    assert!(
        (100..3000).contains(&accepted),
        "{accepted} of 4000 accepted"
    );
}
