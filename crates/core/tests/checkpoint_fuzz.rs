//! A seeded mutation loop over the checkpoint decoder.  The inputs are real
//! documents — every checkpoint the engine hands its sink while running
//! the shipped workflows on failing hosts — truncated, with bytes flipped
//! or cut out, or with the `edges` attribute or a node status spliced.
//! Whatever the bytes, the decoder returns `Ok` or `Err` and never panics,
//! and every document it accepts re-encodes to a document that decodes
//! back to itself.

use std::path::Path;
use std::sync::{Arc, Mutex};

use grid_wfs::checkpoint;
use grid_wfs::engine::{CheckpointSink, Engine};
use grid_wfs::sim_executor::{SimGrid, TaskProfile};
use gridwfs_sim::check::{self, forall};
use gridwfs_sim::dist::Dist;
use gridwfs_sim::resource::ResourceSpec;
use gridwfs_sim::rng::Rng;
use gridwfs_wpdl::parse;
use gridwfs_wpdl::validate::validate;

/// Every checkpoint of every shipped workflow run on a grid of its own
/// hosts, each one crash-prone, at four seeds.
fn corpus() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workflows");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("workflows/ is readable")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "xml"))
        .collect();
    paths.sort();
    let docs = Arc::new(Mutex::new(Vec::new()));
    for path in paths {
        let w = parse::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        for seed in 1..=4 {
            let mut grid = SimGrid::new(seed);
            for p in &w.programs {
                for o in &p.options {
                    if !grid.has_host(&o.hostname) {
                        grid.add_host(ResourceSpec::unreliable(o.hostname.clone(), 40.0, 2.0));
                    }
                }
                let ttf = Dist::exponential_mean(3.0 * p.nominal_duration);
                grid.set_profile(p.name.clone(), TaskProfile::reliable().with_soft_crash(ttf));
            }
            let into = Arc::clone(&docs);
            let sink = CheckpointSink::new(move |xml| {
                into.lock().unwrap().push(xml);
                Ok(())
            });
            let validated = validate(w.clone()).unwrap();
            Engine::new(validated, grid)
                .with_checkpoint_sink(sink)
                .run();
        }
    }
    let docs = docs.lock().unwrap().clone();
    docs
}

/// Bytes a flip draws from: markup, the edge alphabet, digits and noise.
const POOL: &[u8] = b"<>/='\"&; \npfdx019-:\xc3\xa9";

/// One seeded mutation of `doc`.
fn mutate(rng: &mut Rng, doc: &str) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    match rng.index(5) {
        0 => bytes.truncate(rng.index(bytes.len())),
        1 => {
            for _ in 0..1 + rng.index(4) {
                let at = rng.index(bytes.len());
                bytes[at] = POOL[rng.index(POOL.len())];
            }
        }
        2 => {
            // Splice the edge states: a random string of about the right
            // length, or no attribute at all (the legacy form).
            let Some(from) = doc.find("edges='") else {
                return doc.to_string();
            };
            let to = from + 7 + doc[from + 7..].find('\'').unwrap();
            let len = (to - from - 7 + rng.index(3)).saturating_sub(1);
            let splice = match rng.index(4) {
                0 => String::new(),
                _ => format!("edges='{}'", check::string(rng, len..len + 1, "pfdpfdz")),
            };
            return format!("{}{splice}{}", &doc[..from], &doc[to + 1..]);
        }
        3 => {
            // Unsettle or settle a node behind its edges' back.
            let (from, to) = [
                ("status='done'", "status='pending'"),
                ("status='pending'", "status='done'"),
                ("status='failed'", "status='skipped'"),
            ][rng.index(3)];
            return doc.replacen(from, to, 1);
        }
        _ => {
            let at = rng.index(bytes.len());
            let len = rng.index(bytes.len() - at).min(64);
            bytes.drain(at..at + len);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn the_decoder_never_panics_and_what_it_accepts_is_a_fixpoint() {
    let docs = corpus();
    assert!(docs.len() >= 80, "only {} documents", docs.len());
    for doc in &docs {
        assert_eq!(
            &checkpoint::to_xml(&checkpoint::from_xml(doc).unwrap()),
            doc
        );
    }
    let mut accepted = 0;
    forall(4000, &[], |rng| {
        let original = &docs[rng.index(docs.len())];
        let doc = mutate(rng, original);
        if let Ok(inst) = checkpoint::from_xml(&doc) {
            accepted += 1;
            let again = checkpoint::to_xml(&inst);
            let back = checkpoint::from_xml(&again)
                .unwrap_or_else(|e| panic!("re-encoded document rejected: {e}\n{again}"));
            assert_eq!(checkpoint::to_xml(&back), again, "not a fixpoint:\n{doc}");
        }
    });
    // Both outcomes occur: the loop exercises acceptance and rejection.
    assert!(
        (100..4000).contains(&accepted),
        "{accepted} of 4000 accepted"
    );
}
