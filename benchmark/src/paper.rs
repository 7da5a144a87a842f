//! Table IX's comparison, kept in view on `adhoc_small`: the same six
//! queries through the stacked plan and the two pureXML set-ups, timed the
//! way `crates/bench` times them (execution only, compilation excluded).

use std::time::Instant;

use xqjg_core::{Mode, Processor};
use xqjg_purexml::{PureXmlStore, Storage};
use xqjg_store::ExecConfig;
use xqjg_xquery::parse_and_normalize;

use crate::setup::{Data, DBLP_URI, XMARK_URI};
use crate::spec::{Q2, QUERIES};
use crate::stats::{geomean, median};

const REPETITIONS: usize = 5;

/// Per-cycle times in ms (sum over the queries that finish), median over
/// the repetitions.
pub struct Fidelity {
    pub stacked_eval_ms: f64,
    pub purexml_whole_ms: f64,
    pub purexml_segmented_ms: f64,
    /// Geometric mean over Q1–Q6 of stacked ÷ join-graph execution time.
    pub isolation_speedup_geomean: f64,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

pub fn measure(p: &mut Processor, data: &Data, cfg: &ExecConfig) -> Result<Fidelity, String> {
    let n = QUERIES.len();
    let prepared = QUERIES
        .iter()
        .map(|text| p.prepare(text).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    // Q1–Q4 run on the auction document (segments at depth 3), Q5–Q6 on
    // the bibliography (depth 2), as in Table IX.
    let docs = [(&data.xmark, XMARK_URI, 3), (&data.dblp, DBLP_URI, 2)];
    let cores = QUERIES
        .iter()
        .enumerate()
        .map(|(q, text)| parse_and_normalize(text, Some(docs[q / 4].1)).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let stores = |storage: fn(u32) -> Storage| {
        docs.map(|(doc, _, depth)| {
            let mut store = PureXmlStore::new(doc, storage(depth));
            // The XMLPATTERN index family of Section IV-B.
            for path in [
                ["person", "@id"],
                ["closed_auction", "price"],
                ["item", "@id"],
                ["category", "@id"],
                ["proceedings", "@key"],
                ["phdthesis", "year"],
            ] {
                store.create_pattern_index(&path);
            }
            store
        })
    };
    let whole = stores(|_| Storage::Whole);
    let segmented = stores(|depth| Storage::Segmented { depth });

    let mut stacked = vec![Vec::new(); n];
    let mut joined = vec![Vec::new(); n];
    let (mut whole_ms, mut segmented_ms) = (Vec::new(), Vec::new());
    for _ in 0..REPETITIONS {
        for (q, prep) in prepared.iter().enumerate() {
            for (mode, into) in [
                (Mode::Stacked, &mut stacked),
                (Mode::JoinGraph, &mut joined),
            ] {
                let out = p.execute_prepared(prep, mode).map_err(|e| e.to_string())?;
                into[q].push(out.elapsed.as_secs_f64() * 1e3);
            }
        }
        for (set, total, skip_q2) in [
            (&whole, &mut whole_ms, false),
            // Segments cannot join nodes of different segments: the paper
            // reports Q2 as did-not-finish there, and so is it left out.
            (&segmented, &mut segmented_ms, true),
        ] {
            let start = Instant::now();
            for (q, core) in cores.iter().enumerate() {
                if !(skip_q2 && q == Q2) {
                    std::hint::black_box(set[q / 4].query(core).config(cfg).run());
                }
            }
            total.push(ms(start));
        }
    }
    let per_query = |samples: &[Vec<f64>]| samples.iter().map(|s| median(s)).collect::<Vec<_>>();
    let (stacked, joined) = (per_query(&stacked), per_query(&joined));
    let ratios: Vec<f64> = stacked.iter().zip(&joined).map(|(s, j)| s / j).collect();
    Ok(Fidelity {
        stacked_eval_ms: stacked.iter().sum(),
        purexml_whole_ms: median(&whole_ms),
        purexml_segmented_ms: median(&segmented_ms),
        isolation_speedup_geomean: geomean(&ratios),
    })
}
