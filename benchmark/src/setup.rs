//! Inputs from the seed, the common set-up of every workload, and the
//! answer check.

use std::time::Instant;

use xqjg_core::{Mode, Processor};
use xqjg_data::{generate_dblp_encoded, generate_xmark_encoded, DblpConfig, XmarkConfig};
use xqjg_store::ExecConfig;
use xqjg_xml::{encode_document, serialize_nodes, DocTable, Pre};

use crate::spec::{INTERPRETER_Q2_ROW_LIMIT, Q2, QUERIES, TWIN_SCALE};

pub const XMARK_URI: &str = "auction.xml";
pub const DBLP_URI: &str = "dblp.xml";

/// The generated inputs of one run.
pub struct Data {
    pub xmark: DocTable,
    pub dblp: DocTable,
    /// Both documents as XML text (`serve_mix` loads from text).
    pub text: Option<[String; 2]>,
    pub generate_s: f64,
}

/// Both documents from `seed`; the same seed gives the same documents.
pub fn generate(xmark_scale: f64, dblp_scale: f64, seed: u64, with_text: bool) -> Data {
    let start = Instant::now();
    let xmark = generate_xmark_encoded(
        XMARK_URI,
        &XmarkConfig {
            scale: xmark_scale,
            seed: seed.wrapping_mul(2),
        },
    );
    let dblp = generate_dblp_encoded(
        DBLP_URI,
        &DblpConfig {
            scale: dblp_scale,
            seed: seed.wrapping_mul(2).wrapping_add(1),
        },
    );
    let generate_s = start.elapsed().as_secs_f64();
    // The text is the encoding's document root serialized back: what a user
    // would have on disk for `xqjg-serve --xml`.
    let text = with_text.then(|| [&xmark, &dblp].map(|doc| serialize_nodes(doc, &[Pre(0)])));
    Data {
        xmark,
        dblp,
        text,
        generate_s,
    }
}

/// Seconds spent in each part of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `xml::encode_document` (only split out of `load_s` in a traced run).
    pub encode_s: f64,
    /// `Processor::load_encoded`, or all of `load_document` when untraced.
    pub load_s: f64,
    /// `Processor::database`.
    pub catalog_s: f64,
    /// `Processor::create_default_indexes` on the built catalog.
    pub index_s: f64,
    /// `Engine::new` + `Server::start` (`serve_mix` only).
    pub serve_start_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.encode_s + self.load_s + self.catalog_s + self.index_s + self.serve_start_s
    }
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_secs_f64();
    out
}

/// One `Processor` holding both documents (`auction.xml` first), the
/// catalog and the default indexes, with its knobs pinned to `cfg`.
/// `split_encode` times the parser apart from the load, by the two public
/// calls `load_document` is made of.
pub fn build_processor(
    data: &Data,
    cfg: &ExecConfig,
    split_encode: bool,
) -> Result<(Processor, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut p = Processor::new();
    match &data.text {
        Some(text) => {
            for (uri, xml) in [XMARK_URI, DBLP_URI].into_iter().zip(text) {
                if split_encode {
                    let table = timed(&mut times.encode_s, || encode_document(uri, xml))
                        .map_err(|e| format!("cannot parse generated {uri}: {e}"))?;
                    timed(&mut times.load_s, || p.load_encoded(uri, table));
                } else {
                    timed(&mut times.load_s, || p.load_document(uri, xml))
                        .map_err(|e| format!("cannot load generated {uri}: {e}"))?;
                }
            }
        }
        None => {
            let (xmark, dblp) = (data.xmark.clone(), data.dblp.clone());
            timed(&mut times.load_s, || {
                p.load_encoded(XMARK_URI, xmark);
                p.load_encoded(DBLP_URI, dblp);
            });
        }
    }
    timed(&mut times.catalog_s, || {
        p.database();
    });
    timed(&mut times.index_s, || p.create_default_indexes());
    p.set_exec_config(Some(cfg.clone()));
    Ok((p, times))
}

/// The checked answer of each query on one processor.
pub struct Checked {
    pub items: Vec<Vec<Pre>>,
    pub xml: Vec<String>,
}

/// Run query `q` as a join graph and compare with the reference
/// interpreter (and the stacked plan, if asked) on the same documents.
fn check_query(
    p: &mut Processor,
    q: usize,
    interpreter: bool,
    stacked: bool,
) -> Result<(Vec<Pre>, String), String> {
    let text = QUERIES[q];
    let fail = |what: String| format!("Q{}: {what}", q + 1);
    let prepared = p.prepare(text).map_err(|e| fail(e.to_string()))?;
    let joined = p
        .execute_prepared(&prepared, Mode::JoinGraph)
        .map_err(|e| fail(e.to_string()))?;
    let xml = p.serialize(&joined.items);
    // A comma sequence under `return` runs as one SQL block per item, so
    // its nodes come back grouped by branch: equal as a multiset only.
    let ordered = prepared.branches.len() == 1;
    let others = [(Mode::Interpreter, interpreter), (Mode::Stacked, stacked)];
    for (mode, _) in others.into_iter().filter(|(_, wanted)| *wanted) {
        let other = p
            .execute_prepared(&prepared, mode)
            .map_err(|e| fail(format!("{mode:?}: {e}")))?;
        let same = if ordered {
            other.items == joined.items && p.serialize(&other.items) == xml
        } else {
            let (mut a, mut b) = (other.items.clone(), joined.items.clone());
            a.sort();
            b.sort();
            a == b
        };
        if !same {
            return Err(fail(format!(
                "join graph returned {} nodes, {mode:?} {}, and they differ",
                joined.items.len(),
                other.items.len()
            )));
        }
    }
    if joined.items.is_empty() {
        return Err(fail(
            "empty result: the workload would measure nothing".into(),
        ));
    }
    Ok((joined.items, xml))
}

/// Check every query's join-graph answer on `p`'s own documents.  Where
/// those are too large for the interpreter to finish Q2, Q2 is checked on a
/// twin at [`TWIN_SCALE`] from the same seed instead, against both the
/// interpreter and the stacked plan.
pub fn verify(p: &mut Processor, seed: u64, cfg: &ExecConfig) -> Result<Checked, String> {
    let small = p.doc().len() <= INTERPRETER_Q2_ROW_LIMIT;
    let mut checked = Checked {
        items: Vec::new(),
        xml: Vec::new(),
    };
    for q in 0..QUERIES.len() {
        let (items, xml) = check_query(p, q, small || q != Q2, small)?;
        checked.items.push(items);
        checked.xml.push(xml);
    }
    if !small {
        let twin_data = generate(TWIN_SCALE, TWIN_SCALE, seed, false);
        let (mut twin, _) = build_processor(&twin_data, cfg, false)?;
        check_query(&mut twin, Q2, true, true).map_err(|e| format!("twin: {e}"))?;
    }
    Ok(checked)
}
