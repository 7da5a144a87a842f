//! Print the answers and EXPLAIN actuals of Table VIII's Q1–Q6 over one
//! catalog holding both documents, once cold (fresh caches) and once warm,
//! plus the byte length and a hash of each answer's serialized XML.  Two
//! builds that must agree — before and after an executor or serializer
//! change — are compared by diffing this output byte for byte.
//!
//! ```text
//! cargo run --release --example answers -- [xmark_scale] [dblp_scale]
//! ```
//!
//! Defaults: scales 0.1 / 0.1.  The documents are generated
//! from fixed seeds, so equal arguments give equal documents.

use std::hash::{DefaultHasher, Hash, Hasher};

use xqjg::data::{generate_dblp_encoded, generate_xmark_encoded, DblpConfig, XmarkConfig};
use xqjg::{Mode, Processor};

const QUERIES: [&str; 6] = [
    r#"doc("auction.xml")/descendant::open_auction[bidder]"#,
    r#"let $a := doc("auction.xml") for $ca in $a//closed_auction[price > 500], $i in $a//item, $c in $a//category where $ca/itemref/@item = $i/@id and $i/incategory/@category = $c/@id return $c/name"#,
    r#"/site/people/person[@id = "person0"]/name/text()"#,
    "//closed_auction/price/text()",
    r#"doc("dblp.xml")/dblp/*[@key = "conf/vldb2001" and editor and title]/title"#,
    r#"for $thesis in doc("dblp.xml")/dblp/phdthesis[year < "1994" and author and title] return ($thesis/title, $thesis/author, $thesis/year)"#,
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize, default: &str| args.get(i).cloned().unwrap_or(default.to_string());
    let xmark_scale: f64 = arg(0, "0.1").parse()?;
    let dblp_scale: f64 = arg(1, "0.1").parse()?;

    let mut p = Processor::new();
    let xmark = XmarkConfig {
        scale: xmark_scale,
        seed: 2,
    };
    let dblp = DblpConfig {
        scale: dblp_scale,
        seed: 3,
    };
    p.load_encoded("auction.xml", generate_xmark_encoded("auction.xml", &xmark));
    p.load_encoded("dblp.xml", generate_dblp_encoded("dblp.xml", &dblp));
    p.create_default_indexes();
    println!(
        "# xmark {xmark_scale} dblp {dblp_scale}: {} doc rows",
        p.doc().len()
    );

    for pass in ["cold", "warm"] {
        for (q, text) in QUERIES.iter().enumerate() {
            let out = p.execute(text, Mode::JoinGraph)?;
            let items: Vec<String> = out.items.iter().map(|pre| pre.0.to_string()).collect();
            println!(
                "Q{} {pass} items={}: {}",
                q + 1,
                items.len(),
                items.join(" ")
            );
            let xml = p.serialize(&out.items);
            let mut hasher = DefaultHasher::new();
            xml.hash(&mut hasher);
            println!(
                "Q{} {pass} xml bytes={} hash={:016x}",
                q + 1,
                xml.len(),
                hasher.finish()
            );
            for block in out.explain() {
                println!("{block}");
            }
        }
    }
    Ok(())
}
