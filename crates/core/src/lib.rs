//! XQuery join graph isolation — the paper's contribution.
//!
//! * [`properties`] — plan property inference (icols / const / set,
//!   Tables II–V; the goals `key` serves are met in [`sfw`]),
//! * [`rewrite`] — the house-cleaning and ϱ-goal rewrite rules of Fig. 5,
//! * [`sfw`] — join graph / plan tail extraction into a single
//!   `SELECT DISTINCT-FROM-WHERE-ORDER BY` block (the δ⃝ / ⋈⃝ goals) and the
//!   reconstruction of the isolated algebra plan (Fig. 7),
//! * [`processor`] — the end-to-end [`Processor`] tying the XQuery front end,
//!   the compiler, the isolation pass and the relational engine together.
//!
//! ```no_run
//! use xqjg_core::{Mode, Processor};
//!
//! let mut p = Processor::new();
//! p.load_document("auction.xml", "<site>...</site>").unwrap();
//! p.create_default_indexes();
//! let out = p
//!     .execute("doc(\"auction.xml\")/descendant::open_auction[bidder]", Mode::JoinGraph)
//!     .unwrap();
//! println!("{} nodes in {:?}", out.items.len(), out.elapsed);
//! ```

pub mod processor;
pub mod properties;
pub mod rewrite;
pub mod sfw;

pub use processor::{
    decompose_sequences, Mode, Outcome, Prepared, PreparedBranch, Processor, QueryCaches,
    QueryError,
};
pub use properties::Properties;
pub use rewrite::{simplify, RewriteReport};
pub use sfw::{isolate_sfw, isolated_plan, result_items_from_sql, IsolateError, Isolated};
