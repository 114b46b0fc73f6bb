//! # hydro
//!
//! Facade crate for the reproduction of *"New Directions in Cloud
//! Programming"* (CIDR 2021) — the Hydro/PACT stack.
//!
//! The stack decomposes cloud programs into four facets (**P**rogram
//! semantics, **A**vailability, **C**onsistency, **T**argets of
//! optimization) expressed over a declarative IR (HydroLogic), compiled by
//! Hydrolysis onto the Hydroflow single-node dataflow runtime, and deployed
//! over a simulated cluster. The layer map below is the system inventory;
//! each crate's module docs carry its design, `CHANGES.md` the history of
//! what each PR built and measured (experiments E1–E20 run from
//! `hydro-bench`'s `report` binary), and `benchmark/README.md` the
//! text-to-reply benchmark.
//!
//! ## Layer map
//!
//! | module | crate | paper section |
//! |---|---|---|
//! | [`lattice`] | `hydro-lattice` | §1.2, §2.3, §8 |
//! | [`flow`] | `hydro-flow` | §2.3, §8 |
//! | [`logic`] | `hydro-core` | §3, §5–§7, §9 |
//! | [`lang`] | `hydro-lang` | §3 (the Fig. 3 textual syntax) |
//! | [`analysis`] | `hydro-analysis` | §7, §8.2 |
//! | [`compiler`] | `hydrolysis` | §2.2, §5.1, §9.1 |
//! | [`net`] | `hydro-net` | §6 substrate |
//! | [`deploy`] | `hydro-deploy` | §6, §7 |
//! | [`lift`] | `hydro-lift` | §4, Appendix A |
//! | [`kvs`] | `hydro-kvs` | §1.2 (Anna) |
//! | [`collab`] | `hydro-collab` | §1.2, §7.1 (collaborative editing) |
//!
//! ## Quickstart
//!
//! ```
//! use hydro::logic::examples::covid_program;
//! use hydro::logic::interp::Transducer;
//! use hydro::logic::value::Value;
//!
//! let mut app = Transducer::new(covid_program()).unwrap();
//! app.enqueue("add_person", vec![Value::from(1i64)]);
//! app.enqueue("add_person", vec![Value::from(2i64)]);
//! app.tick().unwrap();
//! app.enqueue("add_contact", vec![Value::from(1i64), Value::from(2i64)]);
//! app.tick().unwrap();
//! app.enqueue("diagnosed", vec![Value::from(1i64)]);
//! let out = app.tick().unwrap();
//! // Person 2 is transitively in contact with person 1, so an alert is sent.
//! assert!(out.sends.iter().any(|s| s.mailbox == "alert"));
//! ```

pub use hydro_analysis as analysis;
pub use hydro_core as logic;
pub use hydro_deploy as deploy;
pub use hydro_lang as lang;
pub use hydro_flow as flow;
pub use hydro_collab as collab;
pub use hydro_kvs as kvs;
pub use hydro_lattice as lattice;
pub use hydro_net as net;
pub use hydrolysis as compiler;

pub use hydro_lift as lift;
