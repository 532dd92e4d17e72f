//! Flat, elaborated designs.
//!
//! A [`Design`] is what static elaboration (§5: "the language once type
//! checking has been performed, all modules have been instantiated, and all
//! meta-linguistic features have been eliminated") produces: a flat set of
//! primitive state elements plus rules and interface methods whose method
//! calls target primitives directly.

use crate::ast::{ActMethodDef, Path, PrimId, RuleDef, ValMethodDef};
use crate::prim::PrimSpec;
use serde::{Deserialize, Serialize};

/// A primitive instance in an elaborated design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrimDef {
    /// Full hierarchical path of the instance (e.g. `backend.ifft.buff0`).
    pub path: Path,
    /// The primitive's static description.
    pub spec: PrimSpec,
}

/// An elaborated design: the unit of scheduling, partitioning and execution.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Design {
    /// Human-readable name (root module name by default).
    pub name: String,
    /// All primitive state elements; [`PrimId`]s index into this vector.
    pub prims: Vec<PrimDef>,
    /// All rules, with hierarchical names.
    pub rules: Vec<RuleDef>,
    /// Root-interface action methods (targets resolved to primitives).
    pub act_methods: Vec<ActMethodDef>,
    /// Root-interface value methods.
    pub val_methods: Vec<ValMethodDef>,
}

impl Design {
    /// Looks up a primitive by hierarchical path.
    pub fn prim_id(&self, path: &str) -> Option<PrimId> {
        self.prims
            .iter()
            .position(|p| p.path.as_str() == path)
            .map(PrimId)
    }

    /// The primitive definition for an id.
    ///
    /// # Panics
    ///
    /// Panics if the id is not from this design.
    pub fn prim(&self, id: PrimId) -> &PrimDef {
        &self.prims[id.0]
    }

    /// Iterates over `(id, def)` pairs.
    pub fn prims_iter(&self) -> impl Iterator<Item = (PrimId, &PrimDef)> {
        self.prims.iter().enumerate().map(|(i, p)| (PrimId(i), p))
    }

    /// All test-bench sources.
    pub fn sources(&self) -> Vec<PrimId> {
        self.prims_iter()
            .filter(|(_, p)| matches!(p.spec, PrimSpec::Source { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// All test-bench sinks.
    pub fn sinks(&self) -> Vec<PrimId> {
        self.prims_iter()
            .filter(|(_, p)| matches!(p.spec, PrimSpec::Sink { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// All synchronizer primitives (the HW/SW cut points).
    pub fn syncs(&self) -> Vec<PrimId> {
        self.prims_iter()
            .filter(|(_, p)| p.spec.is_sync())
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;
    use crate::value::Value;

    fn sample() -> Design {
        Design {
            name: "t".into(),
            prims: vec![
                PrimDef {
                    path: Path::new("a.r"),
                    spec: PrimSpec::Reg {
                        init: Value::int(8, 0),
                    },
                },
                PrimDef {
                    path: Path::new("a.q"),
                    spec: PrimSpec::Fifo {
                        depth: 2,
                        ty: Type::Int(8),
                    },
                },
                PrimDef {
                    path: Path::new("in"),
                    spec: PrimSpec::Source {
                        ty: Type::Int(8),
                        domain: "SW".into(),
                    },
                },
                PrimDef {
                    path: Path::new("out"),
                    spec: PrimSpec::Sink {
                        ty: Type::Int(8),
                        domain: "SW".into(),
                    },
                },
                PrimDef {
                    path: Path::new("x"),
                    spec: PrimSpec::Sync {
                        depth: 2,
                        ty: Type::Int(8),
                        from: "SW".into(),
                        to: "HW".into(),
                    },
                },
            ],
            rules: vec![],
            act_methods: vec![],
            val_methods: vec![],
        }
    }

    #[test]
    fn lookup_by_path() {
        let d = sample();
        assert_eq!(d.prim_id("a.q"), Some(PrimId(1)));
        assert_eq!(d.prim_id("nope"), None);
        assert_eq!(d.prim(PrimId(0)).path.as_str(), "a.r");
    }

    #[test]
    fn classification() {
        let d = sample();
        assert_eq!(d.sources(), vec![PrimId(2)]);
        assert_eq!(d.sinks(), vec![PrimId(3)]);
        assert_eq!(d.syncs(), vec![PrimId(4)]);
    }
}
