//! Query shapes beyond the plain box — the scenario-diversity layer.
//!
//! The paper evaluates rectangular range queries only; real monitoring
//! scenarios also ask for the k vertices nearest an electrode
//! ([`QueryShape::KNearest`]), for vertices inside a clipped polytope
//! such as the earthquake example ([`QueryShape::Convex`]), and for
//! summaries where the caller never needs the ids at all
//! ([`QueryShape::Aggregate`]). All of them execute on the same
//! probe → walk → crawl machinery through
//! [`crate::Octopus::query_shape`], which is also how the service
//! layer's monitor answers them.

use octopus_geom::{Aabb, ConvexRegion, Point3, VertexId};

/// A query shape the executor can answer.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryShape {
    /// The paper's rectangular range query.
    Box(Aabb),
    /// A bounded convex region (box ∩ half-spaces).
    Convex(ConvexRegion),
    /// The `k` active vertices nearest `point` (Euclidean distance,
    /// ties broken by ascending vertex id).
    KNearest {
        /// Number of neighbours requested.
        k: usize,
        /// Query point.
        point: Point3,
    },
    /// A summary over the vertices inside `region`, computed without
    /// materialising the result set.
    Aggregate {
        /// The range to aggregate over.
        region: Aabb,
        /// Which summary to compute.
        kind: AggregateKind,
    },
}

/// Which summary an aggregate query computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregateKind {
    /// Number of vertices inside the region.
    Count,
    /// Count plus the mean position of the vertices inside the region.
    Centroid,
}

/// The answer to an aggregate query.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AggregateValue {
    /// Number of vertices inside the region.
    pub count: usize,
    /// Mean position of those vertices; `None` for
    /// [`AggregateKind::Count`] or an empty result.
    pub centroid: Option<Point3>,
}

/// The answer to a [`QueryShape`] — heterogeneous because aggregate
/// shapes skip result materialisation entirely.
#[derive(Clone, Debug, PartialEq)]
pub enum ShapeResult {
    /// Matching vertex ids. Box/convex shapes: crawl discovery order
    /// (sort for set comparison); k-nearest: ascending by
    /// (distance, id).
    Vertices(Vec<VertexId>),
    /// The summary of an aggregate shape (no ids were materialised).
    Aggregate(AggregateValue),
}

impl ShapeResult {
    /// The materialised ids, or `None` for aggregates.
    pub fn vertices(&self) -> Option<&[VertexId]> {
        match self {
            ShapeResult::Vertices(v) => Some(v),
            ShapeResult::Aggregate(_) => None,
        }
    }

    /// The result cardinality (aggregates report their count).
    pub fn len(&self) -> usize {
        match self {
            ShapeResult::Vertices(v) => v.len(),
            ShapeResult::Aggregate(a) => a.count,
        }
    }

    /// True when no vertex matched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
