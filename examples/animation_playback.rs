//! Volumetric animation playback (§VIII-A): per-frame deformation of the
//! three Fig. 14 bodies, querying a moving "camera" volume each frame —
//! with the surface-approximation optimisation (§IV-H2) as the
//! visualization monitors would use it.
//!
//! ```text
//! cargo run --release --example animation_playback
//! ```

use octopus::core::approx::result_accuracy;
use octopus::meshgen::AnimationKind;
use octopus::prelude::*;
use octopus::sim::{AxialCompression, LocalizedBumps, TravelingWave};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for kind in AnimationKind::ALL {
        let mesh = octopus::meshgen::animation(kind, 0.6)?;
        let stats = MeshStats::compute(&mesh)?;
        println!(
            "\n=== {} ({} frames) — {stats}",
            kind.label(),
            kind.time_steps()
        );

        let field: Box<dyn Deformation> = match kind {
            AnimationKind::HorseGallop => Box::new(TravelingWave::new(0.04, 0.8, 12.0)),
            AnimationKind::FacialExpression => {
                Box::new(LocalizedBumps::random(mesh.positions(), 6, 0.12, 0.03, 7))
            }
            AnimationKind::CamelCompress => Box::new(AxialCompression::new(0.15, 16.0, 0)),
        };

        let exact = Octopus::new(&mesh)?;
        let mut scratch = exact.make_scratch(&mesh);
        // Visualization tolerates approximation: probe only 5 % of the
        // surface.
        let mut approx = ApproxOctopus::new(&mesh, 0.05, 11)?;
        let bounds = mesh.bounding_box();
        let mut sim = Simulation::new(mesh, field);

        let frames = kind.time_steps().min(12);
        let mut total_accuracy = 0.0;
        for frame in 0..frames {
            sim.step()?;
            let mesh = sim.mesh();
            // Camera pans across the body over the sequence.
            let t = frame as f32 / frames as f32;
            let cam = Point3::new(
                bounds.min.x + (0.2 + 0.6 * t) * (bounds.max.x - bounds.min.x),
                bounds.center().y,
                bounds.center().z,
            );
            let view = Aabb::cube(cam, 0.18 * (bounds.max.x - bounds.min.x));

            let (mut full, mut fast) = (Vec::new(), Vec::new());
            let s_exact = exact.query_with(&mut scratch, mesh, &view, Probe::Surface, &mut full);
            let s_fast = approx.query(mesh, &view, &mut fast);
            full.sort_unstable();
            let acc = result_accuracy(&fast, &full);
            total_accuracy += acc;
            println!(
                "  frame {frame:>2}: view holds {:>6} vertices | approx {:>6} \
                 ({:>5.1}% accurate) | probe {:?} vs {:?}",
                s_exact.results,
                s_fast.results,
                acc * 100.0,
                s_exact.surface_probe,
                s_fast.surface_probe,
            );
        }
        println!(
            "  mean accuracy with a 5% surface sample: {:.1}%",
            total_accuracy / frames as f64 * 100.0
        );
    }
    Ok(())
}
