//! Fig. 6 — t-SNE of HAP graph-level representations with 1 / 2 / 3
//! graph coarsening modules on the PROTEINS-like and COLLAB-like
//! datasets.
//!
//! ```text
//! cargo run --release -p hap-bench --bin fig6_tsne_depth [--quick|--full]
//! ```
//!
//! Expected shape (Sec. 6.5.2's visual argument): separation improves
//! from one to two modules and stops improving (or degrades) at three.

use hap_autograd::ParamStore;
use hap_bench::{parse_args, train_config, RunScale};
use hap_core::{HapClassifier, HapConfig, HapModel};
use hap_pooling::PoolCtx;
use hap_rand::Rng;
use hap_tensor::Tensor;
use hap_train::train;
use hap_viz::{ascii_scatter, silhouette_score, tsne, write_csv, TsneConfig};
use std::path::PathBuf;

fn main() {
    let (scale, seed) = parse_args();
    let (nc, hidden, epochs) = match scale {
        RunScale::Quick => (160, 16, 45),
        RunScale::Full => (400, 32, 30),
    };
    let mut rng = Rng::from_seed(seed);
    let datasets = vec![
        hap_data::proteins(nc, 0.35, &mut rng),
        hap_data::collab(nc, 0.2, &mut rng),
    ];
    let depths: [(&str, &[usize]); 3] = [
        ("Coarsen=1", &[8]),
        ("Coarsen=2", &[8, 4]),
        ("Coarsen=3", &[8, 4, 2]),
    ];
    let out_dir = PathBuf::from("target/fig6");
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    for ds in &datasets {
        for (label, clusters) in depths {
            let mut rng = Rng::from_seed(seed);
            let mut store = ParamStore::new();
            let cfg = HapConfig::new(ds.feature_dim, hidden).with_clusters(clusters);
            let model = HapModel::new(&mut store, &cfg, &mut rng);
            let clf = HapClassifier::new(&mut store, model, ds.num_classes, &mut rng);
            let (train_idx, val_idx, test_idx) = hap_data::split_811(ds.samples.len(), &mut rng);
            let tcfg = train_config(epochs, 0.003, seed);
            let report = train(
                &store,
                &tcfg,
                &train_idx,
                &val_idx,
                &test_idx,
                &mut |tape, i, ctx| {
                    let s = &ds.samples[i];
                    clf.loss(tape, &s.graph, &s.features, s.label, ctx)
                },
                &mut |i, ctx| {
                    let s = &ds.samples[i];
                    clf.predict(&s.graph, &s.features, ctx) == s.label
                },
            );

            let mut eval_rng = Rng::from_seed(seed ^ 0xe4a1);
            let rows: Vec<Vec<f64>> = ds
                .samples
                .iter()
                .map(|s| {
                    let mut ctx = PoolCtx {
                        training: false,
                        rng: &mut eval_rng,
                    };
                    clf.embedding(&s.graph, &s.features, &mut ctx)
                        .as_slice()
                        .to_vec()
                })
                .collect();
            let labels: Vec<usize> = ds.samples.iter().map(|s| s.label).collect();
            let data = Tensor::from_rows(&rows);
            let mut trng = Rng::from_seed(seed ^ 0x75e1);
            let coords = tsne(&data, &TsneConfig::default(), &mut trng);

            let sil = silhouette_score(&coords, &labels);
            println!(
                "\nFig. 6 — {} / {} (test acc {:.1}%, silhouette {:.3})  [glyphs = classes]",
                ds.name,
                label,
                report.test_metric * 100.0,
                sil
            );
            print!("{}", ascii_scatter(&coords, &labels, 60, 18));
            let csv = out_dir.join(format!("{}_{}.csv", ds.name, label));
            write_csv(&coords, &labels, &csv).expect("write csv");
            eprintln!("  wrote {}", csv.display());
        }
    }
}
