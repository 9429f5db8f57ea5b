//! Dataset descriptors.
//!
//! The experiments touch datasets through exactly two properties: how many
//! samples one training pass covers (epoch accounting) and how many
//! gigabytes must be moved onto each instance (ingress pricing, Fig. 10 —
//! "Downloading ImageNet, a dataset of size 150 GB, from S3 … at $0.01 per
//! GB costs $1.50 … this cost multiplies in a distributed environment").

/// A training dataset's size and shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dataset {
    /// Name, e.g. `"CIFAR-10"`.
    pub name: &'static str,
    /// On-disk size in gigabytes (what each instance downloads once).
    pub size_gb: f64,
    /// Number of training samples (one epoch = one pass over these).
    pub train_samples: u64,
    /// Number of label classes (sets chance accuracy for classification).
    pub num_classes: u32,
}

impl Dataset {
    /// Accuracy of random guessing.
    pub fn chance_accuracy(&self) -> f64 {
        1.0 / f64::from(self.num_classes.max(1))
    }
}

/// CIFAR-10: 50 k train images, ~150 MB — the paper's "small dataset".
pub const CIFAR10: Dataset = Dataset {
    name: "CIFAR-10",
    size_gb: 0.15,
    train_samples: 50_000,
    num_classes: 10,
};

/// CIFAR-100: same images as CIFAR-10, 100 classes.
pub const CIFAR100: Dataset = Dataset {
    name: "CIFAR-100",
    size_gb: 0.15,
    train_samples: 50_000,
    num_classes: 100,
};

/// ImageNet (ILSVRC-2012): 1.28 M train images, ~150 GB — the paper's
/// "large dataset" whose ingress cost dominates in Fig. 10a.
pub const IMAGENET: Dataset = Dataset {
    name: "ImageNet",
    size_gb: 150.0,
    train_samples: 1_281_167,
    num_classes: 1000,
};

/// RTE (GLUE): 2.5 k sentence pairs, binary entailment — the BERT
/// fine-tuning workload of Table 4.
pub const RTE: Dataset = Dataset {
    name: "RTE",
    size_gb: 0.002,
    train_samples: 2_490,
    num_classes: 2,
};

/// All dataset descriptors.
pub const DATASETS: &[Dataset] = &[CIFAR10, CIFAR100, IMAGENET, RTE];

/// Looks up a dataset by name. A user entry point for a caller that
/// names datasets as text; library code uses the constants, so only
/// tests call it.
pub fn lookup(name: &str) -> Option<&'static Dataset> {
    DATASETS.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chance_accuracy_is_inverse_classes() {
        assert!((CIFAR10.chance_accuracy() - 0.1).abs() < 1e-12);
        assert!((CIFAR100.chance_accuracy() - 0.01).abs() < 1e-12);
        assert!((RTE.chance_accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn imagenet_ingress_matches_paper_example() {
        // §6.1.2: 150 GB at $0.01/GB = $1.50 per instance.
        assert!((IMAGENET.size_gb * 0.01 - 1.50).abs() < 1e-9);
    }

    #[test]
    fn lookup_round_trips() {
        for d in DATASETS {
            assert_eq!(lookup(d.name).unwrap(), d);
        }
        assert!(lookup("MNIST").is_none());
    }
}
